"""Measuring kernel cost with counting scalars.

Run:  python demos/02_operation_counts.py

A CountingScalar carries a float value plus a tally; the kernels are generic
over the scalar type, so running them on counting scalars measures the real
additions and constant multiplications actually executed.  The headline
result: each kernel hits the minimal number of multiplications possible for
its length.
"""

import numpy as np

from mindht import count_ops, mu_lower_bound, naive_dht
from mindht.counting import audit_report, audit_table, run_counted

print(audit_table(audit_report()))
print()

# The counts are properties of the dataflow, not the data: count_ops counts
# the kernel's one trace, and a counted run on any input gives the same tally.
ops = count_ops(12)
print(f"N=12 trace: {ops.additions} adds, {ops.multiplications} mults")
for seed in (1, 2, 3):
    _, ops = run_counted(12, np.random.default_rng(seed).uniform(-1, 1, 12))
    print(f"N=12, signal seed {seed}: {ops.additions} adds, {ops.multiplications} mults")
print()

# Counting is transparent: the counted run produces the identical spectrum,
# bit for bit, because the numeric path is unchanged.
v = np.random.default_rng(7).uniform(-1, 1, 24)
spectrum, ops = run_counted(24, v)
print(f"N=24 counted run: {ops.additions} additions, {ops.multiplications} multiplications")
print("max |spectrum - oracle| =", np.max(np.abs(spectrum - naive_dht(v))))
print()

# Contrast with the O(N^2) definition: direct summation at N=24 needs 552
# multiplications; the kernel needs 12, which is the lower bound.
n = 24
print(f"direct summation at N={n}: {n * (n - 1)} multiplications")
print(f"fast kernel at N={n}:      {count_ops(n).multiplications} (bound: {mu_lower_bound(n)})")

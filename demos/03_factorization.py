"""How the kernels are derived: residual matrices, balancing, verification.

Run:  python demos/03_factorization.py

Writing S(k) for the k-th pre-addition layer state, the residual matrix T(k)
satisfies V = T(k) @ S(k); it is computed exactly as H_N @ P_k^{-1}.  Layer by
layer the residual's entry alphabet shrinks until only one or a few constants
remain - those are the kernel's multiplications.  Entries of magnitude above
one are split into an integer part (a free "special addition" of an existing
layer value) plus an in-alphabet remainder.
"""

import numpy as np

from mindht import (
    balance_split,
    balance_stages,
    entry_alphabet,
    kernel_plan,
    residual_matrix,
    verify_decomposition,
)

np.set_printoptions(precision=4, suppress=True, linewidth=120)

# N=8: after two layers the residual alphabet is {0, sqrt(2)/2, 1} and the
# sqrt(2)/2 entries sit in two columns - two multiplications suffice.
for order in (0, 1, 2):
    alpha = entry_alphabet(residual_matrix(8, order))
    print(f"N=8  T({order}) alphabet: {tuple(round(a, 6) for a in alpha)}")
print()

# N=12: T(2) still contains entries of magnitude 1.366... = 1 + 0.366...;
# balancing peels the integer parts into a special-addition vector.
t2 = residual_matrix(12, 2)
print("N=12 T(2) alphabet:", tuple(round(a, 6) for a in entry_alphabet(t2)))
z, balanced = balance_split(t2)
print("special additions peeled off T(2):")
for row, (sign, idx) in sorted(z.entries.items()):
    print(f"   V[{row}] <- {'+' if sign > 0 else '-'}S{z.source_order}[{idx}]")
print("balanced alphabet: ", tuple(round(a, 6) for a in entry_alphabet(balanced)))
print()

# After the final merge only (sqrt(3)-1)/2 remains, in four columns.
stages, terminal = balance_stages(12)
print("N=12 terminal alphabet:", tuple(round(a, 6) for a in entry_alphabet(terminal)))
print()

# N=24 needs two balancing stages and ends with twelve multiplication sites;
# two of them act on sums that straddle layers 3 and 4.
plan = kernel_plan(24)
print("N=24 multiplication sites:")
for site in plan.mult_sites:
    print(f"   {site.label:>14} * [{site.operand_text()}]")
print()

# Verification multiplies every stage back out and compares against the
# transform matrix itself.
for n in (4, 8, 12, 24):
    rep = verify_decomposition(n)
    print(
        f"N={n:2d}: rebuilt H_N to {rep.max_error:.1e}; "
        f"schedule {rep.additions_scheduled} adds / {rep.multiplications_scheduled} mults"
    )

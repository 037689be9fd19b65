"""Time one fresh interpreter's ``import mindht`` plus the first call per block length.

Usage: python3 setup_child.py ROOT SEED

The first calls fill mindht's lazy kernel-matrix and plan caches.  Input
generation is not timed.  Prints one JSON object with both parts in seconds.
"""

import json
import sys
from time import perf_counter

root, seed = sys.argv[1], int(sys.argv[2])
sys.path.insert(0, f"{root}/src")

t0 = perf_counter()
import mindht  # noqa: E402

import_s = perf_counter() - t0

import numpy as np  # noqa: E402

rng = np.random.default_rng([seed, 4])
blocks = {n: rng.uniform(-1.0, 1.0, n).tolist() for n in mindht.SUPPORTED_SIZES}

t0 = perf_counter()
for n, v in blocks.items():
    mindht.dht_to_dft(mindht.fast_dht(v))
    mindht.naive_dht(v)
    mindht.kernel_plan(n)
first_calls_s = perf_counter() - t0

print(json.dumps({"import_s": import_s, "first_calls_s": first_calls_s}))

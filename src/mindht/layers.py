"""Pre-addition layer definitions for the four supported block lengths.

Each fast kernel is organized as a cascade of layers built purely from
additions and subtractions (2-point butterflies plus pass-throughs).  The
tables below define, for every supported length, what each layer computes in
terms of the previous one.  They are the only description of the
pre-additions: the kernel flows of mindht.kernels, the state evaluator here
and the matrix derivation of mindht.derivation all run them through
``cascade``, on floats, counting scalars or integer identity rows.

A row op is one of
    ("pass", i)     value copied from slot i of the previous layer
    ("add",  i, j)  previous[i] + previous[j]
    ("sub",  i, j)  previous[i] - previous[j]

Layer 0 is always the input signal itself.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SUPPORTED_SIZES",
    "LAYER_SPECS",
    "UnsupportedLengthError",
    "check_size",
    "all_finite",
    "max_order",
    "LayerState",
    "apply_layer",
    "cascade",
    "pre_addition_state",
]

SUPPORTED_SIZES = (4, 8, 12, 24)


class UnsupportedLengthError(ValueError):
    """Raised when a fast-path operation is asked for a length it cannot do."""


def check_size(n: int) -> int:
    """Return n if it is a supported block length: an int or NumPy integer.

    An equal float or string (8.0, np.float64(8), "8") is refused too.  The
    membership test comes first, so a supported int pays one type check.
    """
    if n in SUPPORTED_SIZES and (type(n) is int or isinstance(n, np.integer)):
        return n
    if not isinstance(n, (int, np.integer)):
        raise UnsupportedLengthError(f"block length must be an integer, got {n!r}")
    raise UnsupportedLengthError(
        f"block length {n} is not supported; valid lengths are 4, 8, 12, 24"
    )


def all_finite(vals: list) -> bool:
    """Whether every sample in vals is finite: the check of every 1-D signal.

    vals is the list of Python floats or complex numbers an array's
    ``tolist()`` gives.  A sum of finite samples is finite unless it
    overflows, and any inf or nan makes the sum non-finite, so the sum
    settles the common case; only a non-finite sum falls back to checking
    each sample.  The answer is exactly that of ``np.isfinite(a).all()``.
    """
    return cmath.isfinite(sum(vals)) or all(map(cmath.isfinite, vals))


def _butterflies(*pairs):
    rows = []
    for i, j in pairs:
        rows.append(("add", i, j))
        rows.append(("sub", i, j))
    return rows


def _passes(*idx):
    return [("pass", i) for i in idx]


# The 4-point transform equals the 4-point Walsh-Hadamard transform; it has no
# layer decomposition beyond the input itself.
_LAYERS_4: list[list[tuple]] = []

_LAYERS_8 = [
    # layer 1: butterflies on the index pairs (0,4), (2,6), (1,5), (3,7)
    _butterflies((0, 4), (2, 6), (1, 5), (3, 7)),
    # layer 2: the two sum branches and the two difference branches combine
    _passes(0, 1, 2, 3) + _butterflies((4, 6), (5, 7)),
]

_LAYERS_12 = [
    # layer 1: half-period butterflies (i, i+6)
    _butterflies((0, 6), (3, 9), (1, 7), (2, 8), (4, 10), (5, 11)),
    # layer 2
    _passes(0, 1, 2, 3)
    + _butterflies((4, 8))    # (v1+v7)  +- (v4+v10)
    + _butterflies((5, 7))    # (v1-v7)  +- (v2-v8)
    + _butterflies((6, 10))   # (v2+v8)  +- (v5+v11)
    + _butterflies((9, 11)),  # (v4-v10) +- (v5-v11)
    # layer 3
    _passes(0, 1, 2, 3)
    + _butterflies((4, 8), (5, 9), (7, 10), (6, 11)),
]

_LAYERS_24 = [
    # layer 1: half-period butterflies (i, i+12), interleaved sum/difference
    _butterflies(*[(i, i + 12) for i in range(12)]),
    # layer 2
    _passes(0, 1, 12, 13)
    + _butterflies(
        (2, 14), (3, 11), (4, 16), (5, 9), (8, 20),
        (10, 22), (15, 23), (17, 21), (6, 18), (7, 19),
    ),
    # layer 3
    _passes(0, 1, 2, 3, 20, 21)
    + _butterflies((4, 12), (5, 9), (8, 14), (13, 15), (22, 23), (10, 19), (11, 18))
    + _passes(6, 7, 16, 17),
    # layer 4
    _passes(0, 1, 2, 3, 4, 5, 17, 18)
    + [
        ("add", 6, 10), ("add", 8, 13), ("sub", 8, 13), ("sub", 6, 10),
        ("add", 9, 12), ("add", 7, 11), ("sub", 7, 11), ("sub", 9, 12),
        ("add", 14, 23), ("sub", 14, 23), ("add", 15, 21), ("sub", 15, 21),
    ]
    + _passes(16, 19, 20, 22),
]

LAYER_SPECS: dict[int, list[list[tuple]]] = {
    4: _LAYERS_4,
    8: _LAYERS_8,
    12: _LAYERS_12,
    24: _LAYERS_24,
}


def max_order(n: int) -> int:
    """Highest defined pre-addition layer for block length n."""
    return len(LAYER_SPECS[check_size(n)])


@dataclass(frozen=True)
class LayerState:
    """State vector S(order) of a kernel's pre-addition cascade."""

    n: int
    order: int
    values: np.ndarray


def apply_layer(spec, values):
    """Evaluate one layer's row ops on the previous layer's values.

    Works for any element type supporting + and - (floats, counting scalars,
    coefficient vectors), which is what keeps one definition usable by the
    kernels, the audit, and the derivation.
    """
    out = []
    for op in spec:
        if op[0] == "pass":
            out.append(values[op[1]])
        elif op[0] == "add":
            out.append(values[op[1]] + values[op[2]])
        else:
            out.append(values[op[1]] - values[op[2]])
    return out


def cascade(specs, values) -> list:
    """The states S(0) = values, S(1), ..., S(len(specs)) of a layer cascade."""
    states = [values]
    for spec in specs:
        states.append(apply_layer(spec, states[-1]))
    return states


def pre_addition_state(v, n: int, order: int) -> LayerState:
    """Return S(order) for the length-n kernel applied to signal v.

    Order 0 is the input itself; higher orders follow the layer listings
    for that block length.
    """
    check_size(n)
    a = np.asarray(v, dtype=float)
    if a.shape != (n,):
        raise UnsupportedLengthError(
            f"signal has shape {a.shape}, expected ({n},) for this kernel"
        )
    specs = LAYER_SPECS[n]
    if not 0 <= order <= len(specs):
        raise ValueError(
            f"layer order {order} invalid for N={n}; valid orders are 0..{len(specs)}"
        )
    values = cascade(specs[:order], list(a))[-1]
    return LayerState(n=n, order=order, values=np.array(values))

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

This module also holds the Python side of the input contract: ``is_integer``
for a block length or order, ``read_samples``, the one reader every 1-D input
goes through, and ``read_block``, which reads one block of a supported length
with it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SUPPORTED_SIZES",
    "LAYER_SPECS",
    "UnsupportedLengthError",
    "is_integer",
    "check_size",
    "check_order",
    "check_kind",
    "all_finite",
    "read_samples",
    "read_block",
    "max_order",
    "LayerState",
    "apply_layer",
    "cascade",
    "pre_addition_state",
]

SUPPORTED_SIZES = (4, 8, 12, 24)
_LENGTHS = ", ".join(map(str, SUPPORTED_SIZES))

_F64 = np.dtype(np.float64)


class UnsupportedLengthError(ValueError):
    """Raised when an input's shape or length is not one the operation takes."""


def is_integer(x) -> bool:
    """Whether x is an integer by the rule of every block length and order: an
    int or NumPy integer.  A bool, a float equal to an integer (8.0) or a
    string is not."""
    return type(x) is int or isinstance(x, np.integer)


def check_size(n: int) -> int:
    """Return n if it is a supported block length, an integer by ``is_integer``.

    An equal float or string (8.0, np.float64(8), "8") is refused too.  The
    membership test comes first, so a supported int pays one type check.
    """
    if n in SUPPORTED_SIZES and is_integer(n):
        return n
    if not (is_integer(n) or type(n) is bool):  # True is refused below, as a length
        raise UnsupportedLengthError(f"block length must be an integer, got {n!r}")
    raise UnsupportedLengthError(f"block length {n} is not supported; "
                                 f"valid lengths are {_LENGTHS}")


def check_kind(dtype: np.dtype, what: str, complex_ok: bool = False) -> None:
    """The kind rule of every input: real numbers (NumPy kinds f, i and u),
    and complex numbers (kind c) where complex_ok.  Any other dtype (bool,
    strings, object, datetime) raises TypeError naming what and the dtype."""
    if dtype.kind not in ("fiuc" if complex_ok else "fiu"):
        numbers = "real or complex" if complex_ok else "real"
        raise TypeError(f"{what} must hold {numbers} numbers, got dtype {dtype}")


def all_finite(vals: list) -> bool:
    """Whether every sample in vals is finite: the finite check of ``read_samples``.

    vals is the list of Python floats or complex numbers an array's
    ``tolist()`` gives.  A sum of finite samples is finite unless it
    overflows, and any inf or nan makes the sum non-finite, so the sum
    settles the common case; only a non-finite sum falls back to checking
    each sample.  The answer is exactly that of ``np.isfinite(a).all()``.
    """
    return cmath.isfinite(sum(vals)) or all(map(cmath.isfinite, vals))


def read_samples(v, n: int | None = None, what: str = "signal",
                 complex_ok: bool = False) -> tuple[np.ndarray, list]:
    """The one reader of a 1-D input: its samples as an array and as a list.

    Every Python reader of a signal or spectrum calls it: ``read_block``, the
    oracles and the NumPy DFT bridge of mindht.reference, and ``dft_to_dht``
    with complex_ok.  In order:

    * conversion: v is converted once, ``np.asarray(v)``, and NumPy's dtype
      for it decides its kind (a list mixing bools or ints with floats is
      floats);
    * kind: ``check_kind``, so bools, strings, object arrays (such as a list of
      ints beyond 64 bits) and complex values where complex_ok is false raise
      TypeError.  The samples are read as float64: float16, float32, ints and
      longdouble are converted, so float32 is upcast; where complex_ok,
      anything but float64 is read as complex128.  A long double beyond
      float64's range becomes inf without a warning, for the finite check;
    * shape: given, n is the one shape (n,) taken; omitted, any non-empty 1-D
      input is.  Anything else raises UnsupportedLengthError;
    * finite: a sample that is inf or nan raises
      ``ValueError("<what> contains non-finite samples")``.

    Returns the float64 (or complex128) array, which is v itself when v is
    one, and its ``tolist()``.
    """
    a = np.asarray(v)
    if a.dtype is not _F64:
        check_kind(a.dtype, what, complex_ok)
        # a long double beyond float64's range reads as inf, which the finite
        # check refuses with no overflow warning before it
        with np.errstate(over="ignore"):
            a = a.astype(complex if complex_ok else float, copy=False)
    if n is not None and a.shape != (n,):
        raise UnsupportedLengthError(f"{what} has shape {a.shape}, expected ({n},); "
                                     f"fast kernels exist for lengths {_LENGTHS}")
    if a.ndim != 1:
        raise UnsupportedLengthError(f"{what} must be 1-D, got shape {a.shape}")
    if not a.size:
        raise UnsupportedLengthError(f"{what} must be a non-empty 1-D array, got shape (0,)")
    vals = a.tolist()
    if not all_finite(vals):
        raise ValueError(f"{what} contains non-finite samples")
    return a, vals


def read_block(v, n: int | None = None) -> list[float]:
    """The samples of one block of a supported length, as Python floats.

    This is the Python side of the one-block contract, the twin of the C
    ``read_block`` (mindht._cgen): ``kernels.fast_dht`` reads with it
    whatever its C ``block`` declines, and ``pre_addition_state`` and
    ``counting.run_counted`` read every input with it.  v is read by
    ``read_samples``, which raises its errors; read_block adds the block-length
    rule, ``check_size``: given, n is checked before v is read, and v must
    have shape (n,); omitted, n is the size of v.  The list returned is what
    the C reader takes in place.
    """
    vals = read_samples(v, n if n is None else check_size(n))[1]
    check_size(len(vals))
    return vals


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


def check_order(n: int, order, first: int = 0) -> int:
    """Return order if it is a layer order of length n, first to max_order(n).

    An order is an integer by ``is_integer``, so 1.0, "1" and True are
    refused with ValueError like an order out of range.
    """
    last = max_order(n)
    if not (is_integer(order) and first <= order <= last):
        raise ValueError(
            f"layer order {order!r} invalid for N={n}; valid orders are {first}..{last}"
        )
    return order


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

    v is read by ``read_block``.  Order 0 is the input itself; higher
    orders follow the layer listings for that block length.
    """
    vals = read_block(v, check_size(n))  # n is required: read_block takes None as len(v)
    values = cascade(LAYER_SPECS[n][:check_order(n, order)], vals)[-1]
    return LayerState(n=n, order=order, values=np.array(values))

"""The input contract of the README as one table: each input class against each
entry point that reads a 1-D input or a batch.

Every cell asserts the result's bits or the exception's class and message, and
that the call raised no warning.  The rule behind the table: real numbers (NumPy
kinds f, i and u) are read as float64; bools (also one bool in a list of
numbers), strings, object arrays and complex values (except in ``dft_to_dht``)
raise TypeError (``layers.check_kind``); a sample that is inf or nan, or a long
double beyond float64's range (read as inf), raises ValueError; a wrong shape
raises UnsupportedLengthError.  ``fast_dht`` reads an ndarray with ndim >= 2 as
blocks along an axis, each by the one-block rule, and a ``kernel_flow(n)``
batch is ``fast_dht(X, n, 0)``.
"""

import warnings
from contextlib import nullcontext

import numpy as np
import pytest

from mindht import (
    UnsupportedLengthError,
    counting,
    dft_to_dht,
    dht_to_dft,
    fast_dht,
    kernels,
    naive_dft,
    naive_dht,
    naive_idht,
    pre_addition_state,
    walsh_hadamard,
)
from mindht.kernels import kernel_flow
from test_kernels import _Subclass, forced, one_block_path

N = 8


def _with_specials(x):
    y = x.copy()
    y[1, 0], y[3, 0], y[2, 1] = np.inf, np.nan, -np.inf
    return y


def _strings(x):
    return np.array([[f"{i}.5"] * 2 for i in range(len(x))])  # dtype <U3


# name -> (the 1-D input, the batch input) made from an (n, 2) float64 array x;
# a list is not a batch, so the float list has no batch input
ROWS = {
    "float list": (lambda x: x[:, 0].tolist(), None),
    "float64 array": (lambda x: x[:, 0], lambda x: x),
    "ints": (lambda x: np.round(x[:, 0] * 1000).astype(int).tolist(),
             lambda x: np.round(x * 1000).astype(int)),
    "float32": (lambda x: x[:, 0].astype(np.float32), lambda x: x.astype(np.float32)),
    ">f8": (lambda x: x[:, 0].astype(">f8"), lambda x: x.astype(">f8")),
    "longdouble": (lambda x: x[:, 0].astype(np.longdouble) / 3,
                   lambda x: x.astype(np.longdouble) / 3),
    # buffers the C readers decline, read by the Python reader with the same bits
    "memoryview": (lambda x: memoryview(x[:, 0]), None),
    "ndarray subclass": (lambda x: x[:, 0].view(_Subclass), lambda x: x.view(_Subclass)),
    "bools": (lambda x: (x[:, 0] > 0).tolist(), lambda x: x > 0),
    # one bool among numbers, which np.asarray alone would read as numbers
    "floats and a bool": (lambda x: [*x[:-1, 0].tolist(), True], None),
    "ints and a np.bool_": (lambda x: (*np.round(x[:-1, 0] * 1000).astype(int).tolist(),
                                       np.True_), None),
    "numeric strings": (lambda x: _strings(x)[:, 0].tolist(), _strings),
    "object array": (lambda x: x[:, 0].astype(object), lambda x: x.astype(object)),
    "complex": (lambda x: x[:, 0] + 1j * x[::-1, 0], lambda x: x + 1j * x[::-1]),
    "inf/nan": (lambda x: _with_specials(x)[:, 0], _with_specials),
    # finite, but inf as a float64 (already inf where longdouble is float64)
    "longdouble beyond float64": (lambda x: np.full(len(x), np.longdouble("1e400")),
                                  lambda x: np.full(x.shape, np.longdouble("1e400"))),
    "wrong shape": (lambda x: x.T, lambda x: x.T),
}
REAL = ("float list", "float64 array", "ints", "float32", ">f8", "longdouble", "memoryview",
        "ndarray subclass")
NOT_NUMBERS = {"bools": "bool", "floats and a bool": "bool", "ints and a np.bool_": "bool",
               "numeric strings": "<U3", "object array": "object", "complex": "complex128"}

# name -> (call, length, what its errors name, how it reads: "any" length,
# one "block" of n, "blocks" of a fast length, one or an ndarray of them, or
# a "batch" of kernel_flow, blocks of n along axis 0); a column named batch
# takes the batch inputs, and a path name runs the call in that state
COLUMNS = {
    "fast_dht c": (fast_dht, N, "signal", "blocks"),
    "fast_dht python": (fast_dht, N, "signal", "blocks"),
    "fast_dht batch c": (lambda x: fast_dht(x, axis=0), N, "signal", "blocks"),
    "fast_dht batch replay": (lambda x: fast_dht(x, axis=0), N, "signal", "blocks"),
    "pre_addition_state": (lambda v: pre_addition_state(v, N, 2).values, N, "signal", "block"),
    "run_counted": (lambda v: counting.run_counted(N, v)[0], N, "signal", "block"),
    "naive_dht": (naive_dht, N, "signal", "any"),
    "naive_idht": (naive_idht, N, "spectrum", "any"),
    "naive_dft": (naive_dft, N, "signal", "any"),
    "walsh_hadamard": (walsh_hadamard, N, "signal", "any"),
    "dht_to_dft c": (dht_to_dft, N, "spectrum", "any"),
    "dht_to_dft python": (dht_to_dft, N, "spectrum", "any"),
    "dht_to_dft n10": (dht_to_dft, 10, "spectrum", "any"),
    "dft_to_dht": (dft_to_dht, N, "spectrum", "any"),
    "batch c": (lambda x: kernel_flow(N)(x), N, "signal", "batch"),
    "batch replay": (lambda x: kernel_flow(N)(x), N, "signal", "batch"),
}
LENGTHS = "fast kernels exist for lengths 4, 8, 12, 24"


def outcome(call, v):
    """call(v)'s dtype, shape and bytes, or its exception's class and message,
    and the warnings it raised."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            out = call(v)
        except Exception as e:
            result = type(e), str(e)
        else:
            result = out.dtype, out.shape, out.tobytes()
    return result, [(w.category, str(w.message)) for w in seen]


def expected(row, column, v):
    """The result or error the contract gives input v of class row at the column."""
    call, n, what, reads = COLUMNS[column]
    if row in REAL:  # read as float64
        return outcome(call, np.asarray(v).astype(np.float64))[0]
    if row == "complex" and column == "dft_to_dht":  # the input domain: Re - Im
        out = np.subtract(v.real, v.imag)
        return out.dtype, out.shape, out.tobytes()
    if row in NOT_NUMBERS:
        numbers = "real or complex" if column == "dft_to_dht" else "real"
        return TypeError, f"{what} must hold {numbers} numbers, got dtype {NOT_NUMBERS[row]}"
    if row in ("inf/nan", "longdouble beyond float64"):
        return ValueError, f"{what} contains non-finite samples"
    assert row == "wrong shape"
    return UnsupportedLengthError, {
        "any": f"{what} must be 1-D, got shape (2, {n})",
        "blocks": "block length 2 is not supported; valid lengths are 4, 8, 12, 24",
        "block": f"signal has shape (2, {n}), expected ({n},); {LENGTHS}",
        "batch": f"signal has shape (2,), expected ({n},); {LENGTHS}",
    }[reads]


@pytest.fixture(scope="module", autouse=True)
def fallback_warned():
    """Where the C kernels do not build, mindht warns once per process that it
    falls back; let that one message go by here, before any cell records."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="mindht: ", category=RuntimeWarning)
        for n in (4, 8, 12, 24):
            kernels._backend(n)


def takes_batches(column):
    return "batch" in column.split()


CELLS = [(row, column) for row in ROWS for column in COLUMNS
         if not (takes_batches(column) and ROWS[row][1] is None)]


@pytest.mark.parametrize("row, column", CELLS, ids=[f"{r}-{c}" for r, c in CELLS])
def test_input_contract(row, column):
    call, n, _, reads = COLUMNS[column]
    x = np.random.default_rng([131, n]).uniform(-1.0, 1.0, (n, 2))
    v = ROWS[row][takes_batches(column)](x)
    if row == "wrong shape" and column in ("fast_dht c", "fast_dht python"):
        v = x  # (2, n) is two blocks along axis -1; (n, 2) is n blocks of 2
    path = column.split()[-1]
    state = (forced(path) if takes_batches(column)
             else one_block_path(path) if path in ("c", "python") else nullcontext())
    with state:
        got, warned = outcome(call, v)
        assert warned == []
        assert got == expected(row, column, v)


"""Fast DHT kernels for block lengths 4, 8, 12 and 24.

Each kernel is a fixed, explicit dataflow: pre-addition layers (pure
add/subtract butterflies), a minimal set of constant multiplications, and a
post-addition stage that may fold in "special additions" (integer-weight
corrections that keep residual matrix entries inside the constant alphabet).
The operation budgets are part of the contract:

    N = 4     8 additions,   0 multiplications
    N = 8    22 additions,   2 multiplications
    N = 12   52 additions,   4 multiplications
    N = 24  138 additions,  12 multiplications

and the multiplication counts meet the known lower bounds for these lengths.

Each kernel is written once: its ``*_flow`` runs the pre-addition listing
``LAYER_SPECS[n]`` (``layers.cascade``) and writes out only its
multiplications and post-additions, against the layer slots.  The flows are
generic over the scalar type: they use only binary +, - and constant *
scalar.  Keep them free of any other arithmetic - the budgets above are
asserted exactly by the test suite.

Everything made from a length's flow and listing lives in one record per
length, ``_KERNELS[n]``, made under one lock on first use and again once
``_FLOWS[n]`` or ``LAYER_SPECS[n]`` is not the object it was made from:
the pruned trace (``counting.trace(n)``, which every kernel call runs), its
schedule and emitted Python function (mindht.replay), the C extension
module (mindht._cgen, with a ``block(v)`` entry point for ``fast_dht``, a
``dft(V)`` one for ``reference.dht_to_dft`` and a ``batch`` one for float64
arrays, loaded on the first array call), the one-block call count, and
whatever is made lazily from them by a ``_derived`` function: the
operation counts (``counting.count_ops``), the derivation
(mindht.derivation) and the text ``mindht derive`` prints, each made once
under the record's one lock.  ``fast_dht`` runs the Python function for the
first ``COMPILE_AFTER`` calls of a length, or until an array call has
loaded the module; the last of them starts the compile on a background
thread.  Whichever path loads the module, ``block`` and ``dft`` are swapped
in once it has passed its check, so no one-block call waits for a
compiler.  From then on ``fast_dht`` hands ``block`` the raw input first: a
list of floats or a float64 array goes straight to C, and only what
``block`` declines is read by ``layers.read_block``, the Python side of the
same one-block contract.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .layers import LAYER_SPECS, cascade, check_size, read_block

__all__ = [
    "SQRT2",
    "SQRT2_HALF",
    "SQRT6_HALF",
    "SQRT3_M1_HALF",
    "CONSTANT_LABELS",
    "fast_dht",
    "fast_dht4",
    "fast_dht8",
    "fast_dht12",
    "fast_dht24",
    "kernel_flow",
]

# Multiplier constants, written out once.  SQRT2 is the absorbed form
# 2 * SQRT2_HALF used by the 8-point kernel: scaling the un-doubled layer-1
# difference by sqrt(2) equals scaling the layer-2 butterfly sums by
# sqrt(2)/2, and saves the four additions the doubled route would need.
SQRT2 = math.sqrt(2.0)
SQRT2_HALF = math.sqrt(2.0) / 2.0
SQRT6_HALF = math.sqrt(6.0) / 2.0
SQRT3_M1_HALF = (math.sqrt(3.0) - 1.0) / 2.0

# Closed forms of the constants, as the derivation reports them.
CONSTANT_LABELS = {
    SQRT2: "sqrt(2)",
    SQRT2_HALF: "sqrt(2)/2",
    SQRT6_HALF: "sqrt(6)/2",
    SQRT3_M1_HALF: "(sqrt(3)-1)/2",
}


def dht4_flow(v):
    """4-point DHT: two stages of 2-point butterflies, no multiplications."""
    a = v[0] + v[2]
    b = v[0] - v[2]
    c = v[1] + v[3]
    d = v[1] - v[3]
    return [a + c, b + d, a - c, b - d]


def dht8_flow(v):
    """8-point DHT: 22 additions and 2 multiplications.

    The even outputs are a 4-point DHT of the half-period sums; the odd
    outputs need the two products sqrt(2)*(v1-v5) and sqrt(2)*(v3-v7),
    i.e. sqrt(2)/2 times the layer-2 sums of those differences.  Layer-2
    slots 6 and 7 are therefore never used; the trace prunes them.
    """
    s, t = cascade(LAYER_SPECS[8], v)[1:]
    m5 = SQRT2 * s[5]
    m7 = SQRT2 * s[7]
    p = s[0] + s[2]
    q = s[0] - s[2]
    c = s[1] + s[3]
    d = s[1] - s[3]
    return [p + t[4], c + m5, q + t[5], d + m7, p - t[4], c - m5, q - t[5], d - m7]


def dht12_flow(v):
    """12-point DHT: 52 additions and 4 multiplications by (sqrt(3)-1)/2.

    Three pre-addition layers, four products on layer-3 slots 5, 6, 9, 10,
    and a post stage where eight outputs absorb one special addition each
    (a layer-2 value with weight +-1).
    """
    a, b, c = cascade(LAYER_SPECS[12], v)[1:]
    m5 = SQRT3_M1_HALF * c[5]
    m6 = SQRT3_M1_HALF * c[6]
    m9 = SQRT3_M1_HALF * c[9]
    m10 = SQRT3_M1_HALF * c[10]
    # post-additions; the b-terms are the special additions
    p = a[0] + a[2]
    q = a[0] - a[2]
    r = a[1] + a[3]
    t = a[1] - a[3]
    return [
        p + c[4],
        (r + b[6]) + m10,
        (q + b[5]) + m6,
        t + c[8],
        (p - b[8]) + m5,
        (r - b[11]) - m10,
        q - c[7],
        (t - b[7]) - m9,
        (p - b[4]) - m5,
        r - c[11],
        (q - b[9]) - m6,
        (t - b[10]) + m9,
    ]


def dht24_flow(v):
    """24-point DHT: 138 additions and 12 multiplications.

    The even outputs follow the 12-point scheme on half-period sums.  Across
    both halves there are six products by (sqrt(3)-1)/2, four by sqrt(2)/2
    (two of them on auxiliary sums straddling layers 3 and 4) and two by
    sqrt(6)/2.  Two special-addition stages are folded into the post stage:
    layer-2 values correct the odd outputs, layer-3 values the even ones.
    """
    s, t, u, w = cascade(LAYER_SPECS[24], v)[1:]
    # auxiliary sums feeding the two cross-layer multiplications
    x18 = w[18] + t[7]
    x17 = w[17] - t[17]
    # the twelve multiplications
    m1 = SQRT3_M1_HALF * w[9]
    m2 = SQRT3_M1_HALF * w[11]
    m3 = SQRT3_M1_HALF * w[13]
    m4 = SQRT3_M1_HALF * w[15]
    m5 = SQRT3_M1_HALF * u[16]
    m6 = SQRT3_M1_HALF * u[19]
    m7 = SQRT2_HALF * w[16]
    m8 = SQRT2_HALF * w[19]
    m9 = SQRT2_HALF * x18
    m10 = SQRT2_HALF * x17
    m11 = SQRT6_HALF * t[6]
    m12 = SQRT6_HALF * t[16]
    # post-additions, even outputs
    pa = s[0] + s[12]
    qa = s[0] - s[12]
    pe = pa + t[20]
    pf = pa - t[20]
    qe = qa + t[21]
    qf = qa - t[21]
    V0 = pe + w[8]
    V12 = pf - w[14]
    V6 = qf + w[12]
    V18 = qe - w[10]
    V2 = (qe + u[8]) + m1
    V10 = (qe - u[13]) - m1
    V4 = (pf + u[7]) + m3
    V20 = (pf - u[11]) - m3
    V8 = (pe - u[10]) + m2
    V16 = (pe - u[6]) - m2
    V14 = (qf - u[9]) - m4
    V22 = (qf - u[12]) + m4
    # post-additions, odd outputs
    r = s[1] + s[13]
    d = s[1] - s[13]
    gA = d + u[18]
    V3 = gA + m9
    V15 = gA - m9
    gB = r - u[17]
    V9 = gB + m10
    V21 = gB - m10
    V1 = (((r + t[10]) + m5) + m7) + m11
    V13 = (((r + t[10]) + m5) - m7) - m11
    V5 = (((r - t[19]) - m5) - m7) + m11
    V17 = (((r - t[19]) - m5) + m7) - m11
    V7 = (((d - t[11]) - m6) - m8) + m12
    V19 = (((d - t[11]) - m6) + m8) - m12
    V11 = (((d - t[18]) + m6) + m8) + m12
    V23 = (((d - t[18]) + m6) - m8) - m12
    return [
        V0, V1, V2, V3, V4, V5, V6, V7, V8, V9, V10, V11,
        V12, V13, V14, V15, V16, V17, V18, V19, V20, V21, V22, V23,
    ]


_FLOWS = {4: dht4_flow, 8: dht8_flow, 12: dht12_flow, 24: dht24_flow}

# One-block calls of one length's program that fast_dht serves from the
# emitted Python function before a background thread compiles its C module.
# A process that makes fewer never compiles: setup_s makes one call per N
# and ``mindht verify`` at most its --trials (default 1000).  A compile takes
# 0.2-0.4 s of another core; at 1-4 us saved per call it pays off after about
# 10^5 calls, and a loop of calls reaches this count within tens of ms.
COMPILE_AFTER = 4096


# _Kernel.module until mindht._cgen has tried to load it (None if that failed).
_UNTRIED = object()


class _Kernel:
    """Everything made from one length's ``flow`` and listing ``spec``: the
    pruned ``trace``, its schedule ``prog`` and emitted Python function
    ``fn``, the C ``module``, its swapped-in ``block`` ``c`` and ``dft``
    (both None before that; ``reference.dht_to_dft`` calls ``dft``), the
    one-block calls ``fn`` has served, and the values of the ``_derived``
    functions, made under the record's ``lock`` into ``derived``."""

    __slots__ = ("flow", "spec", "trace", "prog", "fn", "module", "c", "dft", "calls",
                 "derived", "lock")

    def __init__(self, n: int, flow, spec):
        from .counting import _trace
        from .replay import _Program, _emit

        self.flow, self.spec = flow, spec
        self.trace = _trace(n, flow)
        self.prog = _Program(n, self.trace)
        self.fn = _emit(self.prog)
        self.module = _UNTRIED
        self.c = self.dft = None
        self.calls = 0
        self.derived: dict[tuple, object] = {}
        self.lock = threading.RLock()


# n -> _Kernel.  Records are made under _LOCK, so racing first calls share one.
# Their makers and mindht._cgen are imported on first use: counting, replay and
# _cgen import this module, and ``import mindht`` should not pay for them.
_KERNELS: dict[int, _Kernel] = {}
_LOCK = threading.Lock()
_run = None


def _kernel(n: int) -> _Kernel:
    """The record of length n's current flow and listing, made now if need be."""
    flow, spec = _FLOWS[n], LAYER_SPECS[n]
    k = _KERNELS.get(n)
    if k is None or k.flow is not flow or k.spec is not spec:
        with _LOCK:
            k = _KERNELS.get(n)
            if k is None or k.flow is not flow or k.spec is not spec:
                k = _KERNELS[n] = _Kernel(n, flow, spec)
    return k


def _derived(fn):
    """fn(n, *args), made once per record of length n and arguments.

    The value is kept in the record's ``derived``, keyed by fn and the
    arguments, so a replaced flow or listing makes it again.  It is made
    under the record's reentrant lock, so racing first calls make it once
    and one fill may call another; a fill that raises stores nothing.
    """
    @functools.wraps(fn)
    def derived(n, *args):
        k, key = _kernel(check_size(n)), (fn, *args)
        if key not in k.derived:
            with k.lock:
                if key not in k.derived:
                    k.derived[key] = fn(n, *args)
        return k.derived[key]

    return derived


def _load_c_block(k: _Kernel) -> None:
    """Load k's C module, which swaps its ``block`` and ``dft`` in (under
    mindht._cgen's lock, as for an array call, so both share one load).

    It is the background thread's target rather than ``_cgen._loaded``
    itself so that ``import mindht._cgen`` (8-14 ms) runs on that thread
    too, not in the ``COMPILE_AFTER``-th ``fast_dht`` call that starts it."""
    from ._cgen import _loaded

    _loaded(k)


def _array(n: int, x: np.ndarray) -> np.ndarray:
    global _run
    if _run is None:
        from ._cgen import run

        _run = run
    return _run(n, x)


def kernel_flow(n: int):
    """Return the kernel for a supported block length n.

    Every call runs the kernel's one program, ``counting.trace(n)``.  On an
    ndarray with ndim >= 2, the n samples of each block along axis 0, it
    runs as generated C on float64 input (mindht._cgen), else replayed over
    column chunks (mindht.replay) on its values converted to float64, and
    returns one float64 ndarray of shape (n, ...); the input is never
    written to.  A batch that is not real numbers (bool, string, object or
    complex) raises TypeError, by the kind rule of every input
    (``layers.check_kind``).
    Any other input (a list, scalars, counting scalars, a 1-D array) runs the
    program as a Python function and gets its list back.  Both paths do the
    same IEEE operations in the same order, so each column equals the
    one-block result on its floats bit for bit.  A call runs the program of
    the ``_FLOWS[n]`` and ``LAYER_SPECS[n]`` of that moment, made anew after
    either is replaced.
    """
    check_size(n)

    def kernel(v):
        if isinstance(v, np.ndarray) and v.ndim >= 2:
            return _array(n, v)
        return _kernel(n).fn(v)

    return kernel


def fast_dht4(v) -> np.ndarray:
    """4-point fast DHT (8 additions, 0 multiplications)."""
    return fast_dht(v, 4)


def fast_dht8(v) -> np.ndarray:
    """8-point fast DHT (22 additions, 2 multiplications)."""
    return fast_dht(v, 8)


def fast_dht12(v) -> np.ndarray:
    """12-point fast DHT (52 additions, 4 multiplications)."""
    return fast_dht(v, 12)


def fast_dht24(v) -> np.ndarray:
    """24-point fast DHT (138 additions, 12 multiplications)."""
    return fast_dht(v, 24)


def fast_dht(v, n: int | None = None) -> np.ndarray:
    """Fast DHT of a signal whose length is one of 4, 8, 12, 24.

    Once the length's C module is loaded and n is omitted or an ``int``
    equal to ``len(v)``, the raw input goes to its ``block(v)`` (mindht._cgen)
    first, which reads a list or tuple of Python floats in place, or a 1-D
    float64 array of any stride, checks for inf and nan in C and returns the
    result it makes.  Any other input, or any input before then, is read by
    ``layers.read_block``, which reads real numbers (ints, float32 and the
    other real dtypes) as float64 and refuses bools, strings, object arrays
    and complex values with TypeError, and the kernel's program runs on the
    floats it returns: as that ``block``, or before the module is loaded as
    a Python function.  The first ``COMPILE_AFTER`` calls of a length, or until an
    array call has loaded the module, run the Python function; the last of
    them starts the module's compile on a background thread, and the C
    ``block`` is swapped in when the module, loaded by either, has passed
    its load check.  Every route gives the same bits, and the same error
    for the same input.

    Parameters
    ----------
    v : array-like of real numbers
        Input signal.
    n : int, optional
        Expected block length; defaults to ``len(v)``.  A mismatch, or a
        length without a fast kernel, raises UnsupportedLengthError
        (``layers.read_block``).
    """
    if n is None or type(n) is int:
        try:
            size = len(v)
        except (TypeError, OverflowError):  # unsized: read_block decides below
            size = None
        k = _KERNELS.get(size)
        if k is not None and (n is None or n == size):
            c = k.c
            if c is not None and k.flow is _FLOWS[size] and k.spec is LAYER_SPECS[size]:
                out = c(v)
                if out is not NotImplemented:
                    return out
    vals = read_block(v, n)
    k = _kernel(len(vals))
    if k.c is not None:
        return k.c(vals)
    # Unlocked: each call compares the count it wrote, so racing calls may
    # lose a count or start a second thread, which then finds the module
    # loaded under mindht._cgen's lock, but never skip the threshold.
    calls = k.calls = k.calls + 1
    if calls == COMPILE_AFTER:
        threading.Thread(target=_load_c_block, args=(k,), daemon=True,
                         name=f"mindht-compile-n{len(vals)}").start()
    return np.array(k.fn(vals))

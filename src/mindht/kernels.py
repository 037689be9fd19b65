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
schedule and the Python function it emits (mindht.replay), the C extension
module (mindht._cgen, with a ``block(v)`` entry point for ``fast_dht``, a
``dft(V)`` one for ``reference.dht_to_dft`` and a ``batch`` one for float64
arrays), the count of blocks ``fast_dht`` has run, and whatever is made
lazily from them by a ``_derived`` function: the operation counts
(``counting.count_ops``), the derivation (mindht.derivation) and the text
``mindht derive`` prints, each made once under the record's one lock.

The state of a record's C module is kept here alone: untried, failed
(None), or loaded with its ``block`` and ``dft`` swapped into the record;
mindht._cgen only builds a program's module and checks it.  A module is
loaded at most once per record and process, by ``_load_c_block``, under
the record's load lock, so threads and the background compile share one
load, the loads of different lengths overlap, and a replaced flow or
listing, which gets a new record, is loaded again.  A load takes the
checked object mindht._cgen keeps between processes (about 10 ms per N),
else compiles it (0.3-0.5 s per N with gcc 12 on a 2.1 GHz Xeon).  A
``kernel_flow`` array call loads the module in the caller's thread if it is
untried.  ``fast_dht`` never waits for a compiler: until the module is
loaded it runs the Python function on one block and on each column chunk of
an array, and the call that takes the length's count of blocks to
``COMPILE_AFTER`` or past it starts the same load on a background thread;
``dht_to_dft`` never compiles.  From then on ``fast_dht`` hands ``block``
the raw input first: a list of floats or an exact 1-D float64 ndarray goes
straight to C (read through NumPy's C API, which leaves no buffer
information on it), and only what ``block`` declines is read by
``layers.read_block``, the Python side of the same one-block contract.
Every array of blocks takes one route, ``fast_dht(X, n, axis)``, which
``kernel_flow(n)(X)`` calls with axis 0 once it has loaded the module:
``layers.read_blocks`` reads and converts it (``layers.to_float64``), and
``_route`` runs it, as C ``batch`` once the module is loaded, which reads
any float64 batch at its byte strides through NumPy's C API, else as the
Python function over column chunks (``_Program.__call__``, "the replay" in
``_backend``), which also runs wherever no module loads.  Either reports
whether output 0 stayed finite, and only a batch whose output 0 did not is
read again for inf and nan.  mindht._cgen is imported only by a load, not
with mindht or by an array call.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .layers import LAYER_SPECS, cascade, check_size, read_block, read_blocks

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

# Blocks of one length that fast_dht runs, by either route, before a
# background thread loads its C module: one per one-block call, one per
# block of an array call.  Until then both run the emitted Python function,
# an array call once per column chunk.  A process that runs fewer never
# loads one: setup_s runs one block per N and ``mindht verify`` its
# --trials plus two, 1002 at the default 1000 trials, below this count.
# In a loop of one-block calls the Python function costs about 5-11 us more
# per block than C on fast_dht(v) and 13-25 us more on
# dht_to_dft(fast_dht(v)) (against 0.8 and 1.3 us in C), so these blocks
# already cost more than a load from mindht._cgen's cache, 10-30 ms of
# another core.  On a cold cache the count starts a compile, 0.2-0.4 s,
# once per machine.  Each length's load runs under its record's own load
# lock, so lengths that cross the count together load at once.
COMPILE_AFTER = 1024


# _Kernel.module until _load_c_block has tried to load it (None if that failed).
_UNTRIED = object()


class _Kernel:
    """Everything made from one length's ``flow`` and listing ``spec``: the
    pruned ``trace``, its schedule ``prog`` and the Python function ``fn``
    it emits, the C ``module``, its swapped-in ``block`` ``c`` and ``dft``
    (both None before that; ``reference.dht_to_dft`` calls ``dft``), the
    blocks ``fast_dht`` has counted toward ``COMPILE_AFTER`` (``calls``),
    and the values of the ``_derived`` functions, made under the record's
    ``lock`` into ``derived``.  The
    module is loaded under ``load_lock``, apart from ``lock`` and
    ``_LOCK``, so a compile blocks neither a first derivation nor the
    making of a record."""

    __slots__ = ("flow", "spec", "trace", "prog", "fn", "module", "c", "dft", "calls",
                 "derived", "lock", "load_lock")

    def __init__(self, n: int, flow, spec):
        from .counting import _trace
        from .replay import _Program

        self.flow, self.spec = flow, spec
        self.trace = _trace(n, flow)
        self.prog = _Program(n, self.trace)
        self.fn = self.prog.fn
        self.module = _UNTRIED
        self.c = self.dft = None
        self.calls = 0
        self.derived: dict[tuple, object] = {}
        self.lock = threading.RLock()
        self.load_lock = threading.Lock()


# n -> _Kernel.  Records are made under _LOCK, so racing first calls share one.
# Their makers and mindht._cgen are imported on first use: counting imports this
# module, and ``import mindht`` should not pay for replay or _cgen.
_KERNELS: dict[int, _Kernel] = {}
_LOCK = threading.Lock()


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


def _load_c_block(k: _Kernel):
    """k's checked C module, loaded on first use with its ``block`` and ``dft``
    swapped into k (``k.c``, ``k.dft``), or None where none loads.

    The load runs under k's own ``load_lock``, so it waits only for a load
    of the same record, never for another length's compile.  It is the
    background thread's target, so ``import mindht._cgen`` (8-14 ms) runs on
    that thread too, not in the ``COMPILE_AFTER``-th ``fast_dht`` call that
    starts it."""
    if k.module is _UNTRIED:
        with k.load_lock:
            if k.module is _UNTRIED:
                from ._cgen import load

                module = load(k.prog, k.fn)
                if module is not None:
                    k.c, k.dft = module.block, module.dft
                k.module = module
    return k.module


def _backend(n: int) -> str:
    """``"c"`` or ``"replay"``: what runs float64 arrays for length n now,
    loading the module if it is untried."""
    return "c" if _load_c_block(_kernel(check_size(n))) is not None else "replay"


def _route(k: _Kernel, x: np.ndarray) -> np.ndarray:
    """The float64 result of kernel record k on a float64 (n, ...) batch x,
    read by ``layers.read_blocks``, in x's shape: the one batch router.

    x is viewed as (n, B) columns and run into a new (n, B) result by C
    ``batch`` if k's module is loaded, which reads them where they lie at
    any byte strides, else by the Python function, chunk by chunk
    (``prog(cols, out)``).  Either reports whether output 0, V[0], stayed
    finite.  V[0] is the sum of the block: every input reaches it through
    +, - and products by nonzero constants, and none of these turns inf or
    nan finite (IEEE 754-2019 6.2), so a finite V[0] clears every sample.
    Only a batch whose V[0] did not stay finite is read again: a sample that
    is inf or nan raises ``ValueError("signal contains non-finite
    samples")``, and finite samples whose sums overflow return inf or nan.
    It loads nothing: ``kernel_flow`` loads the module before it calls, and
    ``fast_dht`` never waits for it.
    """
    prog, module, flat = k.prog, k.module, x.ndim == 2
    cols = x if flat else x.reshape(prog.n, -1)
    out = np.empty((prog.n_outputs, cols.shape[1]))
    run = module.batch if module is not None and module is not _UNTRIED else prog
    if not run(cols, out) and not np.isfinite(cols).all():
        raise ValueError("signal contains non-finite samples")
    return out if flat else out.reshape(prog.n_outputs, *x.shape[1:])


def kernel_flow(n: int):
    """Return the kernel for a supported block length n.

    Every call runs the kernel's one program, ``counting.trace(n)``.  On an
    ndarray with ndim >= 2, the n samples of each block along axis 0, it
    loads the length's C module in the caller's thread if it is untried
    (``_load_c_block``) and returns ``fast_dht(v, n, 0)``: the batch is read
    and run by the one array route, under its contract and with its errors,
    which name the input "signal".  Any other input (a list, scalars,
    counting scalars, a 1-D array) runs the program as a Python function
    and gets its list back.  Both paths do the same IEEE operations in the
    same order, so each column equals the one-block result on its floats bit
    for bit.  A call runs the program of the ``_FLOWS[n]`` and
    ``LAYER_SPECS[n]`` of that moment, made anew after either is replaced.
    """
    check_size(n)

    def kernel(v):
        if isinstance(v, np.ndarray) and v.ndim >= 2:
            _load_c_block(_kernel(n))
            return fast_dht(v, n, 0)
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


def fast_dht(v, n: int | None = None, axis: int = -1) -> np.ndarray:
    """Fast DHT of a signal whose length is one of 4, 8, 12, 24, or of every
    block of an ndarray along one axis.

    Once the length's C module is loaded, n is omitted or an ``int`` equal
    to ``len(v)`` and axis is -1, the raw input goes to its ``block(v)``
    (mindht._cgen) first, which reads a list or tuple of Python floats in
    place, or an exact 1-D float64 ndarray of any stride through NumPy's C
    API, checks for inf and nan in C and returns the result it makes.  An
    ndarray with ndim >= 2 is read as blocks along ``axis`` by
    ``layers.read_blocks``, with the one-block contract for each block, and
    ``_route`` runs them with the length's record: as C ``batch`` if the
    module is already loaded, else as the Python function over column
    chunks, with the screen for inf and nan in the same pass; the float64
    result has v's shape.  This is the one array route: ``kernel_flow(n)(X)``
    is ``fast_dht(X, n, 0)``.
    Any other input, or any input before the module is loaded, is read by
    ``layers.read_block``, which reads real numbers (ints, float32 and the
    other real dtypes, ndarray subclasses and memoryviews) as float64 and
    refuses bools, strings, object arrays and complex values with
    TypeError, and the kernel's program runs on the floats it returns: as
    that ``block``, or before the module is loaded as a Python function.  No
    call waits for a compiler: once either route has run ``COMPILE_AFTER``
    (1024) blocks of a length, the call that crosses that count starts the
    module's load (from the cache, else a compile) on a background thread,
    and ``block`` is swapped in when the module, loaded by it or by a
    ``kernel_flow`` array call, has passed its load check.  Every route
    gives the same bits, and the same error for the same block, with one
    exception: an array of blocks is screened for inf and nan after its
    kernel pass, so where n is omitted an unsupported block length that
    also holds a nan raises UnsupportedLengthError, not ValueError.

    Parameters
    ----------
    v : array-like of real numbers
        Input signal, or an ndarray of blocks.
    n : int, optional
        Expected block length; defaults to ``len(v)``, or for an ndarray
        with ndim >= 2 to ``v.shape[axis]``.  A mismatch, or a length without
        a fast kernel, raises UnsupportedLengthError (``layers.read_block``).
    axis : int, optional
        The axis of an ndarray with ndim >= 2 that holds each block's
        samples; default -1, so the rows of a (B, n) array are its blocks.
        Any other input is one block, whose axes are -1 and 0: another axis
        raises NumPy's AxisError, as ``swapaxes`` does for an array of
        blocks, before the block is read.  It is not keyword-only,
        as in ``numpy.fft.fft(a, n, axis)``: CPython 3.11 does not
        specialize calls to a function with keyword-only parameters, which
        costs a one-block call about 18 ns.
    """
    if axis == -1 and (n is None or type(n) is int):
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
    if isinstance(v, np.ndarray) and v.ndim >= 2:
        blocks = read_blocks(v, n, axis)
        k = _kernel(len(blocks))
        if k.module is _UNTRIED:  # so a kernel_flow batch, which loads first, counts nothing
            _count(k, blocks.size // len(blocks))
        out = _route(k, blocks)
        return out if type(axis) is int and not axis else out.swapaxes(0, axis)
    if axis != -1 and axis != 0:
        raise getattr(np, "exceptions", np).AxisError(axis, 1)  # np.exceptions: NumPy >= 1.25
    vals = read_block(v, n)
    k = _kernel(len(vals))
    if k.c is not None:
        return k.c(vals)
    _count(k, 1)
    return np.array(k.fn(vals))


def _count(k: _Kernel, blocks: int) -> None:
    """Count blocks run by fast_dht toward ``COMPILE_AFTER``; the call that
    crosses it starts the load of k's module on a background thread.

    Unlocked: each call compares the count it read with the one it wrote, so
    racing calls may lose a count or start a second thread, which then finds
    the module loaded under the record's ``load_lock``, but never skip the
    threshold.
    """
    before = k.calls
    k.calls = before + blocks
    if before < COMPILE_AFTER <= before + blocks:
        threading.Thread(target=_load_c_block, args=(k,), daemon=True,
                         name=f"mindht-compile-n{k.prog.n}").start()

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

The ``*_flow`` functions are generic over the scalar type: they use only
binary +, - and constant * scalar, so the same code path runs on plain floats
and on counting scalars (see mindht.counting).  Keep them free of any other
arithmetic - the budgets above are asserted exactly by the test suite.

``kernel_flow(n)`` runs a flow on arrays too.  Given an ndarray with
ndim >= 2 (samples along axis 0, one block per column), it does not run the
flow over whole rows, which would allocate a temporary per operation.  It
runs the flow's straight-line program, traced once (mindht.counting.trace)
and scheduled onto reused register rows (mindht.replay).  A float64 batch
runs through C code emitted from that program, compiled once per N and
process into a shared object (mindht._cgen).  Other dtypes, odd strides, and
machines without a working C compiler replay the program over column chunks
instead.  Either way the result is one (n, ...) ndarray of dtype
``np.result_type(x, float)`` (float64 or wider), bit-identical column by
column to the flow on that column's floats.
"""

from __future__ import annotations

import math

import numpy as np

from .layers import SUPPORTED_SIZES, UnsupportedLengthError, all_finite, check_size

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
    i.e. sqrt(2)/2 times the layer-2 sums of those differences.
    """
    # layer 1
    s0 = v[0] + v[4]
    s1 = v[0] - v[4]
    s2 = v[2] + v[6]
    s3 = v[2] - v[6]
    s4 = v[1] + v[5]
    s5 = v[1] - v[5]
    s6 = v[3] + v[7]
    s7 = v[3] - v[7]
    # layer 2, sum branch only
    t4 = s4 + s6
    t5 = s4 - s6
    # multiplications
    m5 = SQRT2 * s5
    m7 = SQRT2 * s7
    # post-additions
    p = s0 + s2
    q = s0 - s2
    c = s1 + s3
    d = s1 - s3
    return [p + t4, c + m5, q + t5, d + m7, p - t4, c - m5, q - t5, d - m7]


def dht12_flow(v):
    """12-point DHT: 52 additions and 4 multiplications by (sqrt(3)-1)/2.

    Three pre-addition layers, four products on layer-3 slots 5, 6, 9, 10,
    and a post stage where eight outputs absorb one special addition each
    (a layer-2 value with weight +-1).
    """
    # layer 1: butterflies (i, i+6)
    a0 = v[0] + v[6]
    a1 = v[0] - v[6]
    a2 = v[3] + v[9]
    a3 = v[3] - v[9]
    a4 = v[1] + v[7]
    a5 = v[1] - v[7]
    a6 = v[2] + v[8]
    a7 = v[2] - v[8]
    a8 = v[4] + v[10]
    a9 = v[4] - v[10]
    a10 = v[5] + v[11]
    a11 = v[5] - v[11]
    # layer 2
    b4 = a4 + a8
    b5 = a4 - a8
    b6 = a5 + a7
    b7 = a5 - a7
    b8 = a6 + a10
    b9 = a6 - a10
    b10 = a9 + a11
    b11 = a9 - a11
    # layer 3
    c4 = b4 + b8
    c5 = b4 - b8
    c6 = b5 + b9
    c7 = b5 - b9
    c8 = b7 + b10
    c9 = b7 - b10
    c10 = b6 + b11
    c11 = b6 - b11
    # the only four multiplications
    m5 = SQRT3_M1_HALF * c5
    m6 = SQRT3_M1_HALF * c6
    m9 = SQRT3_M1_HALF * c9
    m10 = SQRT3_M1_HALF * c10
    # post-additions; the b-terms are the special additions
    p = a0 + a2
    q = a0 - a2
    r = a1 + a3
    t = a1 - a3
    return [
        p + c4,
        (r + b6) + m10,
        (q + b5) + m6,
        t + c8,
        (p - b8) + m5,
        (r - b11) - m10,
        q - c7,
        (t - b7) - m9,
        (p - b4) - m5,
        r - c11,
        (q - b9) - m6,
        (t - b10) + m9,
    ]


def dht24_flow(v):
    """24-point DHT: 138 additions and 12 multiplications.

    The even outputs follow the 12-point scheme on half-period sums.  Across
    both halves there are six products by (sqrt(3)-1)/2, four by sqrt(2)/2
    (two of them on auxiliary sums straddling layers 3 and 4) and two by
    sqrt(6)/2.  Two special-addition stages are folded into the post stage:
    layer-2 values correct the odd outputs, layer-3 values the even ones.
    """
    # layer 1: butterflies (i, i+12); even slots sums, odd slots differences
    S1 = []
    for i in range(12):
        S1.append(v[i] + v[i + 12])
        S1.append(v[i] - v[i + 12])
    # layer 2 (slots 0,1,2,3 pass through as S1[0], S1[1], S1[12], S1[13])
    t4 = S1[2] + S1[14]
    t5 = S1[2] - S1[14]
    t6 = S1[3] + S1[11]
    t7 = S1[3] - S1[11]
    t8 = S1[4] + S1[16]
    t9 = S1[4] - S1[16]
    t10 = S1[5] + S1[9]
    t11 = S1[5] - S1[9]
    t12 = S1[8] + S1[20]
    t13 = S1[8] - S1[20]
    t14 = S1[10] + S1[22]
    t15 = S1[10] - S1[22]
    t16 = S1[15] + S1[23]
    t17 = S1[15] - S1[23]
    t18 = S1[17] + S1[21]
    t19 = S1[17] - S1[21]
    t20 = S1[6] + S1[18]
    t21 = S1[6] - S1[18]
    t22 = S1[7] + S1[19]
    t23 = S1[7] - S1[19]
    # layer 3 (passes: slots 4,5 <- t20,t21; slots 20..23 <- t6,t7,t16,t17)
    u6 = t4 + t12
    u7 = t4 - t12
    u8 = t5 + t9
    u9 = t5 - t9
    u10 = t8 + t14
    u11 = t8 - t14
    u12 = t13 + t15
    u13 = t13 - t15
    u14 = t22 + t23
    u15 = t22 - t23
    u16 = t10 + t19
    u17 = t10 - t19
    u18 = t11 + t18
    u19 = t11 - t18
    # layer 4 (passes: slots 6,7 <- u17,u18; slots 20..23 <- u16,u19,t6,t16)
    w8 = u6 + u10
    w11 = u6 - u10
    w9 = u8 + u13
    w10 = u8 - u13
    w12 = u9 + u12
    w15 = u9 - u12
    w13 = u7 + u11
    w14 = u7 - u11
    w16 = u14 + t17
    w17 = u14 - t17
    w18 = u15 + t7
    w19 = u15 - t7
    # auxiliary sums feeding the two cross-layer multiplications
    x18 = w18 + t7
    x17 = w17 - t17
    # the twelve multiplications
    m1 = SQRT3_M1_HALF * w9
    m2 = SQRT3_M1_HALF * w11
    m3 = SQRT3_M1_HALF * w13
    m4 = SQRT3_M1_HALF * w15
    m5 = SQRT3_M1_HALF * u16
    m6 = SQRT3_M1_HALF * u19
    m7 = SQRT2_HALF * w16
    m8 = SQRT2_HALF * w19
    m9 = SQRT2_HALF * x18
    m10 = SQRT2_HALF * x17
    m11 = SQRT6_HALF * t6
    m12 = SQRT6_HALF * t16
    # post-additions, even outputs
    pa = S1[0] + S1[12]
    qa = S1[0] - S1[12]
    pe = pa + t20
    pf = pa - t20
    qe = qa + t21
    qf = qa - t21
    V0 = pe + w8
    V12 = pf - w14
    V6 = qf + w12
    V18 = qe - w10
    V2 = (qe + u8) + m1
    V10 = (qe - u13) - m1
    V4 = (pf + u7) + m3
    V20 = (pf - u11) - m3
    V8 = (pe - u10) + m2
    V16 = (pe - u6) - m2
    V14 = (qf - u9) - m4
    V22 = (qf - u12) + m4
    # post-additions, odd outputs
    r = S1[1] + S1[13]
    t = S1[1] - S1[13]
    gA = t + u18
    V3 = gA + m9
    V15 = gA - m9
    gB = r - u17
    V9 = gB + m10
    V21 = gB - m10
    V1 = (((r + t10) + m5) + m7) + m11
    V13 = (((r + t10) + m5) - m7) - m11
    V5 = (((r - t19) - m5) - m7) + m11
    V17 = (((r - t19) - m5) + m7) - m11
    V7 = (((t - t11) - m6) - m8) + m12
    V19 = (((t - t11) - m6) + m8) - m12
    V11 = (((t - t18) + m6) + m8) + m12
    V23 = (((t - t18) + m6) - m8) - m12
    return [
        V0, V1, V2, V3, V4, V5, V6, V7, V8, V9, V10, V11,
        V12, V13, V14, V15, V16, V17, V18, V19, V20, V21, V22, V23,
    ]


_FLOWS = {4: dht4_flow, 8: dht8_flow, 12: dht12_flow, 24: dht24_flow}

# mindht._cgen.run, resolved on the first array call: _cgen imports replay,
# which imports counting, which imports this module, and ``import mindht``
# should not pay for any of them.
_run = None


def _array(n: int, x: np.ndarray) -> np.ndarray:
    global _run
    if _run is None:
        from ._cgen import run

        _run = run
    return _run(n, x)


def kernel_flow(n: int):
    """Return the kernel for a supported block length n.

    On an ndarray with ndim >= 2, the n samples of each block along axis 0,
    the kernel runs the flow's traced program: as generated C on float64
    input (mindht._cgen), else replayed over column chunks into reused
    register rows (mindht.replay).  It returns one ndarray of shape (n, ...)
    and dtype ``np.result_type(x, float)``, float64 or wider; the input is
    never written to.  Each output is the same IEEE operations on the same
    operands in the same order as the scalar path, so each column equals the
    flow run on that column's floats bit for bit.  The program is the one
    ``counting.trace(n)`` shares with the audit and the derivation; its C is
    compiled and loaded on the first array call, and both are made again
    whenever ``_FLOWS[n]`` has been replaced.  Any other input (a list,
    scalars, counting scalars, a 1-D array) runs the raw scalar-generic flow
    and gets its list back.  Both paths run the flow ``_FLOWS[n]`` holds at
    the time of the call.
    """
    check_size(n)

    def kernel(v):
        if isinstance(v, np.ndarray) and v.ndim >= 2:
            return _array(n, v)
        return _FLOWS[n](v)

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

    The input is validated in one pass: converted to float64 once, its
    length resolved to a flow once, its shape checked once, and its samples
    turned into one list of floats, which is checked for inf and nan (by
    its sum first, see ``layers.all_finite``) and handed to the flow.

    Parameters
    ----------
    v : array-like of float
        Input signal.
    n : int, optional
        Expected block length; defaults to ``len(v)``.  A mismatch, or a
        length without a fast kernel, raises UnsupportedLengthError.
    """
    a = np.asarray(v, dtype=float)
    if n is None:
        if a.ndim != 1:
            raise UnsupportedLengthError(
                f"signal must be 1-D, got shape {a.shape}"
            )
        n = a.size
    flow = _FLOWS[check_size(n)]
    if a.shape != (n,):
        raise UnsupportedLengthError(
            f"signal has shape {a.shape}, expected ({n},); "
            f"fast kernels exist for lengths {', '.join(map(str, SUPPORTED_SIZES))}"
        )
    vals = a.tolist()
    if not all_finite(vals):
        raise ValueError("signal contains non-finite samples")
    return np.array(flow(vals))

"""Brute-force reference transforms: the ground truth everything else is tested against.

The discrete Hartley transform (DHT) of a length-N real signal v is

    V[k] = sum_i v[i] * cas(2*pi*i*k/N),    cas(x) = cos(x) + sin(x)

computed here by direct summation for any N.  The same kernel matrix is its
own inverse up to a factor N, so the inverse transform is one line.  A naive
DFT and the algebraic DHT<->DFT conversions round out the oracle set, plus an
unnormalized Walsh-Hadamard transform (the additions-only building block the
fast kernels are made of).

Every input is read by ``layers.read_samples``, the one reader of a 1-D
input: real numbers of any length >= 1, read as float64, and for
``dft_to_dht`` complex numbers too, read as complex128; anything else raises
(see its docstring).  ``dht_to_dft`` runs in NumPy for any length, and for
the supported lengths in the kernel's generated C module once
``kernels.fast_dht`` or an array call has loaded it (mindht._cgen ``dft``),
with the same bits.  The DFT oracle is ``naive_dft``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import kernels
from .layers import is_integer, read_samples

__all__ = [
    "cas",
    "cas_prime",
    "dht_matrix",
    "naive_dht",
    "naive_idht",
    "naive_dft",
    "dht_to_dft",
    "dft_to_dht",
    "walsh_hadamard",
]


def cas(x: float) -> float:
    """Hartley kernel function cos(x) + sin(x)."""
    return math.cos(x) + math.sin(x)


def cas_prime(x: float) -> float:
    """Complementary kernel cos(x) - sin(x)."""
    return math.cos(x) - math.sin(x)


# Kernel matrices are cached, read-only: the verification suites hammer small sizes.
@functools.cache
def _dht_kernel(n: int) -> np.ndarray:
    # Angles are reduced as (i*k) mod n before scaling by 2*pi/n so large
    # index products never lose precision in the trig argument.
    ik = np.outer(np.arange(n), np.arange(n)) % n
    ang = 2.0 * np.pi * ik / n
    m = np.cos(ang) + np.sin(ang)
    m.flags.writeable = False
    return m


@functools.cache
def _dft_kernel(n: int) -> np.ndarray:
    ik = np.outer(np.arange(n), np.arange(n)) % n
    m = np.exp(-2j * np.pi * ik / n)
    m.flags.writeable = False
    return m


@functools.cache
def _bridge_operands(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only operands of dht_to_dft for length n.

    The index r with r[k] = (N - k) % N, n zeros, and 2n halves (one per
    float of a length-n complex array).  Array operands keep the ufunc calls
    off NumPy's slower Python-scalar path.
    """
    ops = ((-np.arange(n)) % n, np.zeros(n), np.full(2 * n, 0.5))
    for x in ops:
        x.flags.writeable = False
    return ops


def dht_matrix(n: int) -> np.ndarray:
    """Return the n x n Hartley kernel matrix with entries cas(2*pi*i*k/n).

    Satisfies dht_matrix(n) @ dht_matrix(n) == n * I (the transform is an
    involution up to scale).  n is an integer by ``layers.is_integer``: a
    bool, a float (4.0 too) or a string is refused with ValueError like an n
    below 1.
    """
    if not (is_integer(n) and n >= 1):
        raise ValueError(f"matrix order must be an integer >= 1, got {n!r}")
    return _dht_kernel(n).copy()


def naive_dht(v) -> np.ndarray:
    """Direct-summation DHT of a real signal, any length >= 1.

    This is the project-wide oracle; every fast kernel is required to agree
    with it to within rounding.
    """
    a = read_samples(v)[0]
    return _dht_kernel(a.size) @ a


def naive_idht(V) -> np.ndarray:
    """Inverse DHT: apply the forward kernel again and divide by N."""
    a = read_samples(V, what="spectrum")[0]
    return (_dht_kernel(a.size) @ a) / a.size


def naive_dft(v) -> np.ndarray:
    """Direct-summation DFT of a real signal (oracle for the conversions)."""
    a = read_samples(v)[0]
    return _dft_kernel(a.size) @ a.astype(complex)


def dht_to_dft(V) -> np.ndarray:
    """Convert a Hartley spectrum to the DFT spectrum of the same signal.

    U[k] = (V[k] + V[N-k])/2 - j*(V[k] - V[N-k])/2, with V[N] read as V[0].

    Once a supported length's C module is loaded (by the background compile
    ``kernels.fast_dht`` starts or by an array call of ``kernel_flow``; this
    function compiles nothing), its ``dft`` entry point (mindht._cgen) takes
    the raw V first: a list or tuple of Python floats, read in place, or a
    1-D float64 array of any stride.  It checks for inf and nan and computes each bin with the same
    IEEE operations in the same order as ``_dft_bridge``, so both routes
    give the same bits, and the same error for the same input.  Everything
    else, any length, goes to ``_dft_bridge``.  A finite spectrum whose
    mirrored sums overflow gives inf or nan parts without a warning.
    """
    try:
        k = kernels._KERNELS.get(len(V))
    except (TypeError, OverflowError):  # unsized: _dft_bridge's reader decides
        k = None
    if k is not None and k.dft is not None:
        out = k.dft(V)
        if out is not NotImplemented:
            return out
    return _dft_bridge(V)


def _dft_bridge(V) -> np.ndarray:
    """``dht_to_dft`` in NumPy, for any length.

    The spectrum is read once (``layers.read_samples``), and the bridge is fused:
    the sums and differences are written straight into the real and
    imaginary parts of one complex result, which is halved in place, with
    no complex temporaries.  Each part is bit for bit what the complex
    expression of ``dht_to_dft`` gives in IEEE arithmetic, signed zeros
    included: with s = V[k] + V[N-k] and d = V[k] - V[N-k], the real part
    is s/2 - 0*d (-0.0 becomes +0.0 when d < 0) and the imaginary part
    0*d - d/2 (a zero is always +0.0).  Overflow and the invalid 0*inf it
    leads to are not reported, as in C.

    Only a spectrum with 2 * max|V| above DBL_MAX can overflow (a finite sum
    of |V| is not enough: bin 0 is V[0] + V[0]), and only one whose 4 *
    hypot(V) is not finite pays for ``np.errstate``.  ``math.hypot`` is
    within 1 ulp of the 2-norm (Python 3.10 on), which is at least max|V|, so a finite
    4 * hypot(V) keeps 2 * max|V| below DBL_MAX; it is one C call on the
    samples, cheaper than ``max`` and ``min`` or the ``np.errstate`` it skips.
    """
    a, vals = read_samples(V, what="spectrum")
    if math.isfinite(4.0 * math.hypot(*vals)):
        return _fused_bridge(a)
    with np.errstate(over="ignore", invalid="ignore"):
        return _fused_bridge(a)


def _fused_bridge(a: np.ndarray) -> np.ndarray:
    n = a.size
    reverse, zeros, halves = _bridge_operands(n)
    rev = a[reverse]  # rev[k] = V[(N - k) % N]
    out = np.empty(n, complex)
    re, im = out.real, out.imag
    np.add(a, rev, re)
    np.subtract(a, rev, im)
    signed_zero = np.multiply(im, zeros)  # 0*d: a zero with the sign of d
    flat = out.view(np.float64)
    np.multiply(flat, halves, flat)
    np.subtract(re, signed_zero, re)
    np.subtract(signed_zero, im, im)
    return out


def dft_to_dht(U) -> np.ndarray:
    """Convert a DFT spectrum back to the Hartley spectrum: V[k] = Re - Im.

    The one reader that takes complex input: U is read as complex128, or
    kept as float64 if it is that already; both give the same bits.
    """
    a = read_samples(U, what="spectrum", complex_ok=True)[0]
    return a.real - a.imag


def walsh_hadamard(v, order: int | None = None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform (Sylvester ordering).

    Computed as log2(n) stages of 2-point butterflies, additions only.
    `order`, when given, must equal the signal length and be a power of two,
    and be an integer by ``layers.is_integer``, so 4.0, "4" and True are
    refused.
    """
    a = read_samples(v)[0]
    n = a.size
    if order is not None and not (is_integer(order) and order == n):
        raise ValueError(f"transform order {order!r} must be the integer signal length {n}")
    if n & (n - 1):
        raise ValueError(f"Walsh-Hadamard order must be a power of two, got {n}")
    out = a.copy()
    h = 1
    while h < n:
        for start in range(0, n, 2 * h):
            for j in range(start, start + h):
                x, y = out[j], out[j + h]
                out[j] = x + y
                out[j + h] = x - y
        h *= 2
    return out

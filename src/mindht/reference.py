"""Brute-force reference transforms: the ground truth everything else is tested against.

The discrete Hartley transform (DHT) of a length-N real signal v is

    V[k] = sum_i v[i] * cas(2*pi*i*k/N),    cas(x) = cos(x) + sin(x)

computed here by direct summation for any N.  The same kernel matrix is its
own inverse up to a factor N, so the inverse transform is one line.  A naive
DFT and the algebraic DHT<->DFT conversions round out the oracle set, plus an
unnormalized Walsh-Hadamard transform (the additions-only building block the
fast kernels are made of).
"""

from __future__ import annotations

import math

import numpy as np

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


def _as_signal(v, name: str = "signal") -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-D array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite samples")
    return a


# Kernel matrices are cached: the verification suites hammer small sizes.
_DHT_CACHE: dict[int, np.ndarray] = {}
_DFT_CACHE: dict[int, np.ndarray] = {}
_REVERSE_CACHE: dict[int, np.ndarray] = {}


def _dht_kernel(n: int) -> np.ndarray:
    m = _DHT_CACHE.get(n)
    if m is None:
        # Angles are reduced as (i*k) mod n before scaling by 2*pi/n so large
        # index products never lose precision in the trig argument.
        ik = np.outer(np.arange(n), np.arange(n)) % n
        ang = 2.0 * np.pi * ik / n
        m = np.cos(ang) + np.sin(ang)
        m.flags.writeable = False
        _DHT_CACHE[n] = m
    return m


def _dft_kernel(n: int) -> np.ndarray:
    m = _DFT_CACHE.get(n)
    if m is None:
        ik = np.outer(np.arange(n), np.arange(n)) % n
        m = np.exp(-2j * np.pi * ik / n)
        m.flags.writeable = False
        _DFT_CACHE[n] = m
    return m


def _reverse_index(n: int) -> np.ndarray:
    """Index array r with r[k] = (N - k) % N."""
    r = _REVERSE_CACHE.get(n)
    if r is None:
        r = (-np.arange(n)) % n
        r.flags.writeable = False
        _REVERSE_CACHE[n] = r
    return r


def dht_matrix(n: int) -> np.ndarray:
    """Return the n x n Hartley kernel matrix with entries cas(2*pi*i*k/n).

    Satisfies dht_matrix(n) @ dht_matrix(n) == n * I (the transform is an
    involution up to scale).
    """
    if n < 1:
        raise ValueError(f"matrix order must be >= 1, got {n}")
    return _dht_kernel(n).copy()


def naive_dht(v) -> np.ndarray:
    """Direct-summation DHT of a real signal, any length >= 1.

    This is the project-wide oracle; every fast kernel is required to agree
    with it to within rounding.
    """
    a = _as_signal(v)
    return _dht_kernel(a.size) @ a


def naive_idht(V) -> np.ndarray:
    """Inverse DHT: apply the forward kernel again and divide by N."""
    a = _as_signal(V, "spectrum")
    return (_dht_kernel(a.size) @ a) / a.size


def naive_dft(v) -> np.ndarray:
    """Direct-summation DFT of a real signal (oracle for the conversions)."""
    a = _as_signal(v)
    return _dft_kernel(a.size) @ a.astype(complex)


def dht_to_dft(V) -> np.ndarray:
    """Convert a Hartley spectrum to the DFT spectrum of the same signal.

    U[k] = (V[k] + V[N-k])/2 - j*(V[k] - V[N-k])/2, with V[N] read as V[0].
    """
    a = _as_signal(V, "spectrum")
    rev = a[_reverse_index(a.size)]  # rev[k] = V[(N - k) % N]
    return (a + rev) / 2.0 - 1j * (a - rev) / 2.0


def dft_to_dht(U) -> np.ndarray:
    """Convert a DFT spectrum back to the Hartley spectrum: V[k] = Re - Im."""
    a = np.asarray(U, dtype=complex)
    if a.ndim != 1 or a.size < 1:
        raise ValueError(f"spectrum must be a non-empty 1-D array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("spectrum contains non-finite coefficients")
    return a.real - a.imag


def walsh_hadamard(v, order: int | None = None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform (Sylvester ordering).

    Computed as log2(n) stages of 2-point butterflies, additions only.
    `order`, when given, must equal the signal length and be a power of two.
    """
    a = _as_signal(v)
    n = a.size
    if order is not None and order != n:
        raise ValueError(f"signal length {n} does not match transform order {order}")
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

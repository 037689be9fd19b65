"""Tests for the brute-force reference transforms and kernel identities."""

import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mindht import (
    UnsupportedLengthError,
    cas,
    cas_prime,
    dft_to_dht,
    dht_matrix,
    dht_to_dft,
    naive_dft,
    naive_dht,
    naive_idht,
    walsh_hadamard,
)
from mindht import reference
from mindht.layers import all_finite

SIZES = (4, 8, 12, 24)

angles = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_cas_values():
    assert cas(0.0) == 1.0
    assert cas(math.pi / 4) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert cas(3 * math.pi / 4) == pytest.approx(0.0, abs=1e-15)


def test_cas_prime_values():
    assert cas_prime(0.0) == 1.0
    assert cas_prime(math.pi / 4) == pytest.approx(0.0, abs=1e-15)
    assert cas_prime(math.pi / 2) == pytest.approx(-1.0, abs=1e-15)


@given(angles)
def test_cas_norm_identity(x):
    assert cas(x) ** 2 + cas_prime(x) ** 2 == pytest.approx(2.0, abs=1e-12)


@given(st.floats(-50, 50), st.floats(-50, 50))
def test_cas_arc_addition(alpha, beta):
    lhs = cas(alpha - beta)
    rhs = math.cos(beta) * cas(alpha) - math.sin(beta) * cas_prime(alpha)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("n", (2, 4, 6, 8, 12, 24))
def test_cas_half_period_shift(n):
    # cas(2*pi*k*(i + n/2)/n) == (-1)^k * cas(2*pi*k*i/n)
    for k in range(n):
        for i in range(n):
            lhs = cas(2 * math.pi * k * (i + n // 2) / n)
            rhs = (-1) ** k * cas(2 * math.pi * k * i / n)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_dht_matrix_order_one():
    assert dht_matrix(1) == pytest.approx(np.array([[1.0]]))


def test_dht_matrix_rejects_zero():
    # an order is an integer >= 1 by check_size's rule: bools, floats equal
    # to an integer and strings are refused too, and nothing is cached under them
    before = reference._dht_kernel.cache_info()
    for n in (0, -3, 2.5, 4.0, np.float64(4), True, "4"):
        with pytest.raises(ValueError, match="integer >= 1"):
            dht_matrix(n)
    assert reference._dht_kernel.cache_info() == before


@pytest.mark.parametrize("n", (4, np.int64(4), np.uint8(4)))
def test_dht_matrix_accepts_numpy_integers(n):
    np.testing.assert_array_equal(dht_matrix(n), dht_matrix(4))


def test_dht_matrix_4_is_walsh_like():
    expected = np.array(
        [
            [1, 1, 1, 1],
            [1, 1, -1, -1],
            [1, -1, 1, -1],
            [1, -1, -1, 1],
        ],
        dtype=float,
    )
    assert dht_matrix(4) == pytest.approx(expected, abs=1e-15)


def test_dht_matrix_8_alphabet():
    vals = np.unique(np.round(np.abs(dht_matrix(8)), 12))
    assert vals == pytest.approx([0.0, 1.0, math.sqrt(2.0)], abs=1e-12)


@pytest.mark.parametrize("n", SIZES)
def test_dht_matrix_involution(n):
    h = dht_matrix(n)
    assert h @ h == pytest.approx(n * np.eye(n), abs=1e-10)


@pytest.mark.parametrize("n", (1, 3, 4, 7, 8, 12, 24))
def test_naive_dht_impulse(n):
    v = np.zeros(n)
    v[0] = 1.0
    assert naive_dht(v) == pytest.approx(np.ones(n), abs=1e-14)


def test_naive_dht_constant():
    assert naive_dht(np.ones(4)) == pytest.approx([4, 0, 0, 0], abs=1e-14)


def test_naive_dht_known_vector():
    assert naive_dht([1, 2, 3, 4]) == pytest.approx([10, -4, -2, 0], abs=1e-14)


def test_naive_dht_rejects_bad_input():
    with pytest.raises(ValueError):
        naive_dht([])
    with pytest.raises(ValueError):
        naive_dht([1.0, float("nan")])
    with pytest.raises(ValueError):
        naive_dht([[1.0, 2.0], [3.0, 4.0]])


def test_naive_idht_known_vectors():
    assert naive_idht([4, 0, 0, 0]) == pytest.approx([1, 1, 1, 1], abs=1e-14)
    assert naive_idht([10, -4, -2, 0]) == pytest.approx([1, 2, 3, 4], abs=1e-14)


@pytest.mark.parametrize("n", (1, 2, 5, 8, 12, 24))
def test_round_trip(n):
    rng = np.random.default_rng(n)
    v = rng.uniform(-10.0, 10.0, n)
    tol = 1e-12 * max(1.0, np.max(np.abs(v)))
    assert naive_idht(naive_dht(v)) == pytest.approx(v, abs=tol)


def test_naive_dft_known_values():
    assert naive_dft([1, 0, 0, 0]) == pytest.approx(np.ones(4), abs=1e-14)
    assert naive_dft(np.ones(4)) == pytest.approx([4, 0, 0, 0], abs=1e-14)
    assert naive_dft([1, 2, 3, 4]) == pytest.approx(
        [10, -2 + 2j, -2, -2 - 2j], abs=1e-14
    )


def test_dht_to_dft_known_values():
    assert dht_to_dft([4, 0, 0, 0]) == pytest.approx([4, 0, 0, 0], abs=1e-14)
    assert dht_to_dft(np.ones(4)) == pytest.approx(np.ones(4), abs=1e-14)
    assert dht_to_dft([10, -4, -2, 0]) == pytest.approx(
        naive_dft([1, 2, 3, 4]), abs=1e-14
    )


def test_dft_to_dht_known_values():
    assert dft_to_dht([4, 0, 0, 0]) == pytest.approx([4, 0, 0, 0], abs=1e-14)
    assert dft_to_dht([10, -2 + 2j, -2, -2 - 2j]) == pytest.approx(
        [10, -4, -2, 0], abs=1e-14
    )


@pytest.mark.parametrize("n", SIZES)
def test_dft_bridge_many_signals(n):
    rng = np.random.default_rng(n)
    for _ in range(1000):
        v = rng.uniform(-1.0, 1.0, n)
        V = naive_dht(v)
        U = naive_dft(v)
        assert np.max(np.abs(dht_to_dft(V) - U)) <= 1e-10
        assert np.max(np.abs(dft_to_dht(U) - V)) <= 1e-10


def _frozen_dht_to_dft(V):
    """The bridge as a complex expression, before it was fused."""
    a = np.asarray(V, dtype=float)
    rev = a[(-np.arange(a.size)) % a.size]
    return (a + rev) / 2.0 - 1j * (a - rev) / 2.0


# Magnitudes from 1e-300 to 1e300, subnormals and both zeros.
SAMPLES = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(-300, 299)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5e-323, 2.2250738585072014e-308]),
)


@st.composite
def spectra(draw, samples=SAMPLES):
    """A spectrum of a supported length, some mirrored bins made equal."""
    n = draw(st.sampled_from(SIZES))
    V = draw(st.lists(samples, min_size=n, max_size=n))
    for k in draw(st.sets(st.integers(1, n - 1))):
        V[n - k] = V[k]  # V[k] - V[N-k] == 0
    return V


@settings(max_examples=500, deadline=None)
@given(spectra())
def test_dht_to_dft_bit_identical(V):
    want = _frozen_dht_to_dft(V)
    for spectrum in (V, np.array(V)):
        out = dht_to_dft(spectrum)
        assert out.dtype == want.dtype and out.shape == want.shape
        assert out.tobytes() == want.tobytes()


def test_dht_to_dft_signed_zeros_bit_identical():
    # every pair of special values as one mirrored pair of a 4-point spectrum
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-323, -1.5e-323, 1.0, -1.0, 1e300, -1e-300]
    for p in special:
        for q in special:
            for V in ([p, q, 1.0, -q], [p, p, q, p], [q, p, -0.0, q]):
                assert dht_to_dft(V).tobytes() == _frozen_dht_to_dft(V).tobytes(), V


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_dht_to_dft_rejects_non_finite_at_every_position(bad):
    for n in SIZES:
        for i in range(n):
            V = [1.0] * n
            V[i] = bad
            with pytest.raises(ValueError, match="^spectrum contains non-finite samples$"):
                dht_to_dft(V)


def test_dht_to_dft_shape_errors_unchanged():
    # the shape rule of layers.read_samples, whose "must be 1-D" is read_block's
    for V, message in (([], "must be a non-empty 1-D array, got shape (0,)"),
                       (np.ones((2, 2)), "must be 1-D, got shape (2, 2)"),
                       (3.0, "must be 1-D, got shape ()")):
        with pytest.raises(UnsupportedLengthError) as exc:
            dht_to_dft(V)
        assert str(exc.value) == f"spectrum {message}"


def bridge_in_python_floats(V):
    """Each bin of dht_to_dft as the IEEE operations the bridge makes, on
    Python floats, which overflow to inf without a warning."""
    n = len(V)
    out = []
    for k in range(n):
        a, b = V[k], V[-k % n]
        s, d = a + b, a - b
        z = d * 0.0
        out.append(complex(s * 0.5 - z, z - d * 0.5))
    return np.array(out)


DBL_MAX = sys.float_info.max

# (spectrum, whether the NumPy bridge enters np.errstate for it)
NEAR_OVERFLOW = [
    ([1e308, 0.0, 0.0, 0.0], True),  # a finite sum, but bin 0 is V[0] + V[0] = inf
    ([math.nextafter(DBL_MAX / 2, math.inf), 0.0, 0.0, 0.0], True),  # just above: bin 0 is inf
    ([DBL_MAX / 2, 0.0, -DBL_MAX / 2, 0.0], True),  # 2 * max|V| == DBL_MAX: nothing overflows
    ([math.nextafter(DBL_MAX / 4, math.inf), 0.0, 0.0, 0.0], True),
    ([DBL_MAX / 4, 0.0, 0.0, 0.0], False),  # 4 * hypot(V) == DBL_MAX
    ([1e306] * 12 + [-1e306] * 12, False),
]


@pytest.mark.parametrize("V, enters_errstate", NEAR_OVERFLOW)
def test_dft_bridge_enters_errstate_only_near_overflow(V, enters_errstate, monkeypatch):
    entered = []
    real_errstate = np.errstate

    def errstate(**kwargs):
        entered.append(kwargs)
        return real_errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", errstate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outs = [reference._dft_bridge(s) for s in (V, np.array(V))]
    assert len(entered) == 2 * enters_errstate
    want = bridge_in_python_floats(V)
    for out in outs:
        assert out.tobytes() == want.tobytes()
    assert np.isinf(want[0].real) == (V[0] > DBL_MAX / 2)


def test_all_finite_is_the_numpy_check():
    cases = [
        [1.0, 2.0],
        [1e308, 1e308, -1e308],  # overflowing sum of finite samples
        [1.0, math.inf],
        [math.nan, 0.0],
        [math.inf, -math.inf],
        [1 + 2j, 1e308 + 1e308j, 1e308j],
        [1 + 2j, complex(0.0, math.nan)],
        [complex(math.inf, 0.0)],
        [],
    ]
    for vals in cases:
        assert all_finite(vals) == bool(np.isfinite(np.array(vals)).all()), vals


def test_dft_to_dht_rejects_non_finite():
    for bad in (complex(math.inf, 0), complex(0, math.nan), complex(1, -math.inf)):
        with pytest.raises(ValueError, match="^spectrum contains non-finite samples$"):
            dft_to_dht([1.0, bad, 2.0j])
    with np.errstate(over="ignore"):  # finite coefficients whose Re - Im overflows
        assert dft_to_dht([1e308 + 1e308j, 1e308 - 1e308j]).tolist() == [0.0, math.inf]


@pytest.mark.parametrize("n", SIZES)
def test_dft_conjugate_symmetry(n):
    rng = np.random.default_rng(n + 99)
    u = naive_dft(rng.uniform(-1, 1, n))
    for k in range(1, n):
        assert u[(n - k) % n] == pytest.approx(np.conj(u[k]), abs=1e-12)


def test_dht_dft_algebraic_round_trip():
    rng = np.random.default_rng(3)
    for n in SIZES:
        V = rng.uniform(-5, 5, n)
        assert dft_to_dht(dht_to_dft(V)) == pytest.approx(V, abs=1e-12)


def test_walsh_hadamard_two_point():
    assert walsh_hadamard([3.0, 5.0], 2) == pytest.approx([8.0, -2.0])


def test_walsh_hadamard_impulse():
    assert walsh_hadamard([1, 0, 0, 0], 4) == pytest.approx([1, 1, 1, 1])


def test_walsh_hadamard_known_vector():
    assert walsh_hadamard([1, 2, 3, 4], 4) == pytest.approx([10, -2, -4, 0])


def test_walsh_hadamard_rejects_bad_order():
    with pytest.raises(ValueError):
        walsh_hadamard([1, 2, 3], 3)
    with pytest.raises(ValueError):
        walsh_hadamard([1, 2, 3, 4], 8)
    # the order is an integer by check_size's rule: an int or NumPy integer
    for v, order in (([1, 2, 3, 4], 4.0), ([1, 2, 3, 4], np.float64(4)), ([1, 2, 3, 4], "4"),
                     ([1], True)):
        with pytest.raises(ValueError, match=re.escape(f"transform order {order!r}")):
            walsh_hadamard(v, order)
    assert walsh_hadamard([1, 2, 3, 4], np.int64(4)).tolist() == [10, -2, -4, 0]


def test_walsh_hadamard_matches_kronecker():
    rng = np.random.default_rng(11)
    h2 = np.array([[1, 1], [1, -1]])
    h8 = np.kron(np.kron(h2, h2), h2)
    v = rng.uniform(-1, 1, 8)
    assert walsh_hadamard(v, 8) == pytest.approx(h8 @ v, abs=1e-12)


def test_wht4_is_row_permutation_of_dht4():
    # the 4-point DHT coincides with the 4-point WHT up to swapping rows 1, 2
    rng = np.random.default_rng(5)
    v = rng.uniform(-1, 1, 4)
    wht = walsh_hadamard(v, 4)
    dht = naive_dht(v)
    assert wht[[0, 2, 1, 3]] == pytest.approx(dht, abs=1e-12)

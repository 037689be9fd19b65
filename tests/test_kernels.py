"""Fast kernels against the brute-force oracle, the array path against the
scalar path, plus layer-state checks."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mindht
from mindht import (
    SUPPORTED_SIZES,
    UnsupportedLengthError,
    fast_dht,
    fast_dht4,
    fast_dht8,
    fast_dht12,
    fast_dht24,
    naive_dht,
    pre_addition_state,
)
from mindht import kernels, layers
from mindht.kernels import kernel_flow
from mindht.layers import LAYER_SPECS, apply_layer, max_order
from mindht.replay import CHUNK_COLUMNS

KERNELS = {4: fast_dht4, 8: fast_dht8, 12: fast_dht12, 24: fast_dht24}


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_impulse(n):
    v = np.zeros(n)
    v[0] = 1.0
    assert KERNELS[n](v) == pytest.approx(np.ones(n), abs=1e-14)


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_constant(n):
    out = np.zeros(n)
    out[0] = n
    assert KERNELS[n](np.ones(n)) == pytest.approx(out, abs=1e-14)


def test_dht4_known_vectors():
    assert fast_dht4([1, 2, 3, 4]) == pytest.approx([10, -4, -2, 0])
    assert fast_dht4([1, -1, 1, -1]) == pytest.approx([0, 0, 4, 0])


def test_dht8_second_column():
    got = fast_dht8([0, 1, 0, 0, 0, 0, 0, 0])
    r2 = math.sqrt(2.0)
    assert got == pytest.approx([1, r2, 1, 0, -1, -r2, -1, 0], abs=1e-15)


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_oracle_equivalence_bulk(n):
    rng = np.random.default_rng(n * 7 + 1)
    worst = 0.0
    for _ in range(1000):
        v = rng.uniform(-1.0, 1.0, n)
        worst = max(worst, float(np.max(np.abs(KERNELS[n](v) - naive_dht(v)))))
    assert worst <= 1e-10 * n


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_sequential_vector(n):
    v = np.arange(n, dtype=float)
    assert KERNELS[n](v) == pytest.approx(naive_dht(v), abs=1e-10 * n)


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_linearity(n):
    rng = np.random.default_rng(n + 17)
    for _ in range(50):
        a, b = rng.uniform(-3, 3, 2)
        u = rng.uniform(-1, 1, n)
        w = rng.uniform(-1, 1, n)
        lhs = fast_dht(a * u + b * w)
        rhs = a * fast_dht(u) + b * fast_dht(w)
        assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_involution(n):
    rng = np.random.default_rng(n + 23)
    v = rng.uniform(-1.0, 1.0, n)
    assert fast_dht(fast_dht(v)) == pytest.approx(n * v, abs=1e-9 * n * n)


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_all_zero_input_is_exactly_zero(n):
    out = KERNELS[n](np.zeros(n))
    assert np.all(out == 0.0)


def test_dispatch_matches_specific_kernels():
    rng = np.random.default_rng(2)
    for n in SUPPORTED_SIZES:
        v = rng.uniform(-1, 1, n)
        assert np.array_equal(fast_dht(v), KERNELS[n](v))
        assert np.array_equal(fast_dht(v, n), KERNELS[n](v))


def test_unsupported_lengths_rejected():
    for bad in (0, 1, 2, 3, 5, 6, 7, 9, 16, 48):
        with pytest.raises(UnsupportedLengthError) as exc:
            fast_dht(np.zeros(max(bad, 1)), bad)
        assert "4, 8, 12, 24" in str(exc.value)
    with pytest.raises(UnsupportedLengthError):
        fast_dht(np.zeros(5))
    with pytest.raises(UnsupportedLengthError):
        fast_dht8(np.zeros(12))


def test_non_finite_rejected():
    v = np.zeros(8)
    v[3] = np.inf
    with pytest.raises(ValueError):
        fast_dht8(v)


# --- single-block path: one validation pass, same bits and errors as before ---


def _frozen_fast_dht(v, n):
    """The single-block path before it was cut to one pass: flow on a.tolist()."""
    return np.array(kernels._FLOWS[n](np.asarray(v, float).tolist()))


# Magnitudes from 1e-300 to 1e300, subnormals and both zeros.
SAMPLES = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(-300, 299)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]),
)
SIGNALS = st.sampled_from(SUPPORTED_SIZES).flatmap(
    lambda n: st.lists(SAMPLES, min_size=n, max_size=n)
)


@settings(max_examples=300, deadline=None)
@given(SIGNALS)
def test_single_block_bit_identical(v):
    n = len(v)
    want = _frozen_fast_dht(v, n).tobytes()
    for out in (fast_dht(v), fast_dht(np.array(v), n), KERNELS[n](v)):
        assert out.dtype == np.float64 and out.shape == (n,)
        assert out.tobytes() == want


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("call", [fast_dht, fast_dht8])
def test_non_finite_rejected_at_every_position(call, bad):
    for i in range(8):
        v = np.ones(8)
        v[i] = bad
        with pytest.raises(ValueError, match="^signal contains non-finite samples$"):
            call(v)
        with pytest.raises(ValueError, match="^signal contains non-finite samples$"):
            call(v.tolist())


@pytest.mark.parametrize(
    "v", [np.full(8, 1e308), [1e308, 1e308, -1e308, 1.0, -2.0, 3.0, 0.0, -0.0]]
)
def test_finite_input_with_overflowing_sum_accepted(v, monkeypatch):
    # the sum test fails, so the per-sample fallback must decide, and accept
    assert not math.isfinite(sum(np.asarray(v, float).tolist()))
    calls = []

    def isfinite(x):
        calls.append(x)
        return cmath.isfinite(x)

    monkeypatch.setattr(layers, "cmath", SimpleNamespace(isfinite=isfinite))
    out = fast_dht(v)
    assert len(calls) == 1 + 8
    assert out.tobytes() == _frozen_fast_dht(v, 8).tobytes()


_LENGTHS = "fast kernels exist for lengths 4, 8, 12, 24"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fast_dht(np.ones((2, 4))), "signal must be 1-D, got shape (2, 4)"),
        (lambda: fast_dht([[1.0] * 8]), "signal must be 1-D, got shape (1, 8)"),
        (lambda: fast_dht(np.ones(5)),
         "block length 5 is not supported; valid lengths are 4, 8, 12, 24"),
        (lambda: fast_dht(np.ones(8), n=6),
         "block length 6 is not supported; valid lengths are 4, 8, 12, 24"),
        (lambda: fast_dht(np.ones(8), n=4),
         f"signal has shape (8,), expected (4,); {_LENGTHS}"),
        (lambda: fast_dht(np.ones((1, 8)), n=8),
         f"signal has shape (1, 8), expected (8,); {_LENGTHS}"),
        (lambda: fast_dht8(np.ones(12)),
         f"signal has shape (12,), expected (8,); {_LENGTHS}"),
        (lambda: fast_dht24(np.ones((24, 1))),
         f"signal has shape (24, 1), expected (24,); {_LENGTHS}"),
    ],
)
def test_shape_and_length_errors_unchanged(call, message):
    with pytest.raises(UnsupportedLengthError) as exc:
        call()
    assert str(exc.value) == message


# --- array path: chunked replay of the traced program ---


def scalar_columns(n, x):
    """The raw flow on each column's Python numbers, stacked as columns."""
    cols = x.reshape(n, -1)
    return np.array(
        [kernel_flow(n)(cols[:, j].tolist()) for j in range(cols.shape[1])], dtype=float
    ).T.reshape(x.shape)


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
@pytest.mark.parametrize(
    "blocks", [1, CHUNK_COLUMNS - 1, CHUNK_COLUMNS, CHUNK_COLUMNS + 1, 3 * CHUNK_COLUMNS + 5]
)
def test_array_path_matches_scalar_path_bit_for_bit(n, blocks):
    x = np.random.default_rng([n, blocks]).uniform(-1.0, 1.0, (n, blocks))
    before = x.copy()
    out = kernel_flow(n)(x)
    assert isinstance(out, np.ndarray)
    assert out.shape == (n, blocks) and out.dtype == np.float64
    assert np.array_equal(out, scalar_columns(n, x))
    assert np.array_equal(x, before)


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_array_path_layouts(n):
    rng = np.random.default_rng(n + 31)
    blocks = CHUNK_COLUMNS + 3
    fortran = np.asfortranarray(rng.uniform(-1.0, 1.0, (n, blocks)))
    transposed = rng.uniform(-1.0, 1.0, (blocks, n)).T
    cube = rng.uniform(-1.0, 1.0, (n, 5, 7))
    for x in (fortran, transposed, cube):
        before = x.copy()
        out = kernel_flow(n)(x)
        assert out.shape == x.shape
        assert np.array_equal(out, scalar_columns(n, x))
        assert np.array_equal(x, before)


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_array_path_int_and_float32_computed_in_float64(n):
    rng = np.random.default_rng(n + 37)
    ints = rng.integers(-1000, 1000, (n, 300))
    singles = rng.uniform(-1.0, 1.0, (n, 300)).astype(np.float32)
    for x in (ints, singles):
        before = x.copy()
        out = kernel_flow(n)(x)
        assert out.dtype == np.float64
        assert np.array_equal(out, scalar_columns(n, x))
        assert np.array_equal(x, before) and x.dtype == before.dtype


def test_array_path_rejects_wrong_block_axis():
    with pytest.raises(UnsupportedLengthError):
        kernel_flow(8)(np.zeros((12, 4)))


def test_other_inputs_run_the_raw_flow():
    v = np.arange(8.0)
    assert isinstance(kernel_flow(8)(v.tolist()), list)
    assert isinstance(kernel_flow(8)(v), list)


def test_import_loads_no_replay():
    code = "import sys, mindht; assert 'mindht.replay' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(Path(mindht.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_array_path_retraces_a_replaced_flow(monkeypatch):
    x = np.random.default_rng(41).uniform(-1.0, 1.0, (8, 100))
    good = kernel_flow(8)(x)
    real = kernels._FLOWS[8]

    def bad(v):
        out = real(v)
        out[0] = 0.9999999 * out[0]  # one spurious multiplication
        return out

    monkeypatch.setitem(kernels._FLOWS, 8, bad)
    out = kernel_flow(8)(x)
    assert np.array_equal(out[0], 0.9999999 * good[0])
    assert np.array_equal(out[1:], good[1:])
    assert np.array_equal(out, scalar_columns(8, x))


def test_array_path_copies_repeated_and_input_outputs(monkeypatch):
    def passthrough(v):
        s = v[1] + v[2]
        return [v[0], s, s, v[3]]

    monkeypatch.setitem(kernels._FLOWS, 4, passthrough)
    x = np.random.default_rng(43).uniform(-1.0, 1.0, (4, 10))
    assert np.array_equal(kernel_flow(4)(x), scalar_columns(4, x))


# --- pre-addition layer states ---


def test_state_order_zero_is_input():
    v = np.arange(12, dtype=float)
    st = pre_addition_state(v, 12, 0)
    assert st.order == 0
    assert st.values == pytest.approx(v)


def test_state_8_layer1_known_vector():
    st = pre_addition_state(np.arange(1.0, 9.0), 8, 1)
    assert st.values == pytest.approx([6, -4, 10, -4, 8, -4, 12, -4])


def test_state_8_layer2_known_vector():
    st = pre_addition_state(np.arange(1.0, 9.0), 8, 2)
    # sums combine to 20/-4, differences cancel to -8/0
    assert st.values == pytest.approx([6, -4, 10, -4, 20, -4, -8, 0])


def test_state_12_layer1_impulse():
    v = np.zeros(12)
    v[6] = 1.0
    st = pre_addition_state(v, 12, 1)
    expected = np.zeros(12)
    expected[0] = 1.0
    expected[1] = -1.0
    assert st.values == pytest.approx(expected)


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_layer_states_have_small_integer_coefficients(n):
    # every state is an integer combination of samples with coefficients in
    # {-2, -1, 0, 1, 2} for the listed layers
    for order in range(max_order(n) + 1):
        coeffs = np.array(
            [pre_addition_state(row, n, order).values for row in np.eye(n)]
        ).T
        assert np.all(coeffs == np.rint(coeffs))
        assert np.max(np.abs(coeffs)) <= 2


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_layer_composition_is_additions_only(n):
    # S(j) arises from S(j-1) through the listed pass/add/sub ops alone
    rng = np.random.default_rng(n)
    v = rng.uniform(-1, 1, n)
    for order in range(1, max_order(n) + 1):
        prev = pre_addition_state(v, n, order - 1).values
        spec = LAYER_SPECS[n][order - 1]
        assert apply_layer(spec, list(prev)) == pytest.approx(
            pre_addition_state(v, n, order).values
        )


def test_state_rejects_bad_order():
    with pytest.raises(ValueError):
        pre_addition_state(np.zeros(8), 8, 3)
    with pytest.raises(ValueError):
        pre_addition_state(np.zeros(4), 4, 1)
    with pytest.raises(ValueError):
        pre_addition_state(np.zeros(12), 12, -1)


def test_state_rejects_bad_length():
    with pytest.raises(UnsupportedLengthError):
        pre_addition_state(np.zeros(8), 12, 1)

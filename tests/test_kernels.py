"""Fast kernels against the brute-force oracle, the array path against the
scalar path, plus layer-state checks."""

import cmath
import functools
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from contextlib import contextmanager
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
from mindht import _cgen, counting, kernels, layers, replay
from mindht._cgen import TILE
from mindht.kernels import kernel_flow
from mindht.layers import LAYER_SPECS, apply_layer, max_order
from mindht.replay import CHUNK_COLUMNS, program as replay_program

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


@pytest.mark.parametrize("n", (8.0, np.float64(8), "8"))
@pytest.mark.parametrize(
    "call",
    [
        lambda n: fast_dht(np.ones(8), n),
        lambda n: kernel_flow(n),
        lambda n: counting.count_ops(n),
        lambda n: layers.check_size(n),
    ],
    ids=["fast_dht", "kernel_flow", "count_ops", "check_size"],
)
def test_non_integral_block_lengths_are_refused(call, n):
    # 8.0 == 8, so only a type check tells a float block length apart
    with pytest.raises(UnsupportedLengthError, match="block length must be an integer"):
        call(n)


def test_numpy_integer_block_lengths_are_accepted():
    v = np.arange(8.0)
    for n in (np.int64(8), np.int32(8), np.uint8(8)):
        assert layers.check_size(n) == 8
        assert fast_dht(v, n).tobytes() == fast_dht(v, 8).tobytes()
        assert kernel_flow(n)(list(v)) == kernel_flow(8)(list(v))
        assert counting.count_ops(n) == counting.count_ops(8)


# --- array path: C kernels from the traced program, or the chunked replay ---

BACKENDS = ("c", "replay")


@contextmanager
def forced(name):
    """Run the array path on the C kernels ("c") or on a forced replay ("replay").

    The replay is forced through the compiler lookup, on a fresh kernel table.
    """
    with pytest.MonkeyPatch.context() as mp:
        if name == "replay":
            mp.setattr(_cgen, "_KERNELS", {})
            mp.setattr(_cgen, "find_compiler", lambda: None)
            mp.setattr(_cgen, "_warned", True)
        yield


@functools.cache
def c_works(find_compiler=_cgen.find_compiler):
    """Whether this machine compiles and loads the C kernels (not under CC=/bin/false)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_cgen, "_KERNELS", {})
        mp.setattr(_cgen, "find_compiler", find_compiler)
        return _cgen.backend(4) == "c"


def expect_backend(name, n):
    assert _cgen.backend(n) == (name if c_works() else "replay")


@pytest.fixture(params=BACKENDS)
def backend(request):
    with forced(request.param):
        yield request.param


@pytest.fixture
def fresh_kernels(monkeypatch):
    """Empty trace, program and kernel tables, with the one-warning latch reset."""
    monkeypatch.setattr(counting, "_TRACES", {})
    monkeypatch.setattr(replay, "_PROGRAMS", {})
    monkeypatch.setattr(_cgen, "_KERNELS", {})
    monkeypatch.setattr(_cgen, "_warned", False)


def scalar_columns(n, x):
    """The raw flow on each column's Python numbers, stacked as columns."""
    cols = x.reshape(n, -1)
    return np.array(
        [kernel_flow(n)(cols[:, j].tolist()) for j in range(cols.shape[1])], dtype=float
    ).T.reshape(x.shape)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
@pytest.mark.parametrize(
    "blocks", [1, CHUNK_COLUMNS - 1, CHUNK_COLUMNS, CHUNK_COLUMNS + 1, 3 * CHUNK_COLUMNS + 5]
)
def test_array_path_matches_scalar_path_bit_for_bit(n, blocks):
    x = np.random.default_rng([n, blocks]).uniform(-1.0, 1.0, (n, blocks))
    before = x.copy()
    want = scalar_columns(n, x)
    for name in BACKENDS:
        with forced(name):
            expect_backend(name, n)
            out = kernel_flow(n)(x)
            assert isinstance(out, np.ndarray)
            assert out.shape == (n, blocks) and out.dtype == np.float64
            assert same_bits(out, want)
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
        want = scalar_columns(n, x)
        for name in BACKENDS:
            with forced(name):
                out = kernel_flow(n)(x)
                assert out.shape == x.shape
                assert same_bits(out, want)
                assert np.array_equal(x, before)


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_array_path_int_and_float32_computed_in_float64(n):
    rng = np.random.default_rng(n + 37)
    ints = rng.integers(-1000, 1000, (n, 300))
    singles = rng.uniform(-1.0, 1.0, (n, 300)).astype(np.float32)
    for x in (ints, singles):
        before = x.copy()
        for name in BACKENDS:
            with forced(name):
                out = kernel_flow(n)(x)
                assert out.dtype == np.float64
                assert np.array_equal(out, scalar_columns(n, x))
                assert np.array_equal(x, before) and x.dtype == before.dtype


def test_array_path_rejects_wrong_block_axis():
    for name in BACKENDS:
        with forced(name):
            with pytest.raises(UnsupportedLengthError, match=r"expected \(8, \.\.\.\)"):
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
    for name in BACKENDS:
        with forced(name):
            expect_backend(name, 8)
            out = kernel_flow(8)(x)
            assert np.array_equal(out[0], 0.9999999 * good[0])
            assert np.array_equal(out[1:], good[1:])
            assert same_bits(out, scalar_columns(8, x))


def test_array_path_copies_repeated_and_input_outputs(monkeypatch):
    def passthrough(v):
        s = v[1] + v[2]
        return [v[0], s, s, v[3]]

    monkeypatch.setitem(kernels._FLOWS, 4, passthrough)
    x = np.random.default_rng(43).uniform(-1.0, 1.0, (4, 10))
    x[:, 0] = -0.0
    for name in BACKENDS:
        with forced(name):
            expect_backend(name, 4)
            assert same_bits(kernel_flow(4)(x), scalar_columns(4, x))


def test_replaced_flow_gets_its_own_c_source(monkeypatch):
    good = _cgen.source(replay_program(8))

    def bad(v):
        out = kernels.dht8_flow(v)
        out[0] = 0.9999999 * out[0]
        return out

    monkeypatch.setitem(kernels._FLOWS, 8, bad)
    assert _cgen.source(replay_program(8)) != good
    assert (0.9999999).hex() in _cgen.source(replay_program(8))


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
@pytest.mark.parametrize("blocks", [1, TILE - 1, TILE, TILE + 1, 3 * TILE + 5])
def test_tile_edges_match_scalar_path(backend, n, blocks):
    x = np.random.default_rng([n, blocks, 5]).uniform(-1.0, 1.0, (n, blocks))
    x[:, ::7] = -0.0
    expect_backend(backend, n)
    assert same_bits(kernel_flow(n)(x), scalar_columns(n, x))


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_negative_and_non_unit_strides(backend, n):
    base = np.random.default_rng(n + 47).uniform(-1.0, 1.0, (2 * n, 2 * TILE + 9))
    views = (
        base[:n, ::-1],  # negative column stride
        base[:n, ::3],  # column stride 3
        base[:n, ::-2],
        base[n - 1::-1],  # negative row stride
        base[::2, 1::5],  # row stride 2, column stride 5
        base[:n].T.copy().T[:, ::-1],  # Fortran order, reversed
    )
    for x in views:
        before = base.copy()
        assert same_bits(kernel_flow(n)(x), scalar_columns(n, x))
        assert np.array_equal(base, before)


def test_inputs_the_c_kernels_do_not_take_run_the_replay(fresh_kernels, monkeypatch):
    def no_c(*args):
        raise AssertionError("the C kernel ran")

    monkeypatch.setattr(_cgen, "_call", no_c)
    rng = np.random.default_rng(53)
    x = rng.uniform(-1.0, 1.0, (8, 40))
    raw = np.zeros(8 * 40 * 8 + 4, np.uint8)
    unaligned = np.ndarray((8, 40), float, raw, offset=4)
    unaligned[...] = x
    packed = np.zeros((8, 40), [("a", "i4"), ("v", "f8")])["v"]  # 12-byte stride
    packed[...] = x
    assert packed.strides[1] % 8
    for y in (unaligned, packed, x.astype(">f8"), x.astype(np.float32),
              (1000 * x).astype(np.int64)):
        out = kernel_flow(8)(y)
        assert out.dtype == np.float64
        assert same_bits(out, scalar_columns(8, np.asarray(y, float)))
    wide = kernel_flow(8)(x.astype(np.longdouble))
    assert wide.dtype == np.longdouble
    assert _cgen._KERNELS == {}  # nothing was compiled or loaded


def test_import_and_one_block_calls_load_no_c_backend(tmp_path):
    code = (
        "import sys, mindht\n"
        "mindht.fast_dht([1.0, 2.0, 3.0, 4.0])\n"
        "mindht.kernels.kernel_flow(8)(list(range(8)))\n"
        "assert 'mindht._cgen' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mindht.__file__).parents[1]),
           "TMPDIR": str(tmp_path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    assert list(tmp_path.iterdir()) == []  # no object directory was made


def test_objects_live_in_a_private_directory_removed_at_exit(tmp_path):
    if not c_works():
        pytest.skip("no working C compiler")
    x = np.random.default_rng(59).uniform(-1.0, 1.0, (24, 300))
    np.save(tmp_path / "x.npy", x)
    work = tmp_path / "tmp"
    work.mkdir()
    code = (
        "import sys, numpy as np\n"
        "from pathlib import Path\n"
        "from mindht import _cgen, kernels\n"
        "x = np.load(sys.argv[1])\n"
        "np.save(sys.argv[2], kernels.kernel_flow(24)(x))\n"
        "assert _cgen.backend(24) == 'c'\n"
        "assert _cgen._dir.parent == Path(sys.argv[3])\n"
        "assert _cgen._dir.stat().st_mode & 0o777 == 0o700\n"
        "assert [p.suffix for p in _cgen._dir.iterdir()] == ['.so']\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mindht.__file__).parents[1]),
           "TMPDIR": str(work)}
    out = tmp_path / "y.npy"
    subprocess.run([sys.executable, "-W", "error", "-c", code, str(tmp_path / "x.npy"), str(out),
                    str(work)], check=True, env=env)
    assert same_bits(np.load(out), scalar_columns(24, x))
    assert list(work.iterdir()) == []


def test_failing_compiler_falls_back_with_one_warning(fresh_kernels, monkeypatch):
    monkeypatch.setenv("CC", "/bin/false")
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        for n in SUPPORTED_SIZES:
            x = np.random.default_rng(n + 61).uniform(-1.0, 1.0, (n, 50))
            assert same_bits(kernel_flow(n)(x), scalar_columns(n, x))
            assert _cgen.backend(n) == "replay"
    assert [w.category for w in seen] == [RuntimeWarning]
    assert "kernel_flow runs the NumPy replay" in str(seen[0].message)


def test_missing_compiler_falls_back_with_one_warning(fresh_kernels, monkeypatch):
    monkeypatch.setenv("CC", "no-such-compiler-anywhere")
    assert _cgen.find_compiler() is None
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        for n in SUPPORTED_SIZES:
            x = np.random.default_rng(n + 67).uniform(-1.0, 1.0, (n, 50))
            assert same_bits(kernel_flow(n)(x), scalar_columns(n, x))
    assert len(seen) == 1 and "no C compiler" in str(seen[0].message)


def test_tampered_object_is_rejected_by_the_load_check(fresh_kernels, monkeypatch):
    if not c_works():
        pytest.skip("no working C compiler")
    real_source = _cgen.source

    def tampered(prog):
        src = real_source(prog)
        cut = src.index(" + ", src.index("double y0"))
        return src[:cut] + " - " + src[cut + 3:]  # one + flipped to -

    monkeypatch.setattr(_cgen, "source", tampered)
    x = np.random.default_rng(71).uniform(-1.0, 1.0, (8, 30))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert same_bits(kernel_flow(8)(x), scalar_columns(8, x))
        assert _cgen.backend(8) == "replay"
    assert len(seen) == 1 and "disagreed with the replay" in str(seen[0].message)


def test_threads_load_each_kernel_once(fresh_kernels, monkeypatch):
    loads = []
    real_load = _cgen._load

    def counted(prog):
        loads.append(prog.n)
        return real_load(prog)

    def slowed(flow):
        def slow(v):  # widens the window between a cold-cache check and its fill
            time.sleep(0.02)
            return flow(v)

        return slow

    monkeypatch.setattr(_cgen, "_load", counted)
    xs = {n: np.random.default_rng(n + 73).uniform(-1.0, 1.0, (n, 600)) for n in SUPPORTED_SIZES}
    want = {n: scalar_columns(n, x) for n, x in xs.items()}
    for n in SUPPORTED_SIZES:
        monkeypatch.setitem(kernels._FLOWS, n, slowed(kernels._FLOWS[n]))
    bad = []

    def work():
        for n in SUPPORTED_SIZES:
            if not same_bits(kernel_flow(n)(xs[n]), want[n]):
                bad.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []
    assert sorted(loads) == list(SUPPORTED_SIZES)  # each kernel compiled (or tried) once


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

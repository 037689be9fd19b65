"""Fast kernels against the brute-force oracle, the array path against the
scalar path, plus layer-state checks."""

import ast
import cmath
import functools
import math
import os
import platform
import re
import shlex
import subprocess
import sys
import sysconfig
import threading
import time
import tracemalloc
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
    dht_to_dft,
    naive_dht,
    pre_addition_state,
)
from mindht import _cgen, counting, kernels, layers, reference, replay
from mindht._cgen import W
from mindht.derivation import kernel_plan
from mindht.kernels import kernel_flow
from mindht.layers import LAYER_SPECS, apply_layer, max_order
from mindht.replay import CHUNK_COLUMNS
from test_reference import NEAR_OVERFLOW, SAMPLES as SPECTRUM_SAMPLES
from test_reference import bridge_in_python_floats, spectra

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


ONE_BLOCK_PATHS = ("c", "python")


def join_compiles():
    """Wait for the background compiles fast_dht started."""
    for t in threading.enumerate():
        if t.name.startswith("mindht-compile"):
            t.join(timeout=120)
            assert not t.is_alive()


@contextmanager
def one_block_path(name):
    """Run fast_dht on the C ``block`` and dht_to_dft on the C ``dft`` ("c", where
    this machine compiles), or fast_dht on the emitted Python function and
    dht_to_dft on the NumPy bridge ("python"), from fresh one-block states of
    the records."""
    join_compiles()
    with pytest.MonkeyPatch.context() as mp:
        for n in SUPPORTED_SIZES:
            k = kernels._kernel(n)
            module = kernels._load_c_block(k) if name == "c" else None
            mp.setattr(k, "c", module and module.block)
            mp.setattr(k, "dft", module and module.dft)
            mp.setattr(k, "calls", 0)
        yield


def uses_c_block(n):
    return kernels._kernel(n).c is not None


def expect_block(name, n):
    assert uses_c_block(n) == (name == "c" and c_works())


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize(
    "call",
    [fast_dht, fast_dht8, lambda v: pre_addition_state(v, 8, 2),
     lambda v: counting.run_counted(8, v)],
    ids=["fast_dht", "fast_dht8", "pre_addition_state", "run_counted"],
)
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
    for path in ONE_BLOCK_PATHS:
        with one_block_path(path):
            calls.clear()
            out = fast_dht(v)
            # the C block checks each sample in C and calls no Python isfinite
            assert len(calls) == (0 if uses_c_block(8) else 1 + 8)
            assert out.tobytes() == _frozen_fast_dht(v, 8).tobytes()


def test_layer_state_of_an_overflowing_block_warns_no_more_than_fast_dht():
    v = np.full(8, 1e308)  # finite samples whose sums overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast_dht(v)
        state = pre_addition_state(v, 8, 2).values
    want = layers.cascade(LAYER_SPECS[8], v.tolist())[-1]  # the same IEEE sums on floats
    assert state.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_overflowing_batch_gives_the_same_bits_without_a_warning(n):
    # finite samples whose sums overflow to inf and then give nan: C batch
    # (the replay without a compiler), on float64 and on a longdouble copy, the
    # replay itself and the one-block fast_dht of each column agree bit for
    # bit, and none warns
    x = np.full((n, 3), 1e308)
    x[::2, 1] = -1.7e308
    x[1::2, 2] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kernels._backend(n)  # a failed compile warns once; let that happen here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = kernel_flow(n)(x)
        converted = kernel_flow(n)(x.astype(np.longdouble))
        replayed = kernels._kernel(n).prog(x)
        blocks = np.array([fast_dht(x[:, j].tolist()) for j in range(3)]).T
    assert np.isinf(batch).any() and np.isnan(batch).any()
    assert same_bits(batch, converted)
    assert same_bits(batch, replayed)
    assert same_bits(batch, blocks)


_LENGTHS = "fast kernels exist for lengths 4, 8, 12, 24"


@pytest.mark.parametrize(
    "call, message",
    [
        # a list is one block; an ndarray with ndim >= 2 holds blocks along an axis
        (lambda: fast_dht([[1.0] * 4] * 2), "signal must be 1-D, got shape (2, 4)"),
        (lambda: fast_dht([[1.0] * 8]), "signal must be 1-D, got shape (1, 8)"),
        (lambda: fast_dht(np.ones(5)),
         "block length 5 is not supported; valid lengths are 4, 8, 12, 24"),
        (lambda: fast_dht(np.ones(8), n=6),
         "block length 6 is not supported; valid lengths are 4, 8, 12, 24"),
        (lambda: fast_dht(np.ones(8), n=4),
         f"signal has shape (8,), expected (4,); {_LENGTHS}"),
        (lambda: fast_dht([[1.0] * 8], n=8),
         f"signal has shape (1, 8), expected (8,); {_LENGTHS}"),
        (lambda: fast_dht8(np.ones(12)),
         f"signal has shape (12,), expected (8,); {_LENGTHS}"),
        (lambda: fast_dht24([[1.0]] * 24),
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
    """Run the array paths on the C kernels ("c") or on a forced replay ("replay").

    "c" loads every module first, since ``fast_dht``'s array route runs C
    ``batch`` only once the module is loaded.  The replay is forced through
    the compiler lookup, on modules not yet tried, and with no background
    compile started, which could outlive the context.
    """
    with pytest.MonkeyPatch.context() as mp:
        if name == "c":
            for n in SUPPORTED_SIZES:
                kernels._backend(n)
        else:
            for n in SUPPORTED_SIZES:
                mp.setattr(kernels._kernel(n), "module", kernels._UNTRIED)
            mp.setattr(_cgen, "find_compiler", lambda: None)
            mp.setattr(_cgen, "_warned", True)
            mp.setattr(kernels, "COMPILE_AFTER", sys.maxsize)
        yield


@functools.cache
def c_works(find_compiler=_cgen.find_compiler):
    """Whether this machine compiles and loads the C kernels (not under CC=/bin/false).
    The build skips the module cache, so it leaves nothing in the caller's."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in (("module", kernels._UNTRIED), ("c", None), ("dft", None)):
            mp.setattr(kernels._kernel(4), name, value)  # a load swaps block and dft in
        mp.setattr(_cgen, "find_compiler", find_compiler)
        mp.setattr(_cgen, "_cache_dir", lambda: None)
        return kernels._backend(4) == "c"


def expect_backend(name, n):
    assert kernels._backend(n) == (name if c_works() else "replay")


@pytest.fixture(params=BACKENDS)
def backend(request):
    with forced(request.param):
        yield request.param


@pytest.fixture
def fresh_kernels(monkeypatch):
    """An empty kernel record table, with the one-warning latch reset."""
    join_compiles()  # none may fill the fresh table
    monkeypatch.setattr(kernels, "_KERNELS", {})
    monkeypatch.setattr(_cgen, "_warned", False)


def scalar_columns(n, x):
    """The scalar path on each column's Python numbers, stacked as columns."""
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
def test_array_call_runs_the_function_once_per_chunk(n, monkeypatch):
    if not c_works():
        pytest.skip("no working C compiler")
    x = np.random.default_rng(n + 211).uniform(-1.0, 1.0, (n, 2 * CHUNK_COLUMNS + 3))
    overflowing = [CHUNK_COLUMNS - 1, CHUNK_COLUMNS, 2 * CHUNK_COLUMNS - 1, 2 * CHUNK_COLUMNS]
    x[:, overflowing] = 1e308  # each side of both chunk boundaries
    k = kernels._kernel(n)
    module = kernels._load_c_block(k)
    chunks = []

    def counted(v):
        chunks.append(v.shape)
        return k.fn(v)

    monkeypatch.setattr(k.prog, "fn", counted)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = k.prog(x)
    assert seen == []
    assert chunks == [(n, CHUNK_COLUMNS), (n, CHUNK_COLUMNS), (n, 3)]
    want = np.empty((k.prog.n_outputs, x.shape[1]))
    module.batch(x, want)
    assert same_bits(out, want)
    assert np.isnan(out[:, overflowing]).any(axis=0).all()  # inf - inf in every one


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


def spy_c_batch(mp, n):
    """Record in the list returned each x that the loaded length-n module's C
    ``batch(x, y)`` runs, patched through mp."""
    module = kernels._kernel(n).module
    real, seen = module.batch, []

    def batch(x, y):
        seen.append(x)
        return real(x, y)

    mp.setattr(module, "batch", batch)
    return seen


def recorded(call):
    """call()'s result and the set of warning classes it raised."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        result = call()
    return result, {type(w.message) for w in seen}


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_array_path_int_and_float32_computed_in_float64(n):
    # a batch of real numbers converts as layers.read_samples converts one
    # block: a float64 result whose every column is fast_dht of that column,
    # without a warning; a bool, object, string or complex batch is refused by
    # the same kind rule (layers.check_kind) as each of its columns.  The
    # converted copy is aligned float64, so once the module is loaded it runs
    # C batch, one call, with the bits of the replay on the converted values
    rng = np.random.default_rng(n + 37)
    x = rng.uniform(-1.0, 1.0, (n, 300))
    batches = (rng.integers(-1000, 1000, (n, 300)), x.astype(np.float32), x.astype(np.float16),
               x.astype(">f8"), x.astype(np.longdouble) / 3)
    refused = (x > 0, x.astype(object), x.astype(str), x + 1j * x[::-1])
    for y in batches + refused:
        before = y.copy()
        for name in BACKENDS:
            with forced(name):
                if y.dtype.kind in "fiu":
                    want, want_warned = recorded(lambda: np.array([fast_dht(c) for c in y.T]).T)
                    with pytest.MonkeyPatch.context() as mp:
                        batched = spy_c_batch(mp, n) if name == "c" and c_works() else None
                        out, warned = recorded(lambda: kernel_flow(n)(y))
                    assert out.dtype == np.float64
                    assert same_bits(out, want)
                    assert same_bits(out, kernels._kernel(n).prog(y.astype(float)))
                    assert warned == want_warned == set()
                    if batched is not None:
                        assert len(batched) == 1 and batched[0].dtype == np.float64
                else:
                    for call, what in ((lambda: fast_dht(y[:, 0]), "signal"),
                                       (lambda: kernel_flow(n)(y), "batch")):
                        with pytest.raises(TypeError) as exc:
                            call()
                        message = f"{what} must hold real numbers, got dtype {y.dtype}"
                        assert str(exc.value) == message
                assert np.array_equal(y, before) and y.dtype == before.dtype


def test_array_path_rejects_wrong_block_axis():
    for name in BACKENDS:
        with forced(name):
            with pytest.raises(UnsupportedLengthError, match=r"expected \(8, \.\.\.\)"):
                kernel_flow(8)(np.zeros((12, 4)))


def test_other_inputs_run_the_pruned_program():
    v = np.arange(8.0)
    assert isinstance(kernel_flow(8)(v.tolist()), list)
    assert isinstance(kernel_flow(8)(v), list)
    # the N = 8 flow forms the layer-2 slots S2[6] and S2[7] through its
    # listing, and no output needs them: the kernel skips them when it runs,
    # not only when it is counted
    raw, run = counting.OpTally(), counting.OpTally()
    kernels._FLOWS[8]([counting.CountingScalar(x, raw) for x in v])
    kernel_flow(8)([counting.CountingScalar(x, run) for x in v])
    assert raw.snapshot() == counting.OpCount(24, 2)
    assert run.snapshot() == counting.OpCount(22, 2)
    assert kernel_plan(8).dead_slots == (("S", 2, 6), ("S", 2, 7))
    # the program takes exactly one block: a longer list is refused, not cut
    for bad in ([1.0] * 7, [1.0] * 9):
        with pytest.raises(ValueError, match="values to unpack"):
            kernel_flow(8)(bad)


def test_only_the_trace_runs_the_raw_flow(fresh_kernels, monkeypatch):
    real, calls = kernels._FLOWS[8], []

    def counted(v):
        calls.append(v)
        return real(v)

    monkeypatch.setitem(kernels._FLOWS, 8, counted)
    x = np.random.default_rng(97).uniform(-1.0, 1.0, (8, 20))
    v = x[:, 0]
    for _ in range(3):
        want = fast_dht(v)
        assert kernel_flow(8)(v.tolist()) == want.tolist()
        assert kernel_flow(8)(x)[:, 0].tobytes() == want.tobytes()
        assert counting.run_counted(8, v)[0].tobytes() == want.tobytes()
        assert counting.count_ops(8) == counting.OpCount(22, 2)
        assert kernel_plan(8).n == 8
    assert len(calls) == 1 and all(isinstance(s, counting.CountingScalar) for s in calls[0])


def _golden_spectra():
    """n -> (signals, spectra) as the rows of tests/data/fast_dht_golden.txt."""
    rows: dict = {}
    for line in (Path(__file__).parent / "data" / "fast_dht_golden.txt").read_text().splitlines():
        if not line.startswith("#"):
            n, values = line.split(": ")
            x, y = ([float.fromhex(t) for t in part.split()] for part in values.split(" -> "))
            rows.setdefault(int(n), []).append((x, y))
    return rows


GOLDEN = _golden_spectra()


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_golden_spectra_bit_for_bit(backend, n):
    # recorded from the hand-written pre-addition layers the flows had
    # before they ran LAYER_SPECS; no bit may have moved since
    rows = GOLDEN[n]
    assert len(rows) == 32
    for x, y in rows:
        want = np.array(y)
        assert fast_dht(x).tobytes() == want.tobytes()
        assert np.array(kernel_flow(n)(x)).tobytes() == want.tobytes()
    signals, spectra = np.array(rows).transpose(1, 2, 0)
    expect_backend(backend, n)
    assert same_bits(kernel_flow(n)(np.ascontiguousarray(signals)), spectra)


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
    good = _cgen.source(kernels._kernel(8).prog)

    def bad(v):
        out = kernels.dht8_flow(v)
        out[0] = 0.9999999 * out[0]
        return out

    monkeypatch.setitem(kernels._FLOWS, 8, bad)
    assert _cgen.source(kernels._kernel(8).prog) != good
    assert (0.9999999).hex() in _cgen.source(kernels._kernel(8).prog)


def test_one_block_and_array_paths_share_one_schedule(fresh_kernels, monkeypatch):
    made = []

    class Counted(replay._Program):
        def __init__(self, n, traced):
            made.append(n)
            super().__init__(n, traced)

    monkeypatch.setattr(replay, "_Program", Counted)
    for n in SUPPORTED_SIZES:
        v = np.random.default_rng(n + 79).uniform(-1.0, 1.0, n)
        if n % 8:  # both orders of first use
            fast_dht(v)
            prog = kernels._kernel(n).prog
        else:
            prog = kernels._kernel(n).prog
            fast_dht(v)
        assert same_bits(prog(v[:, None])[:, 0], fast_dht(v))
    assert made == list(SUPPORTED_SIZES)


def test_racing_first_calls_share_one_record(fresh_kernels, monkeypatch):
    traced, scheduled, emitted = [], [], []
    real_emit = replay._emit

    def counted(n, flow):
        def traced_flow(v):
            traced.append(n)
            return flow(v)

        return traced_flow

    class Slow(replay._Program):  # the sleeps widen the window of a cold record
        def __init__(self, n, trace):
            scheduled.append(n)
            time.sleep(0.02)
            super().__init__(n, trace)

    def slow_emit(prog):
        emitted.append(prog.n)
        time.sleep(0.02)
        return real_emit(prog)

    for n in SUPPORTED_SIZES:
        monkeypatch.setitem(kernels._FLOWS, n, counted(n, kernels._FLOWS[n]))
    monkeypatch.setattr(replay, "_Program", Slow)
    monkeypatch.setattr(replay, "_emit", slow_emit)
    monkeypatch.setattr(_cgen, "find_compiler", lambda: None)  # the array path races no compile
    monkeypatch.setattr(_cgen, "_warned", True)
    xs = {n: np.random.default_rng(n + 103).uniform(-1.0, 1.0, (n, 5)) for n in SUPPORTED_SIZES}
    kinds = 5
    got, seen = {}, []

    def call(kind, n):
        x = xs[n]
        if kind == 0:
            return fast_dht(x[:, 0]).tobytes()
        if kind == 1:
            return kernel_flow(n)(x[:, 1].tolist())
        if kind == 2:
            return kernel_flow(n)(x).tobytes()
        if kind == 3:
            return counting.count_ops(n)
        return kernel_plan(n)

    def work(i, start):
        start.wait()
        for j, n in enumerate(SUPPORTED_SIZES):
            for step in range(kinds):  # each thread starts each N with another call
                kind = (i + j + step) % kinds
                got[i, n, kind] = call(kind, n)
        seen.append({n: kernels._kernel(n) for n in SUPPORTED_SIZES})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        start = threading.Barrier(8)
        threads = [threading.Thread(target=work, args=(i, start)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    sizes = list(SUPPORTED_SIZES)
    assert sorted(traced) == sizes  # each N traced, scheduled and emitted once
    assert sorted(scheduled) == sizes
    assert sorted(emitted) == sizes
    assert len(seen) == len(threads)
    assert all(s == seen[0] for s in seen)  # every thread sees the one record per N
    for n in SUPPORTED_SIZES:
        want = [fast_dht(xs[n][:, 0]).tobytes(), kernel_flow(n)(xs[n][:, 1].tolist()),
                kernel_flow(n)(xs[n]).tobytes(), counting.count_ops(n), kernel_plan(n)]
        assert want[0] == _frozen_fast_dht(xs[n][:, 0], n).tobytes()
        for i in range(len(threads)):
            assert [got[i, n, kind] for kind in range(kinds)] == want


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
# widths at the edges of one W-column block, then runs of many blocks:
# 255 = 15W + 15, 256 = 16W, 257 = 16W + 1, 773 = 48W + 5
@pytest.mark.parametrize("blocks", [1, W - 1, W, W + 1, 3 * W + 5, 255, 256, 257, 773])
def test_tile_edges_match_scalar_path(backend, n, blocks):
    base = np.random.default_rng([n, blocks, 5]).uniform(-1.0, 1.0, (n, blocks + 7))
    base[:, ::7] = -0.0
    want = scalar_columns(n, base)
    expect_backend(backend, n)
    for k in range(8):  # start offsets of k doubles: each 8-byte step within 64 bytes
        assert same_bits(kernel_flow(n)(base[:, k:k + blocks]), want[:, k:k + blocks])


def test_empty_batches(backend):
    for shape in ((8, 0), (8, 0, 3), (8, 3, 0)):
        out = kernel_flow(8)(np.zeros(shape))
        assert out.shape == shape and out.dtype == np.float64


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_negative_and_non_unit_strides(backend, n):
    base = np.random.default_rng(n + 47).uniform(-1.0, 1.0, (2 * n, 32 * W + 9))
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


# --- fast_dht on an ndarray of blocks along an axis ---


def per_block(x, axis):
    """The one-block fast_dht of each block of x along axis, in x's layout."""
    moved = np.moveaxis(x, axis, -1)
    out = np.empty(moved.shape)
    for i in np.ndindex(moved.shape[:-1]):
        out[i] = fast_dht(moved[i])
    return np.moveaxis(out, -1, axis)


def arrays_of_blocks(n):
    """(x, axis) pairs: ndim 2 and 3, the block axis first, last and in the
    middle, C-contiguous, transposed and strided, block counts that are and
    are not multiples of W."""
    rng = np.random.default_rng(n + 211)
    wide = rng.uniform(-1.0, 1.0, (3 * n, 4 * W + 6))
    cube = rng.uniform(-1.0, 1.0, (3, n, 7))
    return [
        (rng.uniform(-1.0, 1.0, (W + 5, n)), -1),  # C-contiguous rows
        (rng.uniform(-1.0, 1.0, (n, 2 * W)), 0),  # C-contiguous columns
        (rng.uniform(-1.0, 1.0, (n, 37)).T, -1),  # transposed: Fortran order
        (wide[::3, ::2].T, 1),  # strided both ways
        (wide[:n, ::-1], 0),  # reversed columns
        (cube, 1),  # 3-D, the middle axis
        (cube, -2),
        (cube.transpose(1, 0, 2), 0),  # 3-D, first axis, transposed
        (cube.transpose(0, 2, 1), -1),  # 3-D, last axis, transposed
        (np.ascontiguousarray(cube.transpose(2, 0, 1)), 2),  # 3-D, C-contiguous
    ]


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_array_route_matches_one_block_calls_bit_for_bit(n):
    for x, axis in arrays_of_blocks(n):
        before = x.copy()
        want = per_block(x, axis)
        for name in BACKENDS:
            with forced(name):
                expect_backend(name, n)
                out = fast_dht(x, axis=axis)
                assert out.shape == x.shape and out.dtype == np.float64
                assert same_bits(np.ascontiguousarray(out), want)
                assert fast_dht(x, n, axis=axis).tobytes() == out.tobytes()
                assert np.array_equal(x, before)


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_array_route_runs_other_real_dtypes_as_float64(n):
    x = np.random.default_rng(n + 223).uniform(-1.0, 1.0, (9, n))
    for y in ((1000 * x).astype(np.int64), x.astype(np.float32), x.astype(">f8"),
              x.astype(np.longdouble) / 3, np.zeros((0, n))):  # the last holds no blocks
        want = per_block(np.asarray(y, float), -1)
        for name in BACKENDS:
            with forced(name):
                out, warned = recorded(lambda: fast_dht(y))
                assert warned == set()
                assert same_bits(np.ascontiguousarray(out), want)


def test_array_route_errors_match_one_block():
    # each array is refused with the exception class and message that its
    # block number row gets from the one-block fast_dht, along any axis
    x = np.random.default_rng(227).uniform(-1.0, 1.0, (3, 8))
    cases = [(x > 0, 0), (x + 1j * x, 0), (x.astype(object), 0), (x.astype(str), 0),
             (np.full((2, 8), np.longdouble("1e400")), 0),
             (np.random.default_rng(229).uniform(-1.0, 1.0, (3, 10)), 0),
             (np.ones((3, 0)), 0), (np.ones((3, 2)), 0)]
    for bad in (np.inf, -np.inf, np.nan):
        y = x.copy()
        y[2, 5] = bad
        cases.append((y, 2))
    for name in BACKENDS:
        with forced(name):
            for y, row in cases:
                for n in (None, 8, 12):
                    for v, axis in ((y, -1), (y.T, 0), (y[:, None, :], 2)):
                        want = one_block_outcome(y[row], n)
                        assert want[0] in (TypeError, ValueError, UnsupportedLengthError)
                        got, warned = recorded(lambda: one_block_outcome(v, n, call=(
                            lambda v, n: fast_dht(v, n, axis=axis))))
                        assert got == want and warned == set()
            with pytest.raises(np.exceptions.AxisError if hasattr(np, "exceptions")
                               else np.AxisError):
                fast_dht(x, axis=2)


def test_one_block_axes_are_minus_one_and_zero():
    # one block has the axes -1 and 0 only: on either one-block path another
    # axis raises NumPy's AxisError, as swapaxes does for an array of blocks,
    # before the block is read, and axis=0 gives the default's bits
    axis_error = np.exceptions.AxisError if hasattr(np, "exceptions") else np.AxisError
    v = np.random.default_rng(239).uniform(-1.0, 1.0, 8)
    for path in ONE_BLOCK_PATHS:
        with one_block_path(path), warnings.catch_warnings():
            warnings.simplefilter("error")
            expect_block(path, 8)
            with pytest.raises(axis_error, match="^axis 5 is out of bounds"):
                fast_dht(np.ones(8), axis=5)
            with pytest.raises(axis_error, match="^axis -3 is out of bounds"):
                fast_dht([1.0] * 8, axis=-3)
            for bad in ([1.0] * 5, ["a"] * 8, np.full(8, np.nan)):  # refused before it is read
                with pytest.raises(axis_error):
                    fast_dht(bad, None, 1)
            for x in (v, v.tolist(), tuple(v.tolist()), v[::-1]):
                want = fast_dht(x).tobytes()
                assert fast_dht(x, axis=0).tobytes() == want
                assert fast_dht(x, 8, 0).tobytes() == fast_dht8(x).tobytes() == want
                for axis in (1, -2, 5):
                    with pytest.raises(axis_error):
                        fast_dht(x, axis=axis)


def test_inputs_the_c_kernels_do_not_take_run_the_replay(fresh_kernels, monkeypatch):
    # C batch takes aligned float64 with strides in whole elements: an
    # unaligned or packed float64 batch, which kernel_flow does not copy, still
    # loads the module first, as every kernel_flow array call does, then runs
    # the replay on the batch itself.  Converted dtypes are aligned copies and
    # run C batch (test_array_path_int_and_float32_computed_in_float64).
    monkeypatch.setattr(_cgen, "_warned", True)  # no fallback warning without a compiler
    ran = []
    real = replay._Program.__call__

    def replayed(prog, cols):
        ran.append((cols, kernels._KERNELS[8].module))
        return real(prog, cols)

    monkeypatch.setattr(replay._Program, "__call__", replayed)
    rng = np.random.default_rng(53)
    x = rng.uniform(-1.0, 1.0, (8, 40))
    raw = np.zeros(8 * 40 * 8 + 4, np.uint8)
    unaligned = np.ndarray((8, 40), float, raw, offset=4)
    unaligned[...] = x
    packed = np.zeros((8, 40), [("a", "i4"), ("v", "f8")])["v"]  # 12-byte stride
    packed[...] = x
    assert not unaligned.flags.aligned and packed.strides[1] % 8
    for y in (unaligned, packed):
        out = kernel_flow(8)(y)
        assert out.dtype == np.float64
        assert same_bits(out, scalar_columns(8, np.asarray(y, float)))
        cols, module = ran[-1]
        assert np.shares_memory(cols, y)  # the replay ran on y itself, not a copy
        # ... after the module was loaded, or tried where none builds
        assert module is (kernels._load_c_block(kernels._KERNELS[8]) if c_works() else None)


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.float32, np.float16, ">f8",
                                   np.longdouble])
def test_each_batch_call_applies_the_kind_rule_once(monkeypatch, dtype):
    # fast_dht(X) reads X once (layers.read_blocks, "signal"), kernel_flow(n)(X)
    # once, as a batch; kernels._route only routes and applies no rule of its own.
    # float64 is passed through without the rule, as every reader passes it.
    seen = []
    real = layers.check_kind

    def check_kind(dtype, what, complex_ok=False):
        seen.append(what)
        return real(dtype, what, complex_ok)

    for module in (layers, kernels, _cgen, replay):
        if getattr(module, "check_kind", None) is real:
            monkeypatch.setattr(module, "check_kind", check_kind)
    x = (np.random.default_rng(233).uniform(-1.0, 1.0, (8, 5)) * 100).astype(dtype)
    for name in BACKENDS:
        with forced(name):
            for call, what in ((lambda: fast_dht(x.T), "signal"),
                               (lambda: kernel_flow(8)(x), "batch")):
                seen.clear()
                call()
                assert seen == ([] if dtype is np.float64 else [what])


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


def test_one_shot_verify_loads_no_c_module(tmp_path):
    # verify's array calls run the replay and never wait for a compiler; at
    # --trials 1000 each length runs 1002 blocks, below COMPILE_AFTER
    code = (
        "import sys, threading\n"
        "from mindht import cli, kernels\n"
        "assert cli.main(['verify', '--trials', '1000']) == 0\n"
        "assert sorted(kernels._KERNELS) == [4, 8, 12, 24]\n"
        "for k in kernels._KERNELS.values():\n"
        "    assert k.module is kernels._UNTRIED and k.c is None and k.calls == 1002\n"
        "assert not [t for t in threading.enumerate() if t.name.startswith('mindht-compile')]\n"
        "assert 'mindht._cgen' not in sys.modules  # the batch router lives in kernels\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mindht.__file__).parents[1]),
           "TMPDIR": str(tmp_path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []  # no object directory was made


def test_replay_and_cgen_import_nothing_of_mindht_but_the_bridge():
    # the record's C state lives in kernels: replay only schedules and runs a
    # trace, and _cgen only builds and checks a module, with the NumPy bridge
    # (mindht.reference) as the oracle of dft
    def mindht_imports(module):
        found = set()
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.ImportFrom):
                name = "." * node.level + (node.module or "")
                if node.level or name.split(".")[0] == "mindht":
                    found.add(name)
            elif isinstance(node, ast.Import):
                found.update(a.name for a in node.names if a.name.split(".")[0] == "mindht")
        return sorted(found)

    assert mindht_imports(replay) == []
    assert mindht_imports(_cgen) == [".reference"]


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
        "assert kernels._backend(24) == 'c'\n"
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
    assert cached_object(24).is_file()  # a checked copy stays in the cache


def test_forked_child_leaves_the_object_directory_alone(tmp_path):
    if not c_works():
        pytest.skip("no working C compiler")
    code = (
        "import os, sys, numpy as np\n"
        "from mindht import _cgen, kernels\n"
        "kernels.kernel_flow(8)(np.ones((8, 3)))\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    sys.exit(0)  # runs the child's exit handlers\n"
        "assert os.waitpid(pid, 0)[1] == 0\n"
        "assert _cgen._dir.is_dir()\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mindht.__file__).parents[1]),
           "TMPDIR": str(tmp_path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)
    assert list(tmp_path.iterdir()) == []


def test_forked_child_builds_in_a_directory_of_its_own(tmp_path):
    # the parent removes its object directory at exit, while the child still runs
    if not c_works():
        pytest.skip("no working C compiler")
    work = tmp_path / "tmp"
    work.mkdir()
    code = (
        "import os, sys, numpy as np\n"
        "from pathlib import Path\n"
        "from mindht import kernels\n"
        "kernels.kernel_flow(8)(np.ones((8, 3)))\n"
        "r, w = os.pipe()\n"
        "if os.fork():\n"
        "    sys.exit(0)\n"
        "os.close(w)\n"
        "os.read(r, 1)  # end of file once the parent has exited\n"
        "kernels.kernel_flow(24)(np.ones((24, 3)))  # not in the cache: a build\n"
        "Path(sys.argv[1]).write_text(kernels._backend(24))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mindht.__file__).parents[1]),
           "TMPDIR": str(work)}
    # the child inherits the pipes, so this returns once the child has exited too
    done = subprocess.run([sys.executable, "-W", "error", "-c", code, str(tmp_path / "backend")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    assert (tmp_path / "backend").read_text() == "c"
    assert list(work.iterdir()) == []


def test_forked_child_exits_while_a_thread_holds_the_build_lock(tmp_path):
    # _run holds _cgen._BUILD_LOCK across Popen; a fork in that window must not
    # leave the child's exit handler waiting for a lock no thread of it holds
    code = (
        "import os, sys, threading, time\n"
        "from mindht import _cgen\n"
        "held, release = threading.Event(), threading.Event()\n"
        "def hold():\n"
        "    with _cgen._BUILD_LOCK:\n"
        "        held.set()\n"
        "        release.wait()\n"
        "t = threading.Thread(target=hold)\n"
        "t.start()\n"
        "held.wait()\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    sys.exit(0)  # runs the child's exit handlers\n"
        "deadline = time.monotonic() + 30\n"
        "while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:\n"
        "    time.sleep(0.01)\n"
        "release.set()\n"
        "t.join()\n"
        "if done[0] == 0:\n"
        "    os.kill(pid, 9)\n"
        "    sys.exit('the forked child hung at exit')\n"
        "assert done[1] == 0\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mindht.__file__).parents[1]),
           "TMPDIR": str(tmp_path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def cached_files():
    """The files in the module cache the environment names (conftest.py gives
    each test an empty one of its own)."""
    path = Path(os.environ["XDG_CACHE_HOME"], "mindht")
    return sorted(path.iterdir()) if path.is_dir() else []


def cached_object(n):
    """The one cached object of length n."""
    found = [p for p in cached_files() if p.name.startswith(f"mindht_dht{n}-")]
    assert len(found) == 1
    return found[0]


def write_cc(path, body):
    """An executable shell script at path that ends in ``body`` (a compiler)."""
    path.write_text(f"#!/bin/sh\n{body}\n")
    path.chmod(0o755)
    return path


def count_checks(monkeypatch):
    """The lengths whose modules ``_cgen._agrees`` checks from now on, in order."""
    checked = []
    real_agrees = _cgen._agrees

    def counted(prog, fn, module):
        checked.append(prog.n)
        return real_agrees(prog, fn, module)

    monkeypatch.setattr(_cgen, "_agrees", counted)
    return checked


def test_second_process_on_a_warm_cache_starts_no_compile(tmp_path):
    if not c_works():
        pytest.skip("no working C compiler")
    x = np.random.default_rng(83).uniform(-1.0, 1.0, (24, 40))
    np.save(tmp_path / "x.npy", x)
    # a compiler that logs each command it runs
    cc = write_cc(tmp_path / "logging-cc",
                  f'echo "$*" >> "$CC_LOG"\nexec {shlex.join(_cgen.find_compiler())} "$@"')
    code = (
        "import sys, numpy as np\n"
        "from mindht import kernels\n"
        "x = np.load(sys.argv[1])\n"
        "ys = [kernels.kernel_flow(n)(x[:n]) for n in (4, 8, 12, 24)]\n"
        "assert all(kernels._backend(n) == 'c' for n in (4, 8, 12, 24))\n"
        "np.save(sys.argv[2], np.concatenate(ys))\n"
    )
    outs, logs = [], []
    for run in range(2):
        logs.append(tmp_path / f"cc{run}.log")
        outs.append(tmp_path / f"y{run}.npy")
        env = {**os.environ, "PYTHONPATH": str(Path(mindht.__file__).parents[1]),
               "CC": str(cc), "CC_LOG": str(logs[run])}
        subprocess.run([sys.executable, "-W", "error", "-c", code, str(tmp_path / "x.npy"),
                        str(outs[run])], check=True, env=env, timeout=300)
    first, second = (log.read_text().splitlines() for log in logs)
    # one ISA probe per process, kept for every length's load
    assert len(first) == 5 and sum(" -o " in line for line in first) == 4
    assert len(second) == 1 and second[0].endswith(f"-E -dM -x c {os.devnull}")
    assert len(cached_files()) == 4
    want = np.concatenate([scalar_columns(n, x[:n]) for n in SUPPORTED_SIZES])
    assert same_bits(np.load(outs[0]), want) and same_bits(np.load(outs[1]), want)


def test_cached_load_is_checked_and_builds_nothing(fresh_kernels, monkeypatch):
    if not c_works():
        pytest.skip("no working C compiler")
    x = np.random.default_rng(89).uniform(-1.0, 1.0, (8, 30))
    kernels._backend(8)  # builds and keeps the object

    def no_build(src, cc):
        raise AssertionError("a warm cache built a module")

    checked = count_checks(monkeypatch)
    monkeypatch.setattr(_cgen, "_build", no_build)
    monkeypatch.setattr(kernels, "_KERNELS", {})
    assert same_bits(kernel_flow(8)(x), scalar_columns(8, x))
    expect_backend("c", 8)
    assert checked == [8]


def test_bad_cached_objects_are_replaced_without_a_warning(fresh_kernels, monkeypatch):
    if not c_works():
        pytest.skip("no working C compiler")
    x = np.random.default_rng(97).uniform(-1.0, 1.0, (8, 30))
    real = _cgen.find_compiler()
    kernels._backend(4)
    other = cached_object(4).read_bytes()
    # an object of the length-8 name whose add is a subtraction, which only the
    # load check can tell from the real one
    src = _cgen.source(kernels._kernel(8).prog)
    cut = src.index(" + ", src.index("vd y0"))
    tampered = _cgen._build(src[:cut] + " - " + src[cut + 3:],
                            [*real, *_cgen._include_flags()]).read_bytes()
    checked = count_checks(monkeypatch)
    # each case has a compiler command, and so a key, of its own: the dynamic
    # loader hands back a library already loaded from the same path
    for case, (bad, checks) in enumerate(((b"not an object", 1), (other, 1), (tampered, 2))):
        monkeypatch.setenv("CC", shlex.join([*real, f"-DCASE={case}"]))
        monkeypatch.setattr(kernels, "_KERNELS", {})
        kernels._backend(8)  # builds the object and keeps a copy
        path = cached_object(8)
        path.write_bytes(bad)
        monkeypatch.setattr(kernels, "_KERNELS", {})
        checked.clear()
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert same_bits(kernel_flow(8)(x), scalar_columns(8, x))
            expect_backend("c", 8)
        assert seen == []
        assert checked == [8] * checks  # a bad import is not checked; a cached object is
        assert cached_object(8) == path and path.read_bytes() != bad
        path.unlink()
    assert [p.name.split("-")[0] for p in cached_files()] == ["mindht_dht4"]  # no temporary file


def test_a_bad_cached_object_goes_even_when_the_fresh_build_fails(fresh_kernels, monkeypatch):
    if not c_works():
        pytest.skip("no working C compiler")
    kernels._backend(8)
    path = cached_object(8)
    path.write_bytes(b"not an object")

    def failing_build(src, cc):
        raise subprocess.CalledProcessError(1, cc, "", "")

    monkeypatch.setattr(_cgen, "_build", failing_build)
    monkeypatch.setattr(kernels, "_KERNELS", {})
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        falls_back_on_both_paths(103)
    assert len(seen) == 1 and "compiling the length-4 kernel failed" in str(seen[0].message)
    assert cached_files() == []


def test_a_cache_directory_others_may_write_is_not_used(fresh_kernels):
    if not c_works():
        pytest.skip("no working C compiler")
    path = Path(os.environ["XDG_CACHE_HOME"], "mindht")
    path.mkdir()
    path.chmod(0o777)
    expect_backend("c", 4)
    assert cached_files() == []


def test_lowering_the_instruction_set_gets_another_object(fresh_kernels, monkeypatch):
    if not c_works() or platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("no working C compiler for x86-64")
    for cc in (_cgen.find_compiler(), [*_cgen.find_compiler(), "-mno-avx"]):
        monkeypatch.setenv("CC", shlex.join(cc))
        monkeypatch.setattr(kernels, "_KERNELS", {})
        expect_backend("c", 4)
    assert len(cached_files()) == 2


def test_publishing_keeps_the_newest_objects_of_each_length(fresh_kernels):
    if not c_works():
        pytest.skip("no working C compiler")
    path = Path(os.environ["XDG_CACHE_HOME"], "mindht")
    path.mkdir(mode=0o700)
    # objects of other keys, as other compilers or versions leave them
    old = [path / f"mindht_dht4-{i:032x}{_cgen._EXT_SUFFIX}" for i in range(_cgen._KEEP)]
    other = path / f"mindht_dht24-{0:032x}{_cgen._EXT_SUFFIX}"
    for age, p in enumerate([*old, other]):
        p.write_bytes(b"an older object")
        os.utime(p, (1e9 + age, 1e9 + age))
    expect_backend("c", 4)
    new = sorted(set(cached_files()) - {*old, other})
    assert len(new) == 1
    assert cached_files() == sorted([*old[1:], *new, other])  # the oldest of length 4 went


def test_the_key_holds_the_instruction_set_the_compiler_targets(fresh_kernels, monkeypatch,
                                                                tmp_path):
    # one compiler command whose target changes: only the macros of its ISA
    # probe tell the two objects apart
    if not c_works():
        pytest.skip("no working C compiler")
    real = shlex.join(_cgen.find_compiler())
    probe = subprocess.run(f"{real} -march=native -E -dM -x c {os.devnull}", shell=True,
                           capture_output=True, text=True)
    if "__AVX__" not in probe.stdout:
        pytest.skip("the compiler does not target AVX here")
    cc = tmp_path / "cc"
    monkeypatch.setenv("CC", str(cc))
    for lowering in ("", " -mno-avx"):
        write_cc(cc, f'exec {real}{lowering} "$@"')
        monkeypatch.setattr(kernels, "_KERNELS", {})
        monkeypatch.setattr(_cgen, "_probes", {})  # each rewrite stands for a new process
        expect_backend("c", 4)
    assert len(cached_files()) == 2


def test_loads_that_start_together_run_one_isa_probe(fresh_kernels, monkeypatch, tmp_path):
    if not c_works():
        pytest.skip("no working C compiler")
    log = tmp_path / "cc.log"
    cc = write_cc(tmp_path / "logging-cc",
                  f'echo "$*" >> "{log}"\nexec {shlex.join(_cgen.find_compiler())} "$@"')
    monkeypatch.setenv("CC", str(cc))
    for n in SUPPORTED_SIZES:  # a warm cache
        expect_backend("c", n)
    log.unlink()
    monkeypatch.setattr(kernels, "_KERNELS", {})
    monkeypatch.setattr(_cgen, "_probes", {}, raising=False)  # as in a new process
    start = threading.Barrier(len(SUPPORTED_SIZES))
    backends = {}

    def load(n):
        start.wait()
        backends[n] = kernels._backend(n)

    threads = [threading.Thread(target=load, args=(n,)) for n in SUPPORTED_SIZES]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert backends == {n: "c" for n in SUPPORTED_SIZES}
    probes = log.read_text().splitlines()
    assert len(probes) == 1 and probes[0].endswith(f"-E -dM -x c {os.devnull}")


def test_racing_processes_fill_one_cache(tmp_path):
    x = np.random.default_rng(101).uniform(-1.0, 1.0, (24, 40))
    np.save(tmp_path / "x.npy", x)
    code = (
        "import sys, numpy as np\n"
        "from mindht import kernels\n"
        "x = np.load(sys.argv[1])\n"
        "np.save(sys.argv[2], np.concatenate([kernels.kernel_flow(n)(x[:n]) "
        "for n in (4, 8, 12, 24)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mindht.__file__).parents[1])}
    outs = [tmp_path / f"y{i}.npy" for i in range(2)]
    procs = [subprocess.Popen([sys.executable, "-c", code, str(tmp_path / "x.npy"), str(out)],
                              env=env, stderr=subprocess.PIPE, text=True) for out in outs]
    for proc in procs:
        proc.communicate(timeout=300)
        assert proc.returncode == 0
    want = np.concatenate([scalar_columns(n, x[:n]) for n in SUPPORTED_SIZES])
    assert all(same_bits(np.load(out), want) for out in outs)
    names = [p.name for p in cached_files()]  # four objects and no temporary file
    suffix = re.escape(_cgen._EXT_SUFFIX)
    assert all(re.fullmatch(rf"mindht_dht(4|8|12|24)-[0-9a-f]{{32}}{suffix}", n) for n in names)
    assert len(names) == (4 if c_works() else 0)


def falls_back_on_both_paths(seed):
    """Every N runs the replay for arrays and the Python function for one block."""
    for n in SUPPORTED_SIZES:
        x = np.random.default_rng(n + seed).uniform(-1.0, 1.0, (n, 50))
        assert same_bits(kernel_flow(n)(x), scalar_columns(n, x))
        assert kernels._backend(n) == "replay"
        kernels._load_c_block(kernels._kernel(n))  # what the background compile runs
        assert not uses_c_block(n)
        assert fast_dht(x[:, 0]).tobytes() == _frozen_fast_dht(x[:, 0], n).tobytes()


def test_failing_compiler_falls_back_with_one_warning(fresh_kernels, monkeypatch):
    monkeypatch.setenv("CC", "/bin/false")
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        falls_back_on_both_paths(61)
    assert [w.category for w in seen] == [RuntimeWarning]
    assert "kernel_flow runs the NumPy replay" in str(seen[0].message)
    assert "fast_dht the Python kernel" in str(seen[0].message)
    assert cached_files() == []


def test_compiler_refusing_march_native_gets_no_cache_and_one_warning(fresh_kernels, monkeypatch,
                                                                      tmp_path):
    if _cgen.find_compiler() is None:
        pytest.skip("no C compiler")
    real = shlex.join(_cgen.find_compiler())
    cc = write_cc(tmp_path / "cc", f'case "$*" in *-march=native*) exit 1;; esac\nexec {real} "$@"')
    monkeypatch.setenv("CC", str(cc))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        falls_back_on_both_paths(62)
    assert [w.category for w in seen] == [RuntimeWarning]
    assert "compiling the length-4 kernel failed (exit status 1)" in str(seen[0].message)
    assert cached_files() == []


def test_missing_python_header_falls_back_with_one_warning(fresh_kernels, monkeypatch, tmp_path):
    monkeypatch.setattr(sysconfig, "get_paths", lambda: {"include": str(tmp_path)})
    if _cgen.find_compiler() is None:  # the header is looked up once a compiler is found
        monkeypatch.setenv("CC", "/bin/false")
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        falls_back_on_both_paths(63)
    assert [w.category for w in seen] == [RuntimeWarning]
    assert f"Python.h not found in {tmp_path}" in str(seen[0].message)


def test_missing_numpy_header_falls_back_with_one_warning(fresh_kernels, monkeypatch, tmp_path):
    monkeypatch.setattr(np, "get_include", lambda: str(tmp_path))
    if _cgen.find_compiler() is None:  # the headers are looked up once a compiler is found
        monkeypatch.setenv("CC", "/bin/false")
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        falls_back_on_both_paths(65)
    assert [w.category for w in seen] == [RuntimeWarning]
    assert f"numpy/arrayobject.h not found in {tmp_path}" in str(seen[0].message)


def test_missing_compiler_falls_back_with_one_warning(fresh_kernels, monkeypatch):
    monkeypatch.setenv("CC", "no-such-compiler-anywhere")
    assert _cgen.find_compiler() is None
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        falls_back_on_both_paths(67)
    assert len(seen) == 1 and "no C compiler" in str(seen[0].message)


def test_overlapping_failing_loads_warn_once(fresh_kernels, monkeypatch):
    # each length's load runs under its own record's load lock, so four
    # failing loads overlap; the one-warning latch must still warn once
    barrier = threading.Barrier(len(SUPPORTED_SIZES), timeout=30)

    def no_compiler_once_all_load():
        barrier.wait()
        return None

    class SlowFalse:  # a falsy _closing that yields between the latch's test and its set
        def __bool__(self):
            time.sleep(0.01)
            return False

    monkeypatch.setattr(_cgen, "find_compiler", no_compiler_once_all_load)
    monkeypatch.setattr(_cgen, "_closing", SlowFalse())
    xs = {n: np.random.default_rng(n + 69).uniform(-1.0, 1.0, (n, 20)) for n in SUPPORTED_SIZES}
    got, errors = {}, []

    def call(n):
        try:
            got[n] = kernel_flow(n)(xs[n])
        except Exception as e:
            errors.append(e)

    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        threads = [threading.Thread(target=call, args=(n,)) for n in SUPPORTED_SIZES]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert [w.category for w in seen] == [RuntimeWarning]
    assert "no C compiler" in str(seen[0].message)
    for n in SUPPORTED_SIZES:
        assert same_bits(got[n], scalar_columns(n, xs[n]))
        assert kernels._KERNELS[n].module is None


def test_load_check_passes_wherever_the_compiler_works(fresh_kernels):
    # c_works() is False both without a compiler and when the load check drops
    # a faulty object, so the check's verdict on sound source is pinned here
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        for n in SUPPORTED_SIZES:
            kernels._backend(n)
    assert not [w for w in seen if "disagreed with the replay" in str(w.message)]


def test_tampered_object_is_rejected_by_the_load_check(fresh_kernels, monkeypatch):
    if not c_works():
        pytest.skip("no working C compiler")
    real_source = _cgen.source
    x = np.random.default_rng(71).uniform(-1.0, 1.0, (8, 30))
    # the first + of the batch body, then of the block body, then the list
    # read of block and dft reversed (which only its list form sees), then the
    # sign of dft's imaginary parts
    for marker, old, new in (("vd y0", " + ", " - "), ("double y0", " + ", " - "),
                             ("PyFloat_AS_DOUBLE", "items[i]", "items[N - 1 - i]"),
                             ("p[2 * k + 1]", "z - d", "d - z")):

        def tampered(prog):
            src = real_source(prog)
            cut = src.index(old, src.index(marker))
            return src[:cut] + new + src[cut + len(old):]

        monkeypatch.setattr(_cgen, "source", tampered)
        monkeypatch.setattr(kernels._kernel(8), "module", kernels._UNTRIED)
        monkeypatch.setattr(_cgen, "_warned", False)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert same_bits(kernel_flow(8)(x), scalar_columns(8, x))
            assert kernels._backend(8) == "replay"
            kernels._load_c_block(kernels._kernel(8))
            assert not uses_c_block(8) and not uses_c_dft(8)
            assert fast_dht(x[:, 0]).tobytes() == scalar_columns(8, x)[:, 0].tobytes()
        assert len(seen) == 1 and "disagreed with the replay" in str(seen[0].message)


def test_source_compiles_only_where_double_arithmetic_rounds_to_double(tmp_path):
    if not c_works():
        pytest.skip("no working C compiler")
    src = _cgen.source(kernels._kernel(8).prog)

    def compiles(method):
        cmd = [*_cgen.find_compiler(), *_cgen._include_flags(), "-U__FLT_EVAL_METHOD__",
               f"-D__FLT_EVAL_METHOD__={method}", *_cgen.FLAGS, "-o", str(tmp_path / "k.so"),
               "-x", "c", "-"]
        done = subprocess.run(cmd, input=src, text=True, capture_output=True)
        assert done.returncode == 0 or "must round to double" in done.stderr
        return done.returncode == 0

    assert not compiles(2)  # long double evaluation, as on x87
    assert not compiles(-1)  # indeterminable
    assert compiles(16)  # gcc with AVX512-FP16: _Float16 in float, double in double


def test_threads_load_each_kernel_once(fresh_kernels, monkeypatch):
    loads = []
    real_load = _cgen.load

    def counted(prog, fn):
        loads.append(prog.n)
        return real_load(prog, fn)

    def slowed(flow):
        def slow(v):  # widens the window between a cold-cache check and its fill
            time.sleep(0.02)
            return flow(v)

        return slow

    emitted = []
    real_emit = replay._emit

    def counted_emit(prog):
        emitted.append(prog.n)
        return real_emit(prog)

    monkeypatch.setattr(_cgen, "load", counted)
    xs = {n: np.random.default_rng(n + 73).uniform(-1.0, 1.0, (n, 600)) for n in SUPPORTED_SIZES}
    want = {n: scalar_columns(n, x) for n, x in xs.items()}
    for n in SUPPORTED_SIZES:
        monkeypatch.setitem(kernels._FLOWS, n, slowed(kernels._FLOWS[n]))
    monkeypatch.setattr(replay, "_emit", counted_emit)
    bad = []

    # the fast_dht calls cross the threshold while the array calls load: the
    # background compiles race them
    monkeypatch.setattr(kernels, "COMPILE_AFTER", 7)

    def work():
        for n in SUPPORTED_SIZES:
            for j in range(3):
                if fast_dht(xs[n][:, j]).tobytes() != want[n][:, j].tobytes():
                    bad.append(n)
            if not same_bits(kernel_flow(n)(xs[n]), want[n]):
                bad.append(n)
            if fast_dht(xs[n][:, 1]).tobytes() != want[n][:, 1].tobytes():
                bad.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        join_compiles()
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []
    assert sorted(loads) == list(SUPPORTED_SIZES)  # each kernel compiled (or tried) once
    assert sorted(emitted) == list(SUPPORTED_SIZES)  # the load check emitted none again
    for n in SUPPORTED_SIZES:
        assert uses_c_block(n) == c_works()
        assert fast_dht(xs[n][:, 2]).tobytes() == want[n][:, 2].tobytes()


# --- single-block C path: block() of the same extension module ---


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_c_block_matches_the_emitted_function_on_the_check_batch(n):
    x = _cgen._check_batch(n)  # signed zeros, subnormals, magnitudes 1e-300..1e300
    fn = kernels._kernel(n).fn
    want = [np.array(fn(v.tolist())).tobytes() for v in x.T]
    for path in ONE_BLOCK_PATHS:
        with one_block_path(path):
            expect_block(path, n)
            assert [fast_dht(v).tobytes() for v in x.T] == want  # strided columns
            assert [fast_dht(v.tolist()).tobytes() for v in x.T] == want


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_c_block_rejects_non_finite_samples(n):
    for path in ONE_BLOCK_PATHS:
        with one_block_path(path), pytest.MonkeyPatch.context() as mp:
            if uses_c_block(n):  # then only C may raise
                mp.setattr(kernels, "read_block", None)
            for i in range(n):
                for bad in (np.inf, -np.inf, np.nan):
                    v = np.ones(n)
                    v[i] = bad
                    with pytest.raises(ValueError, match="^signal contains non-finite samples$"):
                        fast_dht(v)


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_c_block_takes_strided_read_only_and_other_dtype_input(n):
    rng = np.random.default_rng(n + 83)
    base = rng.uniform(-1.0, 1.0, 2 * n)
    frozen = base[:n].copy()
    frozen.flags.writeable = False
    raw = np.zeros(n * 8 + 4, np.uint8)
    unaligned = np.ndarray((n,), float, raw, offset=4)
    unaligned[...] = base[:n]
    inputs = [base[::2], base[::-2], frozen, unaligned, rng.integers(-1000, 1000, n),
              base[:n].astype(np.float32), base[:n].astype(">f8")]
    want = [_frozen_fast_dht(v, n).tobytes() for v in inputs]
    for path in ONE_BLOCK_PATHS:
        with one_block_path(path):
            expect_block(path, n)
            assert [fast_dht(v).tobytes() for v in inputs] == want
            # a bool array is not numbers (layers.check_kind)
            with pytest.raises(TypeError, match="^signal must hold real numbers, got dtype bool$"):
                fast_dht(rng.random(n) < 0.5)
    assert not frozen.flags.writeable and np.array_equal(frozen, base[:n])


class _Subclass(np.ndarray):
    """An ndarray subclass, which C ``read_block`` reads through PEP 3118."""


def one_block_inputs():
    """For the C entry points of length 8: argument tuples of the wrong length,
    inputs they decline, and inputs they take (all of them eight ones).

    Exact ndarrays are read through NumPy's C API, every other buffer (a
    subclass, a memoryview) through PEP 3118; both branches decline a 0-d
    array, a wider long double and a swapped byte order."""
    x, y = np.ones(8), np.empty(8)
    frozen = np.empty(8)
    frozen.flags.writeable = False
    floats = [1.0] * 8
    # a second argument, such as an output buffer of any shape, dtype, stride
    # or writeability, is a TypeError
    wrong_args = ((), (x, y), (x, y, y), (x, np.empty(4)), (x, np.empty(8, np.int64)),
                  (x, np.empty(16)[::2]), (x, frozen))
    declined = (np.ones(4), np.ones((2, 8)), x.astype(np.float32), x.astype(">f8"),
                np.float64(1.0), memoryview(x.astype(np.float32)), b"\0" * 64, "12345678", None,
                floats[:7], floats + [1.0], [1] * 8, [True] * 8, [np.float64(1.0)] * 8,
                ["1.0"] * 8, [floats], (1.0,) * 7, floats[:7] + [1], floats[:7] + [np.float64(1)],
                np.array(1.0), x.view(_Subclass).astype(">f8"))
    if np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant:
        declined += (x.astype(np.longdouble), memoryview(x.astype(np.longdouble)))
    taken = (x, floats, tuple(floats), memoryview(x), np.ones(16)[::2], np.ones(16)[::-2],
             np.broadcast_to(1.0, 8), x.view(_Subclass), np.ones(16).view(_Subclass)[::-2])
    return wrong_args, declined, taken


def test_c_block_refuses_wrong_buffers():
    if not c_works():
        pytest.skip("no working C compiler")
    block = kernels._load_c_block(kernels._kernel(8)).block
    wrong_args, declined, taken = one_block_inputs()
    # block(v) makes its own result
    for args in wrong_args:
        with pytest.raises(TypeError, match=r"^block\(\) takes 1 argument"):
            block(*args)
    # an input it does not take is handed back to fast_dht's conversion
    for v in declined:
        assert block(v) is NotImplemented
    want = fast_dht(np.ones(8)).tobytes()
    for v in taken:
        out = block(v)
        assert type(out) is np.ndarray and out.tobytes() == want


def one_block_outcome(*args, call=fast_dht):
    """call's result bytes (fast_dht's by default), or its exception's type and message."""
    try:
        out = call(*args)
    except Exception as e:
        return type(e), str(e)
    return out.dtype, out.shape, out.tobytes()


def read_block_outcomes(v, n=8):
    """What run_counted and pre_addition_state make of (v, n), as fast_dht's
    outcome: the spectrum run_counted counts, and fast_dht of the floats
    pre_addition_state reads as its order-0 state."""
    return (
        one_block_outcome(v, call=lambda v: counting.run_counted(n, v)[0]),
        one_block_outcome(v, call=lambda v: fast_dht(pre_addition_state(v, n, 0).values)),
    )


@contextmanager
def c_takes_lists(n):
    """Under the C block, make any use of NumPy or of the Python reader in
    mindht.kernels fail, so a call that still succeeds (or raises a
    ValueError) went to C on the raw list."""
    with pytest.MonkeyPatch.context() as mp:
        if uses_c_block(n):
            mp.setattr(kernels, "np", None)
            mp.setattr(kernels, "read_block", None)
        yield


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_list_input_matches_array_input_bit_for_bit(n):
    rng = np.random.default_rng(n + 101)
    x = np.concatenate([_cgen._check_batch(n)[:, :12], rng.uniform(-1e3, 1e3, (n, 4))], axis=1)
    want = [_frozen_fast_dht(v, n).tobytes() for v in x.T]
    for path in ONE_BLOCK_PATHS:
        with one_block_path(path):
            expect_block(path, n)
            assert [fast_dht(v).tobytes() for v in x.T] == want
            assert [fast_dht(np.ascontiguousarray(v), n).tobytes() for v in x.T] == want
            with c_takes_lists(n):
                assert [fast_dht(v.tolist()).tobytes() for v in x.T] == want
                assert [fast_dht(v.tolist(), n).tobytes() for v in x.T] == want
                assert [fast_dht(tuple(v.tolist())).tobytes() for v in x.T] == want


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_one_block_result_is_a_fresh_float64_array(n):
    v = np.random.default_rng(n + 103).uniform(-1.0, 1.0, n)
    for path in ONE_BLOCK_PATHS:
        with one_block_path(path):
            expect_block(path, n)
            outs = [fast_dht(v.tolist()), fast_dht(v), fast_dht(v[::-1])]
            for out in outs:
                assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == (n,)
                assert out.flags.c_contiguous and out.flags.writeable and out.flags.owndata
                assert out.base is None
            outs[0][0] = 7.0  # writing into a result reaches no other result
            assert fast_dht(v.tolist()).tobytes() == outs[1].tobytes()


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_non_finite_list_samples_are_rejected_in_c(n):
    for path in ONE_BLOCK_PATHS:
        with one_block_path(path), c_takes_lists(n):
            for i in range(n):
                for bad in (math.inf, -math.inf, math.nan):
                    v = [1.0] * n
                    v[i] = bad
                    with pytest.raises(ValueError, match="^signal contains non-finite samples$"):
                        fast_dht(v)
                    with pytest.raises(ValueError, match="^signal contains non-finite samples$"):
                        fast_dht(tuple(v), n)


def test_inputs_the_c_block_does_not_take_get_the_same_result_or_error():
    floats = np.random.default_rng(107).uniform(-1.0, 1.0, 8).tolist()
    strings = ["1.5", "-2", "3e-3", "4", "5", "6", "7", "8"]
    cases = {
        "ints": ([3, -1, 4, 1, -5, 9, 2, 6],),
        "bools": ([True, False] * 4,),
        "np.float64 items": ([np.float64(f) for f in floats],),
        "numeric strings": (strings,),
        "mixed int and float": (floats[:7] + [1],),
        "tuple": (tuple(floats),),
        "nested list": ([floats],),
        "too long": (floats + [1.0],),
        "too short": (floats[:7],),
        "n too small": (floats, 4),
        "float n": (floats, 8.0),
        "np.float64 n": (floats, np.float64(8)),
        "string n": (floats, "8"),
        "bool n": (floats[:1], True),
        "np.int64 n": (floats, np.int64(8)),
        "float32 array": (np.array(floats, np.float32),),
        "big-endian array": (np.array(floats, ">f8"),),
        "string": ("12345678",),
        "scalar": (1.0,),
    }
    got = {}
    for path in ONE_BLOCK_PATHS:
        with one_block_path(path):
            expect_block(path, 8)
            got[path] = {name: one_block_outcome(*args) for name, args in cases.items()}
    assert got["c"] == got["python"]
    today = got["python"]
    with one_block_path("python"):  # the Python reader takes each block the same way
        for name, args in cases.items():
            v, n = (*args, 8)[:2]
            assert read_block_outcomes(v, n) == (one_block_outcome(v, n),) * 2, name
    assert today["ints"] == one_block_outcome(np.array(cases["ints"][0], float))
    # bools and strings are not numbers (layers.check_kind)
    assert today["bools"] == (TypeError, "signal must hold real numbers, got dtype bool")
    assert today["numeric strings"] == (TypeError, "signal must hold real numbers, got dtype <U4")
    assert today["string"] == (TypeError, "signal must hold real numbers, got dtype <U8")
    assert today["np.float64 items"] == today["tuple"] == today["np.int64 n"]
    assert today["np.float64 items"] == one_block_outcome(np.array(floats))
    assert today["nested list"] == (UnsupportedLengthError, "signal must be 1-D, got shape (1, 8)")
    assert today["too long"] == (
        UnsupportedLengthError, "block length 9 is not supported; valid lengths are 4, 8, 12, 24")
    assert today["n too small"] == (
        UnsupportedLengthError, f"signal has shape (8,), expected (4,); {_LENGTHS}")
    for name in ("float n", "np.float64 n", "string n"):
        assert today[name][0] is UnsupportedLengthError
        assert "block length must be an integer" in today[name][1]
    assert today["bool n"] == (
        UnsupportedLengthError,
        "block length True is not supported; valid lengths are 4, 8, 12, 24",
    )


# --- the DFT bridge in C: dft() of the same extension module ---

# Samples whose mirrored sums and differences overflow to inf, and then give nan.
OVERFLOWING = st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308])


def uses_c_dft(n):
    return kernels._kernel(n).dft is not None


def expect_dft(name, n):
    assert uses_c_dft(n) == (name == "c" and c_works())


@contextmanager
def c_takes_spectra(n):
    """Under the C dft, make any use of NumPy or of the one reader in
    mindht.reference fail, so a call that still succeeds (or raises a
    ValueError) went to C on the raw input."""
    c_works()  # its first call loads a module, whose check runs the NumPy bridge
    with pytest.MonkeyPatch.context() as mp:
        if uses_c_dft(n):
            mp.setattr(reference, "np", None)
            mp.setattr(reference, "read_samples", None)
        yield


@settings(max_examples=300, deadline=None)
@given(spectra(st.one_of(SPECTRUM_SAMPLES, OVERFLOWING)))
def test_c_dft_matches_the_numpy_bridge_bit_for_bit(V):
    n = len(V)
    got = {}
    for path in ONE_BLOCK_PATHS:
        with one_block_path(path), warnings.catch_warnings():
            warnings.simplefilter("error")
            expect_dft(path, n)
            with c_takes_spectra(n):
                outs = [dht_to_dft(s) for s in (V, tuple(V), np.array(V), np.repeat(V, 2)[::2])]
            got[path] = [(out.dtype, out.shape, out.tobytes()) for out in outs]
    assert got["c"] == got["python"]  # NaN bits included
    assert got["python"][0][:2] == (np.complex128, (n,))


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_c_dft_overflowing_sums_give_the_same_bits_without_a_warning(n):
    # bin 0 and bin n/2 overflow in V[k] + V[N-k], the others in V[k] - V[N-k],
    # whose 0 * inf is nan
    V = [1.7e308] * (n // 2) + [-1.7e308] * (n // 2)
    got = {}
    for path in ONE_BLOCK_PATHS:
        with one_block_path(path), warnings.catch_warnings():
            warnings.simplefilter("error")
            expect_dft(path, n)
            got[path] = [dht_to_dft(s).tobytes() for s in (V, np.array(V))]
    assert got["c"] == got["python"]
    out = np.frombuffer(got["python"][0], np.complex128)
    assert np.isinf(out.real[0]) and np.isnan(out.real[1]) and np.isnan(out.imag[1])


@pytest.mark.parametrize("V", [V for V, _ in NEAR_OVERFLOW])
def test_c_dft_near_overflow_gives_the_same_bits_without_a_warning(V):
    # whether or not the NumPy bridge enters np.errstate for V
    want = bridge_in_python_floats(V).tobytes()
    for path in ONE_BLOCK_PATHS:
        with one_block_path(path), warnings.catch_warnings():
            warnings.simplefilter("error")
            expect_dft(path, len(V))
            assert [dht_to_dft(s).tobytes() for s in (V, np.array(V))] == [want] * 2


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_c_dft_result_is_a_fresh_complex128_array(n):
    V = fast_dht(np.random.default_rng(n + 109).uniform(-1.0, 1.0, n))
    for path in ONE_BLOCK_PATHS:
        with one_block_path(path):
            expect_dft(path, n)
            outs = [dht_to_dft(V.tolist()), dht_to_dft(V), dht_to_dft(V[::-1])]
            for out in outs:
                assert type(out) is np.ndarray and out.dtype == np.complex128 and out.shape == (n,)
                assert out.flags.c_contiguous and out.flags.writeable and out.flags.owndata
                assert out.base is None
            outs[0][0] = 7.0  # writing into a result reaches no other result
            assert dht_to_dft(V.tolist()).tobytes() == outs[1].tobytes()


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_c_dft_rejects_non_finite_samples_at_every_position(n):
    for path in ONE_BLOCK_PATHS:
        with one_block_path(path), c_takes_spectra(n):
            expect_dft(path, n)
            for i in range(n):
                for bad in (math.inf, -math.inf, math.nan):
                    V = [1.0] * n
                    V[i] = bad
                    for spectrum in (V, tuple(V), np.array(V)):
                        with pytest.raises(ValueError,
                                           match="^spectrum contains non-finite samples$"):
                            dht_to_dft(spectrum)


def dft_outcome(V):
    """dht_to_dft's result bytes, or its exception's type and message, and the
    warnings it gave."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            out = dht_to_dft(V)
        except Exception as e:
            result = type(e), str(e)
        else:
            result = out.dtype, out.shape, out.tobytes()
    return result, [(w.category, str(w.message)) for w in seen]


def test_inputs_the_c_dft_does_not_take_get_the_same_result_or_error():
    V = fast_dht(np.random.default_rng(113).uniform(-1.0, 1.0, 8)).tolist()
    strings = ["1.5", "-2", "3e-3", "4", "5", "6", "7", "8"]
    cases = {  # made anew for each call: a generator is used up by one
        "ints": lambda: [3, -1, 4, 1, -5, 9, 2, 6],
        "bools": lambda: [True, False] * 4,
        "np.float64 items": lambda: [np.float64(f) for f in V],
        "numeric strings": lambda: strings,
        "complex array": lambda: np.array(V) + 2j,
        "2-D (n, n)": lambda: np.ones((8, 8)),
        "too long": lambda: V + [1.0],
        "0-d array": lambda: np.array(1.0),
        "generator": lambda: (f for f in V),
    }
    got = {}
    for path in ONE_BLOCK_PATHS:
        with one_block_path(path):
            expect_dft(path, 8)
            got[path] = {name: dft_outcome(make()) for name, make in cases.items()}
    assert got["c"] == got["python"]
    today = got["python"]
    assert today["ints"] == dft_outcome(np.array(cases["ints"](), float))
    assert today["np.float64 items"] == dft_outcome(np.array(V))
    # bools, strings and complex values are refused by the kind rule
    # (layers.check_kind) without a warning; the imaginary part is not dropped
    for name, dtype in (("bools", "bool"), ("numeric strings", "<U4"),
                        ("complex array", "complex128"), ("generator", "object")):
        assert today[name] == ((TypeError, f"spectrum must hold real numbers, got dtype {dtype}"),
                               [])
    assert today["too long"] == (dft_outcome(np.array(V + [1.0]))[0], [])
    assert today["too long"][0][1] == (9,)
    for name, shape in (("2-D (n, n)", "(8, 8)"), ("0-d array", "()")):
        message = f"spectrum must be 1-D, got shape {shape}"
        assert today[name] == ((UnsupportedLengthError, message), [])


def test_c_dft_takes_what_c_block_takes():
    if not c_works():
        pytest.skip("no working C compiler")
    dft = kernels._load_c_block(kernels._kernel(8)).dft
    wrong_args, declined, taken = one_block_inputs()
    for args in wrong_args:
        with pytest.raises(TypeError, match=r"^dft\(\) takes 1 argument"):
            dft(*args)
    for v in declined:
        assert dft(v) is NotImplemented
    want = reference._dft_bridge(np.ones(8)).tobytes()
    for v in taken:
        out = dft(v)
        assert type(out) is np.ndarray and out.tobytes() == want


def test_c_block_and_c_dft_keep_no_buffer_information_on_a_float64_array():
    # the PEP 3118 export of an ndarray leaves 72 bytes of buffer information
    # on it for its lifetime; NumPy's C API leaves none
    if not c_works():
        pytest.skip("no working C compiler")
    k = kernels._kernel(8)
    kernels._load_c_block(k)
    V = np.random.default_rng(127).uniform(-1.0, 1.0, 8)
    spectrum, block = k.dft(V.copy()), k.c(V.copy())  # warm, on other arrays
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        same = (k.dft(V).tobytes() == spectrum.tobytes(), k.c(V).tobytes() == block.tobytes())
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert same == (True, True)
    assert left == 0


def test_c_block_load_check_reads_each_column_through_both_branches():
    # a module whose PEP 3118 branch alone is wrong fails the load check
    if not c_works():
        pytest.skip("no working C compiler")
    k = kernels._kernel(8)
    module = kernels._load_c_block(k)

    def wrong_on(kind, entry):
        return lambda v: -entry(v) if isinstance(v, kind) else entry(v)

    assert _cgen._agrees(k.prog, k.fn, module)
    for kind in (memoryview, np.ndarray, list):
        for name in ("block", "dft"):
            entries = {"batch": module.batch, "block": module.block, "dft": module.dft}
            entries[name] = wrong_on(kind, entries[name])
            assert not _cgen._agrees(k.prog, k.fn, SimpleNamespace(**entries)), (kind, name)


def test_c_dft_never_starts_a_compile(fresh_kernels, monkeypatch):
    monkeypatch.setattr(kernels, "COMPILE_AFTER", 2)
    V = {n: fast_dht(np.ones(n)) for n in SUPPORTED_SIZES}  # one call per record
    for n in SUPPORTED_SIZES:
        for _ in range(5):
            dht_to_dft(V[n])
            dht_to_dft(V[n].tolist())
        k = kernels._KERNELS[n]
        assert k.calls == 1 and k.module is kernels._UNTRIED and k.dft is None
    assert not [t for t in threading.enumerate() if t.name.startswith("mindht-compile")]


def test_an_array_call_that_loads_the_module_swaps_block_and_dft_in(fresh_kernels, monkeypatch):
    c = c_works()
    with warnings.catch_warnings(record=True):  # the one fallback warning, without C
        kernel_flow(8)(np.ones((8, 4)))
    k = kernels._KERNELS[8]
    assert k.calls == 0 and uses_c_block(8) == uses_c_dft(8) == c
    if c:  # no one-block call has run, yet neither goes through NumPy

        def bridge(V):
            raise AssertionError("dht_to_dft ran the NumPy bridge")

        monkeypatch.setattr(reference, "_dft_bridge", bridge)
        monkeypatch.setattr(kernels, "np", None)
    for x, y in GOLDEN[8]:
        assert fast_dht(x).tobytes() == np.array(y).tobytes()
        assert dht_to_dft(y).tobytes() == bridge_in_python_floats(y).tobytes()
    assert k.calls == (0 if c else len(GOLDEN[8]))


def test_replaced_flow_after_the_swap_runs_its_own_program(monkeypatch):
    v = np.random.default_rng(89).uniform(-1.0, 1.0, 8)
    with one_block_path("c"):
        expect_block("c", 8)
        good = fast_dht(v)

        def bad(v):
            out = kernels.dht8_flow(v)
            out[0] = 0.9999999 * out[0]
            return out

        monkeypatch.setitem(kernels._FLOWS, 8, bad)
        out = fast_dht(v)
        assert not uses_c_block(8)  # the new program runs until its own compile
        assert out[0] == 0.9999999 * good[0] and out[1:].tobytes() == good[1:].tobytes()
        kernels._load_c_block(kernels._kernel(8))
        expect_block("c", 8)
        assert fast_dht(v).tobytes() == out.tobytes()


def test_compile_starts_in_the_background_at_the_threshold(fresh_kernels, monkeypatch):
    monkeypatch.setattr(kernels, "COMPILE_AFTER", 5)
    loads, release = [], threading.Event()
    real_load = _cgen.load

    def held(prog, fn):
        loads.append(prog.n)
        assert release.wait(timeout=60)
        return real_load(prog, fn)

    monkeypatch.setattr(_cgen, "load", held)
    v = np.random.default_rng(97).uniform(-1.0, 1.0, 12)
    want = fast_dht(v).tobytes()  # call 1
    for _ in range(3):
        assert fast_dht(v).tobytes() == want
    time.sleep(0.05)
    assert loads == [] and "mindht-compile-n12" not in [t.name for t in threading.enumerate()]
    assert fast_dht(v).tobytes() == want  # call 5 starts the compile and does not wait for it
    for _ in range(50):
        if loads:
            break
        time.sleep(0.01)
    assert loads == [12]
    # an array call meanwhile waits for the same load instead of compiling again
    x = np.random.default_rng(98).uniform(-1.0, 1.0, (12, 40))
    got = []
    array_call = threading.Thread(target=lambda: got.append(kernel_flow(12)(x)))
    array_call.start()
    for _ in range(100):
        assert fast_dht(v).tobytes() == want and not uses_c_block(12)
    assert array_call.is_alive()
    release.set()
    array_call.join(timeout=120)
    join_compiles()
    assert not array_call.is_alive() and loads == [12]
    assert same_bits(got[0], scalar_columns(12, x))
    expect_block("c", 12)
    assert fast_dht(v).tobytes() == want


def compile_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("mindht-compile")]


def test_array_blocks_count_toward_the_background_compile(fresh_kernels, monkeypatch):
    # one compile policy: blocks run by either fast_dht route count toward
    # COMPILE_AFTER, and the call that crosses it starts one background
    # compile and returns without waiting for it
    monkeypatch.setattr(kernels, "COMPILE_AFTER", 10)
    release = threading.Event()
    real_load = _cgen.load

    def held(prog, fn):
        assert release.wait(timeout=60)
        return real_load(prog, fn)

    monkeypatch.setattr(_cgen, "load", held)
    rng = np.random.default_rng(233)
    x = rng.uniform(-1.0, 1.0, (4, 8))
    v = rng.uniform(-1.0, 1.0, 8)
    want, one = per_block(x, -1), fast_dht(v)  # 5 one-block calls, by Python
    try:
        assert same_bits(fast_dht(x), want)  # 9 blocks, the last 4 by the replay
        k = kernels._KERNELS[8]
        assert k.calls == 9 and k.module is kernels._UNTRIED and compile_threads() == []
        assert fast_dht(v).tobytes() == one.tobytes()  # 10: one-block calls count too
        assert compile_threads() == ["mindht-compile-n8"]
        for _ in range(3):  # past the threshold: no second compile, no wait
            assert same_bits(fast_dht(x), want) and k.module is kernels._UNTRIED
        assert k.calls == 22 and compile_threads() == ["mindht-compile-n8"]
        fast_dht(np.zeros((9, 12)))  # 9 blocks of 12
        assert compile_threads() == ["mindht-compile-n8"]
        fast_dht(np.zeros((30, 12)))  # one call crossing the threshold by many
        assert sorted(compile_threads()) == ["mindht-compile-n12", "mindht-compile-n8"]
    finally:
        release.set()
        join_compiles()
    expect_block("c", 8)
    expect_block("c", 12)
    assert same_bits(fast_dht(x), want)


def test_loads_of_different_lengths_overlap(fresh_kernels, monkeypatch):
    # each record has its own load lock: while N = 24's background load is
    # held, an array call of N = 8 loads in its caller's thread, and the
    # background compile of N = 4 runs next to N = 24's
    c_works()
    monkeypatch.setattr(kernels, "COMPILE_AFTER", 3)
    release, lock = threading.Event(), threading.Lock()
    inside, beside = set(), {}  # lengths in _cgen.load now; those each found there
    real_load = _cgen.load

    def held(prog, fn):
        with lock:
            beside[prog.n] = set(inside)
            inside.add(prog.n)
        try:
            if prog.n == 24:
                assert release.wait(timeout=60)
            return real_load(prog, fn)
        finally:
            with lock:
                inside.discard(prog.n)

    monkeypatch.setattr(_cgen, "load", held)
    rng = np.random.default_rng(239)
    v24, v4, x = rng.uniform(-1.0, 1.0, 24), rng.uniform(-1.0, 1.0, 4), rng.uniform(-1.0, 1.0, (8, 40))
    want24, want4 = fast_dht(v24).tobytes(), fast_dht(v4).tobytes()
    try:
        for _ in range(2):  # call 3 starts N = 24's compile
            fast_dht(v24)
        for _ in range(500):
            if 24 in inside:
                break
            time.sleep(0.01)
        assert 24 in inside
        got = []
        caller = threading.Thread(target=lambda: got.append(kernel_flow(8)(x)))
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive() and 24 in inside
        assert same_bits(got[0], scalar_columns(8, x))
        expect_backend("c", 8)
        for _ in range(2):  # call 3 starts N = 4's compile
            assert fast_dht(v4).tobytes() == want4
        for t in threading.enumerate():
            if t.name == "mindht-compile-n4":
                t.join(timeout=60)
                assert not t.is_alive()
        assert beside == {24: set(), 8: {24}, 4: {24}} and inside == {24}
        expect_block("c", 4)
        assert fast_dht(v4).tobytes() == want4
    finally:
        release.set()
        join_compiles()
    expect_block("c", 24)
    assert fast_dht(v24).tobytes() == want24


def exit_during_compiles(tmp_path, lengths, hang="compile"):
    """Exit a process whose fast_dht calls have started the background loads of
    these lengths, each on a compiler that answers the ISA probe at once and
    never finishes the compile (or, with hang="probe", never finishes the
    probe), and check that every compiler is gone and the object directory
    with it."""
    pids = tmp_path / "pids"
    pids.mkdir()
    fake_cc = tmp_path / "slow-cc"
    answer_probe = 'case "$*" in *-dM*) exit 0;; esac\n' if hang == "compile" else ""
    # a compiler that never finishes; its pid stays the same through exec
    fake_cc.write_text(f"#!/bin/sh\n{answer_probe}"
                       f"echo $$ > {pids}/$$.tmp && mv {pids}/$$.tmp {pids}/$$\n"
                       "exec sleep 60\n")
    fake_cc.chmod(0o755)
    work = tmp_path / "tmp"
    work.mkdir()
    code = (
        "import sys, time\n"
        "from pathlib import Path\n"
        "import mindht\n"
        "from mindht import _cgen\n"
        f"vs = [[1.0] * n for n in {list(lengths)}]\n"
        "for v in vs:\n"
        "    for _ in range(mindht.kernels.COMPILE_AFTER):\n"
        "        mindht.fast_dht(v)\n"
        "deadline = time.monotonic() + 30\n"
        "# every compiler has started\n"
        "while len([p for p in Path(sys.argv[1]).iterdir() if p.suffix != '.tmp']) < len(vs):\n"
        "    assert time.monotonic() < deadline\n"
        "    time.sleep(0.01)\n"
        "if sys.argv[2] == 'compile':  # each compile has its object in the directory\n"
        "    assert len(list(_cgen._dir.iterdir())) == len(vs)\n"
        "else:  # no compile has started\n"
        "    assert _cgen._dir is None\n"
        "for v in vs:\n"
        "    mindht.fast_dht(v)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mindht.__file__).parents[1]),
           "TMPDIR": str(work), "CC": str(fake_cc)}
    try:
        done = subprocess.run([sys.executable, "-c", code, str(pids), hang], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""  # no warning about the killed compilers
        started = [int(p.name) for p in pids.iterdir() if p.suffix != ".tmp"]
        assert len(started) == len(lengths)
        for pid in started:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert list(work.iterdir()) == []
        assert not [p for p in cached_files() if p.name.startswith("mindht_dht")]
    finally:
        for p in pids.iterdir():
            try:
                os.kill(int(p.name.removesuffix(".tmp")), 9)
            except ProcessLookupError:
                pass


def test_exit_during_a_background_compile_leaves_no_compiler_or_directory(tmp_path):
    exit_during_compiles(tmp_path, [4])


def test_exit_during_four_background_compiles_leaves_no_compiler_or_directory(tmp_path):
    # one load lock per record: the four compilers run at once at exit
    exit_during_compiles(tmp_path, SUPPORTED_SIZES)


def test_exit_during_a_background_isa_probe_leaves_no_probe_or_directory(tmp_path):
    exit_during_compiles(tmp_path, [4], hang="probe")


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
    for order in (1.5, 1.0, "1", True, np.float64(1)):  # check_size's integer rule
        with pytest.raises(ValueError, match=re.escape(f"layer order {order!r} invalid for N=8")):
            pre_addition_state(np.zeros(8), 8, order)
    v = np.arange(8.0)
    assert pre_addition_state(v, 8, np.int64(1)).values.tobytes() == (
        pre_addition_state(v, 8, 1).values.tobytes())


def test_state_rejects_bad_length():
    with pytest.raises(UnsupportedLengthError):
        pre_addition_state(np.zeros(8), 12, 1)

"""Per-layer probes for the traced run, and the map from layer to end-to-end metric.

Each probe times one public mindht function on seeded inputs, outside any
workload loop.  Where a layer runs inside another public call (the flow
inside fast_dht, the pre-additions inside the flow, io and kernels inside
cli.main), the inner function is timed on the same inputs and the outer
layer's self time is reported as the difference, labelled ``derived``.
Counts come from count_ops and array sizes, labelled ``computed``; they must
repeat exactly.  Comparator rows (matmul, rfft) are never end-to-end metrics,
so NumPy or BLAS noise cannot fail a later change.

``LAYER_METRICS`` lists every per-layer metric with its unit, its kind
(measured, derived, computed, comparator) and the end-to-end metrics, as
``workload:metric``, that it should move and should leave unchanged.
"""

from __future__ import annotations

import io
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from mindht import cli, counting, derivation, io as mio, kernels, layers, reference
from common import EXPECTED_COUNTS, SIZES, columns_close
from workloads import Bulk, peak_mb

LAYERED = (8, 12, 24)  # sizes with pre-addition layers (N = 4 has none)
BATCHES = {"small": Bulk.SMALL_BLOCKS, "large": None}
SCALAR_REPS = 1001
ARRAY_REPS = {"small": 21, "large": 5}
SLOW_REPS = 5
FILE_REPS = 51
CLI_VERIFY_TRIALS = 50
FILE_N = 24

_SB_LIGHT = ["single-block:light_cost"]
_SB_HEAVY = ["single-block:heavy_cost"]
_SB_ALL = _SB_LIGHT + _SB_HEAVY
_BULK_SMALL = ["bulk:light_cost"]
_BULK_LARGE = ["bulk:heavy_cost"]
_BULK_ALL = _BULK_SMALL + _BULK_LARGE + ["bulk:peak_mb"]
_AUDIT = ["cli-audit:heavy_cost"]
_FILE_OPS = ["cli-audit:light_cost"]


def _metric(name, unit, kind, moves=(), holds=()):
    return {"name": name, "unit": unit, "kind": kind, "moves": list(moves), "holds": list(holds)}


def _layer_metrics() -> list[dict]:
    m = []
    for n in SIZES:
        for layer, kind in (("fast_dht", "measured"), ("flow", "measured")):
            m.append(_metric(f"kernels.{layer}.us_p50.n{n}", "us", kind, _SB_ALL + _AUDIT, _BULK_ALL))
        m.append(_metric(f"kernels.wrapper.us.n{n}", "us", "derived", _SB_ALL + _AUDIT, _BULK_ALL))
    for size, moves in (("small", _BULK_SMALL), ("large", _BULK_LARGE)):
        for n in SIZES:
            m.append(_metric(f"kernels.flow_array.ns_per_block.{size}.n{n}", "ns/block", "measured",
                             moves, _SB_ALL))
        for n in LAYERED:
            m.append(_metric(f"layers.pre_addition.ns_per_block.{size}.n{n}", "ns/block",
                             "measured", moves))
            m.append(_metric(f"kernels.mult_post.ns_per_block.{size}.n{n}", "ns/block", "derived",
                             moves))
    m.append(_metric("kernels.flow_array.peak_mb.large.n24", "MB", "measured", ["bulk:peak_mb"],
                     _SB_ALL))
    for n in SIZES:
        m.append(_metric(f"reference.dht_to_dft.us_p50.n{n}", "us", "measured", _SB_HEAVY,
                         _SB_LIGHT + _BULK_ALL))
        m.append(_metric(f"reference.naive_dht.us_p50.n{n}", "us", "measured", _AUDIT, _BULK_ALL))
    for n in LAYERED:
        m.append(_metric(f"derivation.verify_decomposition.ms.n{n}", "ms", "measured", _AUDIT))
    m += [
        _metric("derivation.balance_stages.ms.n24", "ms", "measured", _AUDIT),
        _metric("derivation.residual_matrix.ms.n24", "ms", "measured", _AUDIT),
        _metric("counting.audit_report.ms", "ms", "measured", _AUDIT),
        _metric("cli.count.ms", "ms", "measured", _AUDIT),
        _metric("cli.verify.ms", "ms", "measured", _AUDIT),
        _metric("cli.derive.ms.n24", "ms", "measured", _AUDIT),
    ]
    for op in ("transform", "dft", "inverse"):
        m.append(_metric(f"cli.{op}.us", "us", "measured", _FILE_OPS, _SB_ALL + _BULK_ALL))
        m.append(_metric(f"cli.{op}.self_us", "us", "derived", _FILE_OPS, _SB_ALL + _BULK_ALL))
    for op in ("read_signal.text", "read_signal.csv", "write_signal", "write_complex"):
        m.append(_metric(f"io.{op}.us", "us", "measured", _FILE_OPS, _SB_ALL + _BULK_ALL))
    for n in SIZES:
        m.append(_metric(f"counting.additions.n{n}", "count", "computed"))
        m.append(_metric(f"counting.multiplications.n{n}", "count", "computed"))
        m.append(_metric(f"kernels.bytes_per_block.n{n}", "B/block", "computed"))
    for size in BATCHES:
        for n in SIZES:
            m.append(_metric(f"reference.matmul.ns_per_block.{size}.n{n}", "ns/block", "comparator"))
            m.append(_metric(f"compare.rfft_dht.ns_per_block.{size}.n{n}", "ns/block", "comparator"))
    m.append(_metric("trace.overhead_pct", "%", "measured"))
    return m


LAYER_METRICS = _layer_metrics()


def rfft_dht(x: np.ndarray) -> np.ndarray:
    """Hartley spectrum of each column from NumPy's real FFT: H[k] = Re F[k] - Im F[k]."""
    n = x.shape[0]
    f = np.fft.rfft(x, axis=0)
    h = np.empty_like(x)
    h[: n // 2 + 1] = f.real - f.imag
    mirror = n - np.arange(n // 2 + 1, n)  # F[k] = conj(F[n - k]) above n/2
    h[n // 2 + 1:] = f.real[mirror] + f.imag[mirror]
    return h


def median_time(fn: Callable, arg, reps: int) -> float:
    """Median seconds of ``reps`` calls of ``fn(arg)``, after one untimed call."""
    fn(arg)
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn(arg)
        times.append(perf_counter() - t0)
    return float(np.median(times))


def _cascade(specs):
    def run(x):
        values = list(x)
        for spec in specs:
            values = layers.apply_layer(spec, values)
        return values

    return run


class LayerProbes:
    """Runs every probe once; ``metrics`` maps name -> value, checks are tallied."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = np.random.default_rng([seed, 5])
        self.workdir = workdir
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0

    def _check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def run(self) -> dict[str, float]:
        self.scalars()
        self.arrays()
        self.audit_layers()
        self.file_layers()
        self.counts()
        return self.metrics

    def scalars(self) -> None:
        m = self.metrics
        for n in SIZES:
            v = self.rng.uniform(-1.0, 1.0, n).tolist()
            flow = kernels.kernel_flow(n)
            self._check(np.array_equal(kernels.fast_dht(v), flow(v)))
            fast = median_time(kernels.fast_dht, v, SCALAR_REPS) * 1e6
            inner = median_time(flow, v, SCALAR_REPS) * 1e6
            m[f"kernels.fast_dht.us_p50.n{n}"] = fast
            m[f"kernels.flow.us_p50.n{n}"] = inner
            m[f"kernels.wrapper.us.n{n}"] = fast - inner
            spectrum = kernels.fast_dht(v)
            m[f"reference.dht_to_dft.us_p50.n{n}"] = (
                median_time(reference.dht_to_dft, spectrum, SCALAR_REPS) * 1e6)
            m[f"reference.naive_dht.us_p50.n{n}"] = (
                median_time(reference.naive_dht, v, SCALAR_REPS) * 1e6)

    def arrays(self) -> None:
        m = self.metrics
        for size, blocks in BATCHES.items():
            reps = ARRAY_REPS[size]
            for n in SIZES:
                b = blocks or Bulk.LARGE_SAMPLES // n
                x = self.rng.uniform(-1.0, 1.0, (n, b))
                mat = reference.dht_matrix(n)
                ref = mat @ x
                flow = kernels.kernel_flow(n)
                self._check(columns_close(np.array(flow(x)), ref, x))
                self._check(columns_close(rfft_dht(x), ref, x))
                per_block = 1e9 / b
                flow_ns = median_time(flow, x, reps) * per_block
                m[f"kernels.flow_array.ns_per_block.{size}.n{n}"] = flow_ns
                m[f"reference.matmul.ns_per_block.{size}.n{n}"] = (
                    median_time(mat.__matmul__, x, reps) * per_block)
                m[f"compare.rfft_dht.ns_per_block.{size}.n{n}"] = (
                    median_time(rfft_dht, x, reps) * per_block)
                if n in LAYERED:
                    specs = layers.LAYER_SPECS[n]
                    cascade = _cascade(specs)
                    state = layers.pre_addition_state(x[:, 0], n, len(specs)).values
                    self._check(np.array_equal(np.array(cascade(x))[:, 0], state))
                    pre_ns = median_time(cascade, x, reps) * per_block
                    m[f"layers.pre_addition.ns_per_block.{size}.n{n}"] = pre_ns
                    m[f"kernels.mult_post.ns_per_block.{size}.n{n}"] = flow_ns - pre_ns
                if size == "large" and n == 24:
                    m["kernels.flow_array.peak_mb.large.n24"] = peak_mb([(flow, x)])
                del x, ref

    def audit_layers(self) -> None:
        m = self.metrics
        for n in LAYERED:
            self._check(derivation.verify_decomposition(n).ok)
            m[f"derivation.verify_decomposition.ms.n{n}"] = (
                median_time(derivation.verify_decomposition, n, SLOW_REPS) * 1e3)
        m["derivation.balance_stages.ms.n24"] = (
            median_time(derivation.balance_stages, 24, SLOW_REPS) * 1e3)
        top = layers.max_order(24)
        m["derivation.residual_matrix.ms.n24"] = (
            median_time(lambda n: derivation.residual_matrix(n, top), 24, SLOW_REPS) * 1e3)
        self._check(counting.audit_passes(counting.audit_report()))
        m["counting.audit_report.ms"] = median_time(counting.audit_report, 0, SLOW_REPS) * 1e3
        seed = int(self.rng.integers(2**31))
        for name, argv in (
            ("cli.count.ms", ["count", "--format", "machine"]),
            ("cli.verify.ms", ["verify", "--trials", str(CLI_VERIFY_TRIALS), "--seed", str(seed),
                               "--format", "machine"]),
            ("cli.derive.ms.n24", ["derive", "--n", "24", "--format", "machine"]),
        ):
            with redirect_stdout(io.StringIO()):
                self._check(cli.main(argv) == 0)
                m[name] = median_time(cli.main, argv, SLOW_REPS) * 1e3

    def file_layers(self) -> None:
        m = self.metrics
        with tempfile.TemporaryDirectory(prefix="probe-", dir=self.workdir) as tmp:
            d = Path(tmp)
            v = self.rng.uniform(-1.0, 1.0, FILE_N)
            txt, csv, out = d / "sig.txt", d / "sig.csv", d / "out.txt"
            mio.write_signal(txt, v, "text")
            mio.write_signal(csv, v, "csv")
            a, _ = mio.read_signal(txt)
            self._check(np.array_equal(a, v) and np.array_equal(mio.read_signal(csv)[0], v))
            spectrum = kernels.fast_dht(a)
            dft = reference.dht_to_dft(spectrum)
            read_us = median_time(mio.read_signal, txt, FILE_REPS) * 1e6
            m["io.read_signal.text.us"] = read_us
            m["io.read_signal.csv.us"] = median_time(mio.read_signal, csv, FILE_REPS) * 1e6
            write_us = median_time(lambda s: mio.write_signal(out, s, "text"), spectrum,
                                   FILE_REPS) * 1e6
            m["io.write_signal.us"] = write_us
            write_c_us = median_time(lambda s: mio.write_complex(out, s, "text"), dft,
                                     FILE_REPS) * 1e6
            m["io.write_complex.us"] = write_c_us
            inner = {
                "transform": read_us + write_us
                + median_time(lambda s: kernels.fast_dht(s, FILE_N), a, FILE_REPS) * 1e6,
                "dft": read_us + write_c_us
                + median_time(lambda s: reference.dht_to_dft(kernels.fast_dht(s)), a,
                              FILE_REPS) * 1e6,
                "inverse": read_us + write_us
                + median_time(reference.naive_idht, a, FILE_REPS) * 1e6,
            }
            for op, extra in (("transform", ["--n", str(FILE_N)]), ("dft", []), ("inverse", [])):
                argv = [op, *extra, "--in", str(txt), "--out", str(out)]
                self._check(cli.main(argv) == 0)
                total = median_time(cli.main, argv, FILE_REPS) * 1e6
                m[f"cli.{op}.us"] = total
                m[f"cli.{op}.self_us"] = total - inner[op]

    def counts(self) -> None:
        m = self.metrics
        for n in SIZES:
            ops = counting.count_ops(n)
            self._check((ops.additions, ops.multiplications) == EXPECTED_COUNTS[n])
            m[f"counting.additions.n{n}"] = ops.additions
            m[f"counting.multiplications.n{n}"] = ops.multiplications
            # each input row read once; each flow node (one per operation)
            # written once and read once; 8 bytes per float64 per block
            m[f"kernels.bytes_per_block.n{n}"] = 8 * (n + 2 * (ops.additions + ops.multiplications))

"""The three closed-loop workloads: single-block, bulk and cli-audit.

Each workload generates its inputs from the seed, builds a cyclic list of
requests against mindht's public functions, checks every output, and knows
how to measure its own accuracy (on the fixed accuracy set) and peak memory.

Request classes per workload:

    workload       light request                heavy request
    single-block   fast_dht(v), one block       dht_to_dft(fast_dht(v)), one block
    bulk           kernel_flow(n)(X), B = 4096  kernel_flow(n)(X), 2**21 samples
    cli-audit      one file op through cli.main one audit pass (count, verify, derive x3)
"""

from __future__ import annotations

import io
import json
import shutil
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from mindht import cli, kernels, reference
from common import (
    EXPECTED_COUNTS,
    HEAVY,
    LIGHT,
    SIZES,
    CHECK_TOL_PER_N,
    Gauge,
    Oracle,
    Request,
    Tracer,
    close_to,
    columns_close,
)


def public_api(tracer: Tracer | None) -> SimpleNamespace:
    """The public mindht calls the workloads make, wrapped in spans when traced."""

    def wrap(name, fn):
        return fn if tracer is None else tracer.wrap(name, fn)

    return SimpleNamespace(
        fast_dht=wrap("kernels.fast_dht", kernels.fast_dht),
        dht_to_dft=wrap("reference.dht_to_dft", reference.dht_to_dft),
        flow=lambda n: wrap(f"kernels.flow.n{n}", kernels.kernel_flow(n)),
        main=lambda cmd: wrap(f"cli.{cmd}", cli.main),
    )


def peak_mb(calls) -> float:
    """Largest traced allocation peak above the pre-call level over ``calls``."""
    peak = 0
    tracemalloc.start()
    try:
        for fn, arg in calls:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn(arg)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            del out
    finally:
        tracemalloc.stop()
    return peak / 1e6


class AccuracyTally:
    """Worst error in eps over the accuracy set; outputs beyond the check bound fail."""

    def __init__(self) -> None:
        self.worst = 0.0
        self.attempted = 0
        self.failed = 0

    def add(self, err_eps: float, n: int) -> None:
        self.worst = max(self.worst, err_eps)
        self.attempted += 1
        if not err_eps <= CHECK_TOL_PER_N * n:
            self.failed += 1


class SingleBlock:
    """One real block per call, N cycling 4 -> 8 -> 12 -> 24, DHT and DFT alternating."""

    BLOCKS_PER_N = 1024
    ROUND = 512  # requests per round when traced and untraced rounds alternate

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 1])
        self.blocks = {n: rng.uniform(-1.0, 1.0, (self.BLOCKS_PER_N, n)).tolist() for n in SIZES}
        self.batch_bytes = {}
        self.gauge = Gauge.interpreter()

    def requests(self, api: SimpleNamespace) -> list[Request]:
        dht = api.fast_dht

        def dft(v):
            return api.dht_to_dft(dht(v))

        def check_dht(v, out):
            return close_to(out, reference.naive_dht(v), v)

        def check_dft(v, out):
            return close_to(out, reference.naive_dft(v), v)

        half = self.BLOCKS_PER_N // 2
        reqs = []
        for j in range(self.BLOCKS_PER_N):
            for n in SIZES:
                blocks = self.blocks[n]
                reqs.append(Request(LIGHT, f"dht.n{n}", dht, blocks[j], 1, check_dht))
                reqs.append(Request(HEAVY, f"dft.n{n}", dft, blocks[(j + half) % self.BLOCKS_PER_N],
                                    1, check_dft))
        return reqs

    def accuracy(self, oracle: Oracle, acc: dict) -> AccuracyTally:
        tally = AccuracyTally()
        for n in SIZES:
            for v in acc[n]:
                exact = oracle.dht(v)
                out = kernels.fast_dht(v)
                tally.add(oracle.err_eps(v, out, exact), n)
                tally.add(oracle.dft_err_eps(v, reference.dht_to_dft(out), exact), n)
        return tally

    def peak_mb(self) -> float:
        api = public_api(None)
        return peak_mb(
            [(api.fast_dht, self.blocks[n][0]) for n in SIZES]
            + [(lambda v: api.dht_to_dft(api.fast_dht(v)), self.blocks[n][0]) for n in SIZES]
        )

    def close(self) -> None:
        pass


class Bulk:
    """Whole (n, B) batches in one kernel_flow(n) call each; the benchmark never chunks."""

    SMALL_BLOCKS = 4096  # N = 24: 768 KiB of input, inside the 4 MiB L2
    LARGE_SAMPLES = 2**21  # 16 MiB of input per call, 4x the L2
    SMALL_PER_LARGE = 16  # small calls issued per large call, per N
    SAMPLED_COLUMNS = 4  # columns per batch checked bit for bit against fast_dht
    ROUND = len(SIZES) * (SMALL_PER_LARGE + 1)

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 2])
        self.small = {n: rng.uniform(-1.0, 1.0, (n, self.SMALL_BLOCKS)) for n in SIZES}
        self.large = {n: rng.uniform(-1.0, 1.0, (n, self.LARGE_SAMPLES // n)) for n in SIZES}
        self.columns = {
            id(x): rng.choice(x.shape[1], self.SAMPLED_COLUMNS, replace=False)
            for x in (*self.small.values(), *self.large.values())
        }
        self.batch_bytes = {
            "small": {f"n{n}": self.small[n].nbytes for n in SIZES},
            "large": {f"n{n}": self.large[n].nbytes for n in SIZES},
        }
        self.gauge = Gauge.arrays((24, self.SMALL_BLOCKS), (24, self.LARGE_SAMPLES // 24))

    def _checker(self, n: int, x: np.ndarray):
        mat = reference.dht_matrix(n)
        cols = self.columns[id(x)]

        def check(x, out):
            y = np.array(out)
            if not columns_close(y, mat @ x, x):
                return False
            return all(np.array_equal(y[:, j], kernels.fast_dht(x[:, j].tolist())) for j in cols)

        return check

    def requests(self, api: SimpleNamespace) -> list[Request]:
        reqs = []
        for n in SIZES:
            flow = api.flow(n)
            small, large = self.small[n], self.large[n]
            check_small = self._checker(n, small)
            reqs += [Request(LIGHT, f"small.n{n}", flow, small, small.shape[1], check_small)
                     ] * self.SMALL_PER_LARGE
            reqs.append(Request(HEAVY, f"large.n{n}", flow, large, large.shape[1],
                                self._checker(n, large)))
        return reqs

    def accuracy(self, oracle: Oracle, acc: dict) -> AccuracyTally:
        tally = AccuracyTally()
        for n in SIZES:
            x = np.array(acc[n]).T
            y = np.array(kernels.kernel_flow(n)(x))
            for j, v in enumerate(acc[n]):
                tally.add(oracle.err_eps(v, y[:, j]), n)
        return tally

    def peak_mb(self) -> float:
        return peak_mb([(kernels.kernel_flow(n), self.large[n]) for n in SIZES])

    def close(self) -> None:
        pass


def _write_real(path: Path, v) -> None:
    vals = [repr(float(x)) for x in v]
    path.write_text((",".join(vals) if path.suffix == ".csv" else "\n".join(vals)) + "\n")


def _read_real(path: Path) -> np.ndarray:
    text = path.read_text()
    toks = text.replace(",", "\n").split()
    return np.array([float(t) for t in toks])


def _read_complex(path: Path) -> np.ndarray:
    rows = [line.replace(",", " ").split() for line in path.read_text().splitlines() if line]
    return np.array([complex(float(re), float(im)) for re, im in rows])


class CliAudit:
    """In-process cli.main calls: audit passes and file ops on files in a private temp dir."""

    AUDIT_TRIALS = 50  # verify --trials
    FILE_SETS = 8  # distinct signal files per (N, format)
    UNSUPPORTED_N = 10  # length without a fast kernel, run through transform --naive
    ROUND = 1 + 3 * 2 * len(SIZES) + 2  # one audit pass and one file set

    def __init__(self, seed: int, workdir: Path) -> None:
        self.dir = Path(tempfile.mkdtemp(prefix="cli-audit-", dir=workdir))
        rng = np.random.default_rng([seed, 3])
        # (argv, output path, expected output) per file op, grouped by file set
        self.file_ops: list[list[tuple[list[str], Path, np.ndarray]]] = []
        for s in range(self.FILE_SETS):
            ops = []
            for n in (*SIZES, self.UNSUPPORTED_N):
                for ext in ("txt", "csv"):
                    v = rng.uniform(-1.0, 1.0, n)
                    src = self.dir / f"sig-{s}-{n}.{ext}"
                    _write_real(src, v)

                    def op(argv, expected, src=src, ext=ext):
                        dst = self.dir / f"out-{argv[0]}.{ext}"
                        ops.append((argv + ["--in", str(src), "--out", str(dst)], dst, expected))

                    if n in SIZES:
                        spectrum = kernels.fast_dht(v)
                        op(["transform", "--n", str(n)], spectrum)
                        op(["dft"], reference.dht_to_dft(spectrum))
                        op(["inverse"], reference.naive_idht(v))
                    else:
                        op(["transform", "--naive"], reference.naive_dht(v))
            self.file_ops.append(ops)
        self.audit_argvs = [
            ["count", "--format", "machine"],
            ["verify", "--trials", str(self.AUDIT_TRIALS), "--seed", str(seed), "--format", "machine"],
        ] + [["derive", "--n", str(n), "--format", "machine"] for n in (8, 12, 24)]
        self.batch_bytes = {}
        self.gauge = Gauge.interpreter()

    def _audit(self, api: SimpleNamespace):
        mains = [api.main(argv[0]) for argv in self.audit_argvs]
        argvs = self.audit_argvs

        def audit(_):
            buf = io.StringIO()
            with redirect_stdout(buf):
                codes = [main(argv) for main, argv in zip(mains, argvs)]
            return codes, buf.getvalue()

        return audit

    @staticmethod
    def _check_audit(_, out) -> bool:
        codes, text = out
        try:
            count, verify, *derives = [json.loads(line) for line in text.splitlines()]
        except ValueError:
            return False
        counts = {k["n"]: (k["additions"], k["multiplications"]) for k in count["kernels"]}
        return (
            codes == [0] * 5
            and counts == EXPECTED_COUNTS
            and count["matches_declared_counts"] is True
            and all(r["ok"] is True for r in verify["results"])
            and len(derives) == 3
            and all(
                d["reconstruction_ok"] is True
                and (d["scheduled_additions"], d["scheduled_multiplications"])
                == EXPECTED_COUNTS[d["n"]]
                for d in derives
            )
        )

    @staticmethod
    def _file_check(dst: Path, expected: np.ndarray):
        read = _read_complex if np.iscomplexobj(expected) else _read_real

        def check(_, code):
            return code == 0 and np.array_equal(read(dst), expected)

        return check

    def requests(self, api: SimpleNamespace) -> list[Request]:
        audit = self._audit(api)
        reqs = []
        for ops in self.file_ops:
            reqs.append(Request(HEAVY, "audit", audit, None, 1, self._check_audit))
            for argv, dst, expected in ops:
                reqs.append(Request(LIGHT, f"file.{argv[0]}", api.main(argv[0]), argv, 1,
                                    self._file_check(dst, expected)))
        return reqs

    def accuracy(self, oracle: Oracle, acc: dict) -> AccuracyTally:
        tally = AccuracyTally()
        src, dst, dft_dst = self.dir / "acc.txt", self.dir / "acc-out.txt", self.dir / "acc-dft.txt"
        for n in SIZES:
            for v in acc[n]:
                _write_real(src, v)
                codes = [
                    cli.main(["transform", "--in", str(src), "--out", str(dst)]),
                    cli.main(["dft", "--in", str(src), "--out", str(dft_dst)]),
                ]
                if codes != [0, 0]:
                    tally.attempted += 1
                    tally.failed += 1
                    continue
                exact = oracle.dht(v)
                tally.add(oracle.err_eps(v, _read_real(dst), exact), n)
                tally.add(oracle.dft_err_eps(v, _read_complex(dft_dst), exact), n)
        return tally

    def peak_mb(self) -> float:
        return peak_mb([(self._audit(public_api(None)), None)])

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"single-block": SingleBlock, "bulk": Bulk, "cli-audit": CliAudit}

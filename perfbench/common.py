"""Shared pieces of the mindht benchmark: request loop, tracer, checks, accuracy oracle.

The benchmark drives mindht from outside, through public module functions
only.  Every workload is a closed loop with one caller: the next request is
issued when the previous one has returned.  Requests belong to one of two
classes per workload, ``light`` and ``heavy``; the end-to-end metrics are
reported per class (see README.md for what each class is in each workload).
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Any, Callable, NamedTuple

import numpy as np

SIZES = (4, 8, 12, 24)
EXPECTED_COUNTS = {4: (8, 0), 8: (22, 2), 12: (52, 4), 24: (138, 12)}
EPS = float(np.finfo(float).eps)

# An output passes when |out - oracle| <= CHECK_TOL_PER_N * N * eps * ||v||_1
# in every bin.  The kernels stay near 1 eps * ||v||_1 of the exact result and
# the direct-summation oracle within about N eps * ||v||_1, so correct code
# never trips this while a corrupted operation (relative error ~1e-7) does.
CHECK_TOL_PER_N = 4.0

# The accuracy set is fixed, not drawn from --seed, so max_err_eps is exact
# from run to run: the maximum of a seeded sample spreads by ~10% across seeds.
ACCURACY_SEED = 1502_02168
ACCURACY_BLOCKS_PER_N = 128
ACCURACY_DPS = 40

LIGHT, HEAVY = "light", "heavy"
# Tail percentile recorded per request class in the run details, next to the
# number of samples beyond it (a 25 s cli-audit run has about 70 audit passes).
TAIL_PCT = {LIGHT: 99, HEAVY: 90}


class Request(NamedTuple):
    """One closed-loop request: ``call(arg)`` is timed, ``check(arg, out)`` is not."""

    kind: str  # LIGHT or HEAVY
    name: str  # span name of the request root
    call: Callable[[Any], Any]
    arg: Any
    units: int  # blocks (or operations) the request completes
    check: Callable[[Any, Any], bool]


class Tracer:
    """In-memory spans: (name, start, end, parent index, request id).

    ``wrap`` returns a traced version of a public mindht function.  Spans
    opened while a request runs are parented to the span enclosing them, or
    to the request's root span, which the loop records when the request ends.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rid = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self.rid])
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1

        return traced

    def root(self, name: str, t0: float, t1: float, first_child: int) -> None:
        idx = len(self.spans)
        for span in self.spans[first_child:]:
            if span[3] is None:
                span[3] = idx
        self.spans.append([name, t0, t1, None, self.rid])

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self seconds (duration minus children)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
        return out


class LoopStats:
    """Latencies, completed units, gauge times and check outcomes of one loop."""

    def __init__(self) -> None:
        self.lat: dict[str, list[float]] = {LIGHT: [], HEAVY: []}
        self.units = {LIGHT: 0, HEAVY: 0}
        self.gauge: dict[str, list[float]] = {LIGHT: [], HEAVY: []}
        self.attempted = 0
        self.failed = 0

    def busy_s(self) -> float:
        return math.fsum(self.lat[LIGHT]) + math.fsum(self.lat[HEAVY])

    def per_s(self, kind: str) -> float:
        """Units completed per second of time spent inside requests of this class."""
        return self.units[kind] / math.fsum(self.lat[kind])

    def cost(self, kind: str) -> float:
        """Seconds per unit of this class over the mean gauge time sampled meanwhile."""
        gauge = self.gauge[kind]
        return math.fsum(self.lat[kind]) / self.units[kind] / (math.fsum(gauge) / len(gauge))

    def sampling(self) -> dict:
        """Sample counts, raw rates and the median and tail latency of each class."""
        out = {}
        for kind in (LIGHT, HEAVY):
            lat = self.lat[kind]
            pct = TAIL_PCT[kind]
            out[kind] = {
                "samples": len(lat),
                "gauge_samples": len(self.gauge[kind]),
                "per_s": self.per_s(kind) if lat else None,
                "us_p50": float(np.median(lat)) * 1e6 if lat else None,
                f"us_p{pct}": float(np.percentile(lat, pct)) * 1e6 if lat else None,
                "samples_beyond_tail": int(len(lat) * (100 - pct) / 100),
            }
        return out


def issue(req: Request, stats: LoopStats, tracer: Tracer | None = None) -> None:
    """Time one request, then check its output outside the timed region."""
    if tracer is not None:
        tracer.rid += 1
        first = len(tracer.spans)
    t0 = perf_counter()
    out = req.call(req.arg)
    t1 = perf_counter()
    if tracer is not None:
        tracer.root(req.name, t0, t1, first)
    stats.lat[req.kind].append(t1 - t0)
    stats.units[req.kind] += req.units
    stats.attempted += 1
    if not req.check(req.arg, out):
        stats.failed += 1


def closed_loop(requests: list[Request], seconds: float, gauge: "Gauge") -> LoopStats:
    """Issue ``requests`` cyclically, one at a time, for ``seconds`` seconds.

    Every ``gauge.every_s`` seconds the gauge runs between two requests.
    """
    stats = LoopStats()
    deadline = perf_counter() + seconds
    next_gauge = 0.0
    i = 0
    while perf_counter() < deadline:
        issue(requests[i % len(requests)], stats)
        i += 1
        if perf_counter() >= next_gauge:
            for kind, t in gauge.measure().items():
                stats.gauge[kind].append(t)
            next_gauge = perf_counter() + gauge.every_s
    return stats


def interleaved(
    plain: list[Request],
    traced: list[Request],
    tracer: Tracer,
    seconds: float,
    round_len: int,
    max_traced: int,
) -> tuple[LoopStats, LoopStats]:
    """Alternate rounds of untraced and traced requests over the same sequence.

    Both halves see the same host conditions, so the ratio of their busy
    times is the tracing overhead rather than drift between two phases.
    """
    a, b = LoopStats(), LoopStats()
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline and b.attempted < max_traced:
        for j in range(i, i + round_len):
            issue(plain[j % len(plain)], a)
        for j in range(i, i + round_len):
            issue(traced[j % len(traced)], b, tracer)
        i += round_len
    return a, b


# --- host-speed gauges -------------------------------------------------------
#
# On a virtual machine whose cores are shared with other tenants, their load
# slows the same code by up to 1.8x for seconds at a time.  Raw rates therefore spread
# by 10-30% between runs.  A gauge is a frozen piece of benchmark code, of the
# same kind as a workload's requests, timed at a fixed cadence between
# requests; dividing request time by the mean gauge time cancels the host's
# speed.  The gauges never call mindht, so no change to mindht moves them.


def _butterflies(x: list) -> list:
    x = list(x)
    h = 1
    while h < len(x):
        for s in range(0, len(x), 2 * h):
            for j in range(s, s + h):
                a, b = x[j], x[j + h]
                x[j] = a + b
                x[j + h] = a - b
        h *= 2
    return x


def _row_layer(x: np.ndarray, out: np.ndarray) -> None:
    half = x.shape[0] // 2
    for i in range(half):
        np.add(x[i], x[i + half], out=out[i])
        np.subtract(x[i], x[i + half], out=out[i + half])


class Gauge:
    """Times frozen reference work between requests; one timing per request class.

    ``measure`` returns seconds per gauge unit for the light and the heavy
    class.  Each class has its own work, shaped like that class's requests.
    """

    def __init__(self, every_s: float, light: tuple[Callable[[], Any], int],
                 heavy: tuple[Callable[[], Any], int]):
        self.every_s = every_s
        self._work = {LIGHT: light, HEAVY: heavy}

    @classmethod
    def interpreter(cls) -> "Gauge":
        """Per-call work shaped like a single-block request: validate a Python list
        through NumPy, run a 32-point butterfly pass over it and convert the result
        (light); then mirror and combine it in complex arithmetic (heavy)."""
        x = np.random.default_rng(0).uniform(-1.0, 1.0, 32).tolist()
        reps = 10

        def transform():
            a = np.asarray(x, dtype=float)
            np.all(np.isfinite(a))
            return np.array(_butterflies(a.tolist()))

        def light():
            for _ in range(reps):
                transform()

        def heavy():
            for _ in range(reps):
                y = transform()
                np.all(np.isfinite(y))
                r = np.roll(y[::-1], 1)
                (y + r) / 2.0 - 1j * (y - r) / 2.0

        return cls(0.01, (light, reps), (heavy, reps))

    @classmethod
    def arrays(cls, small_shape: tuple, large_shape: tuple) -> "Gauge":
        """One butterfly layer over the rows of arrays shaped like the small and
        the large batch; the unit is one column.

        The layer writes into preallocated rows: freshly allocated 700 KB rows
        made the large gauge depend on the allocator's state (page faults),
        which moved its time by 70% between otherwise equal runs.
        """
        rng = np.random.default_rng(0)
        small, large = rng.uniform(-1.0, 1.0, small_shape), rng.uniform(-1.0, 1.0, large_shape)
        small_out, large_out = np.empty_like(small), np.empty_like(large)
        reps = 8  # small layers per measurement, so one timing spans about 2 ms

        def light():
            for _ in range(reps):
                _row_layer(small, small_out)

        return cls(0.1, (light, reps * small_shape[1]),
                   (lambda: _row_layer(large, large_out), large_shape[1]))

    def measure(self) -> dict[str, float]:
        times = {}
        for kind, (work, units) in self._work.items():
            t0 = perf_counter()
            work()
            times[kind] = (perf_counter() - t0) / units
        return times


def warm_up(requests: list[Request]) -> None:
    """Run each distinct request once, so lazy caches fill before timing."""
    seen = set()
    for req in requests:
        if req.name not in seen:
            seen.add(req.name)
            req.call(req.arg)


def close_to(out, ref, v) -> bool:
    """Every bin of ``out`` within the check tolerance of ``ref`` for input ``v``."""
    out = np.asarray(out)
    ref = np.asarray(ref)
    if out.shape != ref.shape or not np.all(np.isfinite(out)):
        return False
    tol = CHECK_TOL_PER_N * len(ref) * EPS * float(np.sum(np.abs(v)))
    return bool(np.max(np.abs(out - ref)) <= tol)


def columns_close(out, ref, x: np.ndarray) -> bool:
    """``close_to`` for every column of a batch ``x`` of shape (n, B)."""
    out = np.asarray(out)
    tol = CHECK_TOL_PER_N * x.shape[0] * EPS * np.sum(np.abs(x), axis=0)
    return out.shape == ref.shape and bool(np.all(np.abs(out - ref) <= tol))


# --- accuracy oracle ---------------------------------------------------------


def accuracy_set() -> dict[int, list[list[float]]]:
    """The fixed accuracy blocks, per N, as Python lists."""
    rng = np.random.default_rng(ACCURACY_SEED)
    return {n: rng.uniform(-1.0, 1.0, (ACCURACY_BLOCKS_PER_N, n)).tolist() for n in SIZES}


class Oracle:
    """Exact DHT and DFT to ACCURACY_DPS digits, via mpmath."""

    def __init__(self) -> None:
        import mpmath

        self.mp = mpmath.mp.clone()
        self.mp.dps = ACCURACY_DPS
        self._cas: dict[int, list] = {}

    def _table(self, n: int):
        if n not in self._cas:
            mp = self.mp
            self._cas[n] = [
                [mp.cos(2 * mp.pi * ((i * k) % n) / n) + mp.sin(2 * mp.pi * ((i * k) % n) / n)
                 for i in range(n)]
                for k in range(n)
            ]
        return self._cas[n]

    def dht(self, v) -> list:
        mv = [self.mp.mpf(float(x)) for x in v]
        return [self.mp.fdot(row, mv) for row in self._table(len(mv))]

    def err_eps(self, v, out, exact=None) -> float:
        """max_k |out[k] - exact DHT[k]| / ||v||_1 in units of eps."""
        exact = self.dht(v) if exact is None else exact
        worst = max(abs(self.mp.mpf(float(o)) - e) for o, e in zip(out, exact))
        return float(worst) / math.fsum(abs(x) for x in v) / EPS

    def dft_err_eps(self, v, out, exact=None) -> float:
        """Same for a DFT spectrum, the exact one derived from the exact DHT."""
        h = self.dht(v) if exact is None else exact
        n = len(h)
        worst = 0.0
        for k, z in enumerate(out):
            hk, hr = h[k], h[(n - k) % n]
            re, im = (hk + hr) / 2, -(hk - hr) / 2
            d = self.mp.sqrt((self.mp.mpf(float(z.real)) - re) ** 2
                             + (self.mp.mpf(float(z.imag)) - im) ** 2)
            worst = max(worst, float(d))
        return worst / math.fsum(abs(x) for x in v) / EPS

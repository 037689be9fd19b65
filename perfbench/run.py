"""mindht benchmark: run one closed-loop workload, check every output, print metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload {single-block,bulk,cli-audit} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced rounds of the workload (the difference in
busy time is ``trace.overhead_pct``), then runs the per-layer probes.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run's
environment, sizing, sample counts and (traced) spans are written to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.

mindht is imported from ``src/`` of the checkout that holds this directory;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

# One caller, one thread: pin BLAS before NumPy loads (at most nproc threads).
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

# Cache sizes of the machine the batches were sized for (2-vCPU Intel Xeon
# virtual machine, 8 GB of memory; from lscpu).  The large bulk batch is 4x
# the L2.  The 300 MiB L3 is shared with the host and 4x it does not fit in
# memory, so batches are sized against the L2 only.
L2_BYTES = 4 * 2**20
L3_BYTES = 300 * 2**20

WORKLOADS = ("single-block", "bulk", "cli-audit")
SETUP_REPS = 7  # fresh interpreters per run; setup_s is their median
MAX_TRACED_REQUESTS = 40_000  # bounds span memory in the traced phase
SPANS_WRITTEN = 20_000  # raw spans kept in the output file; the summary covers all

END_TO_END = {
    "setup_s": "s",
    "light_cost": "gauge",
    "heavy_cost": "gauge",
    "peak_mb": "MB",
    "max_err_eps": "eps",
}


def measure_setup(seed: int) -> dict:
    """Median over SETUP_REPS fresh interpreters of import plus first calls."""
    runs = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(ROOT), str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    totals = [r["import_s"] + r["first_calls_s"] for r in runs]
    return {
        "setup_s": statistics.median(totals),
        "import_s": statistics.median(r["import_s"] for r in runs),
        "first_calls_s": statistics.median(r["first_calls_s"] for r in runs),
        "samples": SETUP_REPS,
    }


def environment(args, workload) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "l2_bytes": L2_BYTES,
        "l3_bytes": L3_BYTES,
        "batch_bytes": workload.batch_bytes,
    }


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details for the output file)."""
    from common import Oracle, Tracer, accuracy_set, closed_loop, interleaved, warm_up
    from layer_probes import LAYER_METRICS, LayerProbes
    from workloads import WORKLOADS, public_api

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    try:
        details = {"env": environment(args, workload)}
        requests = workload.requests(public_api(None))
        warm_up(requests)
        if not args.trace:
            setup = measure_setup(args.seed)
            stats = closed_loop(requests, args.seconds, workload.gauge)
            acc = workload.accuracy(Oracle(), accuracy_set())
            metrics = {
                "setup_s": setup["setup_s"],
                "light_cost": stats.cost("light"),
                "heavy_cost": stats.cost("heavy"),
                "peak_mb": workload.peak_mb(),
                "max_err_eps": acc.worst,
            }
            attempted = stats.attempted + acc.attempted
            failed = stats.failed + acc.failed
            details.update(setup=setup, sampling=stats.sampling(),
                           accuracy_outputs=acc.attempted)
            units = END_TO_END
        else:
            tracer = Tracer()
            plain, traced = interleaved(requests, workload.requests(public_api(tracer)), tracer,
                                        args.seconds, workload.ROUND, MAX_TRACED_REQUESTS)
            workload.close()
            workload = None  # release the workload's arrays before the probes allocate theirs
            probes = LayerProbes(args.seed, OUT_DIR)
            metrics = probes.run()
            metrics["trace.overhead_pct"] = (traced.busy_s() / plain.busy_s() - 1.0) * 100.0
            attempted = plain.attempted + traced.attempted + probes.attempted
            failed = plain.failed + traced.failed + probes.failed
            t_base = min((span[1] for span in tracer.spans), default=0.0)
            details.update(
                sampling={"untraced": plain.sampling(), "traced": traced.sampling()},
                span_summary=tracer.self_times(),
                spans_total=len(tracer.spans),
                spans=[[name, t0 - t_base, t1 - t_base, parent, rid]
                       for name, t0, t1, parent, rid in tracer.spans[:SPANS_WRITTEN]],
            )
            units = {m["name"]: m["unit"] for m in LAYER_METRICS}
    finally:
        if workload is not None:
            workload.close()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    details["error_rate"] = failed / attempted
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mindht" / "__init__.py").is_file():
        print(f"error: no mindht sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    result, details = run(args)
    details["result"] = result
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"error_rate {details['error_rate']!r} failed/attempted")
    print(f"details {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

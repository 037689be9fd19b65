"""Self-test of the mindht benchmark.

Usage, from the repository root:

    python3 perfbench/selftest.py

Checks, in about two minutes:

1. BENCHMARK.json names exactly the metrics and units the code reports, and
   every layer-to-end-to-end mapping names a real workload and metric.
2. A short smoke run of every workload, untraced and traced, exits 0, prints
   exactly the metric names of BENCHMARK.json and reports no failed check.
3. With one operation of dht24_flow corrupted (a spurious multiplication, as
   in tests/test_cli.py::test_count_detects_corrupted_kernel), every workload
   reports failed checks, i.e. error_rate > 0.
4. In a directory holding only BENCHMARK.json and the benchmark, the
   benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

WORKLOADS = run.WORKLOADS
SMOKE_SECONDS = "1"


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        raise SystemExit(1)


def benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check_declaration(bench: dict) -> None:
    from layer_probes import LAYER_METRICS

    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    check(e2e == run.END_TO_END, "end_to_end names and units match run.END_TO_END")
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(layer == {m["name"]: m["unit"] for m in LAYER_METRICS},
          "per_layer names and units match layer_probes.LAYER_METRICS")
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "workload names")
    targets = {f"{w}:{m}" for w in WORKLOADS for m in e2e}
    refs = {t for m in LAYER_METRICS for t in m["moves"] + m["holds"]}
    check(refs <= targets, "layer map names only real workload:metric pairs")


def smoke(bench: dict) -> None:
    expected = {
        0: {m["name"] for m in bench["end_to_end"]},
        1: {m["name"] for m in bench["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
                 "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
                capture_output=True, text=True, cwd=run.ROOT, timeout=180,
            )
            what = f"smoke {workload} --trace {trace}"
            check(proc.returncode == 0, f"{what}: exit 0")
            result = json.loads(proc.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys")
            check(set(result["metrics"]) == expected[trace], f"{what}: metric names")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{what}: {result['attempted']} checks, none failed")


def corrupted_kernel() -> None:
    import mindht.kernels as kernels

    real = kernels._FLOWS[24]

    def bad(v):
        out = real(v)
        out[0] = 0.9999999 * out[0]  # one spurious multiplication
        return out

    kernels._FLOWS[24] = bad
    try:
        for workload in WORKLOADS:
            args = argparse.Namespace(workload=workload, seed=7, seconds=1.0, trace=0)
            result, details = run.run(args)
            check(result["failed"] > 0 and not result["correct"],
                  f"corrupted dht24_flow: {workload} error_rate {details['error_rate']:.3f} > 0")
    finally:
        kernels._FLOWS[24] = real


def bare_directory() -> None:
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bare-", dir=run.OUT_DIR) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "without src/mindht: non-zero exit, no result line")


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    bench = benchmark_json()
    check_declaration(bench)
    bare_directory()
    smoke(bench)
    corrupted_kernel()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

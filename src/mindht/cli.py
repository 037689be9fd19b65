"""Command-line front end.

Subcommands: transform, inverse, dft, verify, count, derive, bench.
Exit codes are stable across subcommands:

    0  success
    1  verification or audit failure
    2  input file parse error
    3  usage error (bad flags, unsupported or mismatched length)

Random verification signals come from NumPy's default PCG64 generator seeded
with --seed (default 2024), so any failure is reproducible from the report.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from .counting import audit_dict, audit_passes, audit_report, audit_table
from .derivation import balance_stages, pre_addition_matrix, verify_decomposition
from .io import SignalParseError, read_signal, write_complex, write_signal
from .kernels import fast_dht, kernel_flow
from .layers import SUPPORTED_SIZES, UnsupportedLengthError, max_order
from .reference import dht_to_dft, naive_dht, naive_idht

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_USAGE = 3

DEFAULT_SEED = 2024
VERIFY_TOL_PER_N = 1e-10  # scaled by N; inputs are drawn uniform in [-1, 1]
BENCH_BLOCKS = 4096  # columns of the (n, B) batch that bench times on the array path


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the exit-code contract
    # reserves 2 for file parse errors, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read(path):
    try:
        return read_signal(path)
    except FileNotFoundError:
        print(f"error: cannot open {path}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    except SignalParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _cmd_transform(args) -> int:
    v, fmt = _read(args.infile)
    if args.naive:
        spectrum = naive_dht(v)
    else:
        n = args.n if args.n is not None else v.size
        try:
            spectrum = fast_dht(v, n)
        except UnsupportedLengthError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    write_signal(args.outfile, spectrum, fmt)
    return EXIT_OK


def _cmd_inverse(args) -> int:
    v, fmt = _read(args.infile)
    write_signal(args.outfile, naive_idht(v), fmt)
    return EXIT_OK


def _cmd_dft(args) -> int:
    v, fmt = _read(args.infile)
    if v.size in SUPPORTED_SIZES:
        spectrum = dht_to_dft(fast_dht(v))
    else:
        spectrum = dht_to_dft(naive_dht(v))
    write_complex(args.outfile, spectrum, fmt)
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = []
    status = EXIT_OK
    for n in SUPPORTED_SIZES:
        # one draw of every trial is the same PCG64 stream as one draw per
        # trial; each row still goes through the one-block fast_dht
        signals = np.random.default_rng([args.seed, n]).uniform(-1.0, 1.0, (args.trials, n))
        worst = float(np.max(np.abs([fast_dht(v) - naive_dht(v) for v in signals])))
        tol = VERIFY_TOL_PER_N * n
        ok = worst <= tol
        if not ok:
            status = EXIT_FAIL
        results.append(
            {"n": n, "trials": args.trials, "max_error": worst, "tolerance": tol, "ok": ok}
        )
    if args.format == "machine":
        print(json.dumps({"seed": args.seed, "results": results}, sort_keys=True))
    else:
        for r in results:
            verdict = "ok" if r["ok"] else "FAIL"
            print(
                f"N={r['n']:>2}  trials={r['trials']}  max|fast-naive|={r['max_error']:.3e}"
                f"  tol={r['tolerance']:.1e}  {verdict}"
            )
        if status != EXIT_OK:
            print(f"verification FAILED (seed {args.seed})", file=sys.stderr)
    return status


def _cmd_count(args) -> int:
    rows = audit_report()
    ok = audit_passes(rows)
    if args.format == "machine":
        doc = audit_dict(rows)
        doc["matches_declared_counts"] = ok
        print(json.dumps(doc, sort_keys=True))
    else:
        print(audit_table(rows))
        print("all kernels meet the multiplication lower bound"
              if ok else "COUNT MISMATCH against declared budgets")
    return EXIT_OK if ok else EXIT_FAIL


def _describe_layer(n: int, order: int, alpha: tuple[float, ...], machine: bool):
    if machine:
        return {
            "order": order,
            "pre_addition_matrix": pre_addition_matrix(n, order).tolist(),
            "alphabet": list(alpha),
        }
    lines = [f"layer {order}: residual alphabet {tuple(round(a, 12) for a in alpha)}"]
    lines.append(f"  pre-addition matrix P[{order}]:")
    for row in pre_addition_matrix(n, order):
        lines.append("    " + " ".join(f"{x:>2d}" for x in row))
    return "\n".join(lines)


def _cmd_derive(args) -> int:
    n = args.n
    orders = [args.layer] if args.layer is not None else list(range(max_order(n) + 1))
    if args.layer is not None and not 0 <= args.layer <= max_order(n):
        print(f"error: layer {args.layer} invalid for N={n}", file=sys.stderr)
        return EXIT_USAGE
    report = verify_decomposition(n)
    stages, _ = balance_stages(n)
    if args.format == "machine":
        doc = {
            "n": n,
            "layers": [_describe_layer(n, k, report.alphabets[k], True) for k in orders],
            "special_additions": [
                {
                    "source_layer": z.source_order,
                    "entries": {str(r): [s, i] for r, (s, i) in sorted(z.entries.items())},
                }
                for z in stages
            ],
            "multiplication_sites": [
                {"constant": site.label, "value": site.value, "operand": site.operand_text()}
                for site in report.mult_sites
            ],
            "reconstruction_ok": report.ok,
            "max_reconstruction_error": report.max_error,
            "scheduled_additions": report.additions_scheduled,
            "scheduled_multiplications": report.multiplications_scheduled,
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"derivation for N={n}")
        for k in orders:
            print(_describe_layer(n, k, report.alphabets[k], False))
        for z in stages:
            print(f"special additions (layer-{z.source_order} values):")
            for line in z.describe():
                print("  " + line)
        print("multiplication sites:")
        for site in report.mult_sites:
            print(f"  {site.label} * [{site.operand_text()}]")
        print(
            f"schedule: {report.additions_scheduled} additions, "
            f"{report.multiplications_scheduled} multiplications"
        )
        print(
            f"reconstruction {'ok' if report.ok else 'FAILED'} "
            f"(max deviation {report.max_error:.3e})"
        )
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_bench(args) -> int:
    reps = args.reps
    if reps == 1:
        print("note: single-sample timings, low confidence")
    print(
        "wall time of this Python implementation, informational only; "
        "the audited quantity is the operation count (see `count`)"
    )
    rng = np.random.default_rng(DEFAULT_SEED)
    for n in SUPPORTED_SIZES:
        v = rng.uniform(-1.0, 1.0, n)
        fast_times, naive_times = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            fast_dht(v)
            fast_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            naive_dht(v)
            naive_times.append(time.perf_counter() - t0)
        print(
            f"N={n:>2}  fast median {np.median(fast_times) * 1e6:8.2f} us"
            f"  naive median {np.median(naive_times) * 1e6:8.2f} us"
            f"  ({reps} reps)"
        )
    from ._cgen import backend  # not at module level: only bench needs the C backend

    for n in SUPPORTED_SIZES:
        x = rng.uniform(-1.0, 1.0, (n, BENCH_BLOCKS))
        kernel = kernel_flow(n)
        kernel(x)  # the first array call compiles and loads the C kernel
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            kernel(x)
            times.append(time.perf_counter() - t0)
        print(
            f"array n={n:>2}  backend {backend(n):<6}  median "
            f"{np.median(times) / BENCH_BLOCKS * 1e9:8.2f} ns/block"
            f"  ({BENCH_BLOCKS} blocks, {reps} reps)"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mindht",
        description=(
            "Fast discrete Hartley transforms at block lengths 4, 8, 12, 24 "
            "with minimal multiplication counts."
        ),
        epilog=(
            "Verification signals use NumPy default_rng (PCG64) seeded per "
            f"block length from --seed (default {DEFAULT_SEED})."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="DHT of a signal file")
    p.add_argument("--n", type=int, choices=SUPPORTED_SIZES, help="expected block length")
    p.add_argument("--naive", action="store_true", help="use the direct-summation path (any N)")
    p.add_argument("--in", dest="infile", required=True, help="input signal file")
    p.add_argument("--out", dest="outfile", required=True, help="output spectrum file")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("inverse", help="inverse DHT (direct summation, any N)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_inverse)

    p = sub.add_parser("dft", help="DFT computed through the Hartley route")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=_cmd_dft)

    p = sub.add_parser("verify", help="compare fast kernels against the oracle")
    p.add_argument("--trials", type=int, default=1000, help="random signals per length")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("count", help="audit operation counts against the bounds")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("derive", help="print the factorization of one kernel")
    p.add_argument("--n", type=int, choices=(8, 12, 24), required=True)
    p.add_argument("--layer", type=int, help="restrict output to one layer")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("bench", help="wall-time comparison, informational only")
    p.add_argument("--reps", type=int, default=1000, help="repetitions per kernel")
    p.set_defaults(func=_cmd_bench)

    return parser


# One parser serves every call.  A parser is a web of reference cycles: one
# per call would leave cyclic garbage behind every in-process call, and the
# memory peak of the calls after it would depend on when the collector runs.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error remapped to 3
        return int(exc.code or 0)
    if getattr(args, "trials", 1) < 1 or getattr(args, "reps", 1) < 1:
        print("error: trial/repetition counts must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except SystemExit as exc:  # file errors raised deep in helpers
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: transform, inverse, dft, verify, count, derive.
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

import numpy as np

from .counting import audit_dict, audit_passes, audit_report, audit_table
from .derivation import DerivationError, balance_stages, pre_addition_matrix, verify_decomposition
from .io import SignalParseError, read_signal, write_complex, write_signal
from .kernels import _derived, fast_dht
from .layers import SUPPORTED_SIZES, UnsupportedLengthError, check_order, max_order
from .reference import dht_matrix, dht_to_dft, naive_dht, naive_idht

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_USAGE = 3

DEFAULT_SEED = 2024
VERIFY_TOL_PER_N = 1e-10  # scaled by N; inputs are drawn uniform in [-1, 1]


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
        try:
            spectrum = fast_dht(v, args.n)
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
    spectrum = dht_to_dft(fast_dht(v) if v.size in SUPPORTED_SIZES else naive_dht(v))
    write_complex(args.outfile, spectrum, fmt)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    results = []
    status = EXIT_OK
    for n in SUPPORTED_SIZES:
        # one draw of every trial is the same PCG64 stream as one draw per
        # trial; each row still goes through the one-block fast_dht.  The
        # oracle is one stacked product: an (n, n) matrix times (trials, n, 1)
        # runs BLAS gemv per row, the call naive_dht's M @ v makes, so each
        # row has naive_dht's bits (signals @ M is gemm, which rounds
        # differently)
        signals = np.random.default_rng([args.seed, n]).uniform(-1.0, 1.0, (args.trials, n))
        fast = np.array([fast_dht(v) for v in signals])
        naive = np.matmul(dht_matrix(n), signals[:, :, None])[..., 0]
        worst = float(np.max(np.abs(fast - naive)))
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


def _derive_doc(n: int, orders) -> dict:
    """The derivation of length n's kernel at the given layer orders.

    This is the document `derive --format machine` prints; the text form is
    rendered from it.
    """
    report = verify_decomposition(n)
    stages, _ = balance_stages(n)
    return {
        "n": n,
        "layers": [
            {
                "order": k,
                "pre_addition_matrix": pre_addition_matrix(n, k).tolist(),
                "alphabet": list(report.alphabets[k]),
            }
            for k in orders
        ],
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


def _derive_text(doc: dict) -> str:
    lines = [f"derivation for N={doc['n']}"]
    for layer in doc["layers"]:
        k, alpha = layer["order"], tuple(round(a, 12) for a in layer["alphabet"])
        lines += [f"layer {k}: residual alphabet {alpha}", f"  pre-addition matrix P[{k}]:"]
        for row in layer["pre_addition_matrix"]:
            lines.append("    " + " ".join(f"{x:>2d}" for x in row))
    for z in doc["special_additions"]:
        k = z["source_layer"]
        lines.append(f"special additions (layer-{k} values):")
        for r, (s, i) in z["entries"].items():
            lines.append(f"  V[{r}] <- {'+' if s > 0 else '-'}S{k}[{i}]")
    lines.append("multiplication sites:")
    lines += [f"  {m['constant']} * [{m['operand']}]" for m in doc["multiplication_sites"]]
    ok = "ok" if doc["reconstruction_ok"] else "FAILED"
    lines += [
        f"schedule: {doc['scheduled_additions']} additions, "
        f"{doc['scheduled_multiplications']} multiplications",
        f"reconstruction {ok} (max deviation {doc['max_reconstruction_error']:.3e})",
    ]
    return "\n".join(lines)


def _cmd_derive(args) -> int:
    n = args.n
    try:
        orders = range(max_order(n) + 1) if args.layer is None else [check_order(n, args.layer)]
        text = _derive_output(n, tuple(orders), args.format)
    except DerivationError as exc:  # a listing that derives no factorization
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:  # a --layer out of range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(text)
    return EXIT_OK if verify_decomposition(n).ok else EXIT_FAIL


@_derived
def _derive_output(n: int, orders: tuple, fmt: str) -> str:
    """What ``derive`` prints, made once per kernel record, layer orders and
    format; a replaced flow or listing gets a new record, so new text."""
    doc = _derive_doc(n, orders)
    return json.dumps(doc, sort_keys=True) if fmt == "machine" else _derive_text(doc)


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
    try:
        return args.func(args)
    except SystemExit as exc:  # file errors raised deep in helpers
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())

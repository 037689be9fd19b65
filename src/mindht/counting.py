"""Instrumented operation counting for the fast kernels.

A CountingScalar behaves exactly like a float (same values, same operation
order, bit for bit) while recording every addition, subtraction and
multiplication by a constant as one node of a straight-line program in a
per-invocation OpTally.  The operation counts are counts over those nodes, so
running a kernel on counting scalars *measures* its cost instead of trusting a
hand count, and the audit compares the measurement against the declared
budgets and the multiplicative-complexity lower bounds.

Each kernel's flow is traced in one place, ``_trace``, into one pruned
program, kept in the kernel's record (``kernels._KERNELS``) and read by
``trace(n)``.  It is what count_ops counts, what every kernel call runs
(mindht.replay, mindht._cgen), and what mindht.derivation labels to extract
the kernel's factorization plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import _kernel, kernel_flow
from .layers import SUPPORTED_SIZES, check_size, read_block

__all__ = [
    "OpCount",
    "OpTally",
    "CountingScalar",
    "EXPECTED_COUNTS",
    "MU_LOWER_BOUND",
    "mu_lower_bound",
    "trace",
    "count_ops",
    "AuditRow",
    "audit_report",
    "audit_table",
    "audit_dict",
    "audit_passes",
]

# Declared kernel budgets (additions, multiplications) per block length.
EXPECTED_COUNTS: dict[int, tuple[int, int]] = {
    4: (8, 0),
    8: (22, 2),
    12: (52, 4),
    24: (138, 12),
}

# Minimal number of real multiplications any algorithm needs for these
# transform lengths.
MU_LOWER_BOUND: dict[int, int] = {4: 0, 8: 2, 12: 4, 24: 12}


def mu_lower_bound(n: int) -> int:
    """Minimal multiplicative complexity for block length n."""
    check_size(n)
    return MU_LOWER_BOUND[n]


@dataclass(frozen=True)
class OpCount:
    """Tally of real additions (incl. subtractions) and real multiplications."""

    additions: int
    multiplications: int


class OpTally:
    """Straight-line program recorded by the counting scalars of one invocation.

    nodes[k] is ("in", None, None) for a scalar created directly, ("+", a, b)
    or ("-", a, b) for the sum or difference of nodes a and b, and
    ("*", a, c) for node a times the constant c.  Negation is recorded as a
    multiplication by -1.0.  A program made by ``trace`` also lists the node
    of each flow output in ``outputs``.
    """

    __slots__ = ("nodes", "outputs")

    def __init__(self):
        self.nodes: list[tuple] = []
        self.outputs: list[int] = []

    @property
    def additions(self) -> int:
        return sum(op in ("+", "-") for op, _, _ in self.nodes)

    @property
    def multiplications(self) -> int:
        return sum(op == "*" and c not in (-1.0, 0.0, 1.0) for op, _, c in self.nodes)

    def snapshot(self) -> OpCount:
        return OpCount(self.additions, self.multiplications)


class CountingScalar:
    """Float stand-in that records the operations applied to it.

    Each instance is one node of its tally's program.  Addition and
    subtraction cost one addition each.  Multiplication by a constant outside
    {-1, 0, 1} costs one multiplication; sign flips and trivial constants are
    free (the usual convention for multiplicative complexity).  Scalar-by-scalar products never occur in a linear transform, so
    they raise instead of being silently miscounted.
    """

    __slots__ = ("value", "tally", "node")

    def __init__(self, value: float, tally: OpTally, node=("in", None, None)):
        self.value = float(value)
        self.tally = tally
        tally.nodes.append(node)
        self.node = len(tally.nodes) - 1

    def __add__(self, other):
        if not isinstance(other, CountingScalar):
            return NotImplemented
        return CountingScalar(self.value + other.value, self.tally, ("+", self.node, other.node))

    def __sub__(self, other):
        if not isinstance(other, CountingScalar):
            return NotImplemented
        return CountingScalar(self.value - other.value, self.tally, ("-", self.node, other.node))

    def __neg__(self):
        return CountingScalar(-self.value, self.tally, ("*", self.node, -1.0))

    def _scale(self, const):
        if isinstance(const, CountingScalar):
            raise TypeError("kernels multiply by constants, not by data values")
        c = float(const)
        return CountingScalar(c * self.value, self.tally, ("*", self.node, c))

    def __mul__(self, other):
        return self._scale(other)

    def __rmul__(self, other):
        return self._scale(other)

    def __float__(self):
        return self.value

    def __repr__(self):
        return f"CountingScalar({self.value!r})"


def run_counted(n: int, v) -> tuple[np.ndarray, OpCount]:
    """Run the length-n kernel on v, read by ``layers.read_block``, through
    counting scalars.

    Returns the spectrum (as plain floats) and the measured operation count.
    The numeric path is identical to the float kernel, so the spectrum matches
    the plain-double result bit for bit.
    """
    flow = kernel_flow(n)
    tally = OpTally()
    out = flow([CountingScalar(x, tally) for x in read_block(v, n)])
    return np.array([s.value for s in out]), tally.snapshot()


def trace(n: int) -> OpTally:
    """The program of ``kernels._FLOWS[n]``, traced once per flow and ``LAYER_SPECS[n]``.

    The flows have no data-dependent branches, so one run on counting scalars
    is the program for every input.  It keeps the n inputs and the nodes the
    outputs reach, renumbered in order, so a listing slot no output needs is
    never counted or run.  It is made with the kernel's record, so threads
    making their first calls together share one program.
    """
    return _kernel(check_size(n)).trace


def _trace(n: int, flow) -> OpTally:
    """The pruned program of flow, run once on n counting scalars."""
    raw = OpTally()
    outputs = [s.node for s in flow([CountingScalar(0.0, raw) for _ in range(n)])]
    return _pruned(raw.nodes, outputs, n)


def _pruned(nodes: list[tuple], outputs: list[int], n: int) -> OpTally:
    """The inputs and the nodes that reach an output, renumbered in order."""
    live = set(outputs).union(range(n))
    for k in range(len(nodes) - 1, n - 1, -1):
        if k in live:
            op, a, b = nodes[k]
            live.update((a,) if op == "*" else (a, b))
    new: dict = {None: None}  # an input's operands are None
    prog = OpTally()
    for k in sorted(live):
        op, a, b = nodes[k]
        new[k] = len(prog.nodes)
        prog.nodes.append((op, new[a], b if op == "*" else new[b]))
    prog.outputs = [new[k] for k in outputs]
    return prog


def count_ops(n: int) -> OpCount:
    """The operation count of the length-n kernel, counted over its trace.

    It is counted once per kernel record, when the trace is made, so a
    replaced flow or listing is counted again and a repeated call is a lookup.
    """
    return _kernel(check_size(n)).counts


@dataclass(frozen=True)
class AuditRow:
    n: int
    additions: int
    multiplications: int
    mu: int
    meets_bound: bool


def audit_report(_seed=None, /) -> list[AuditRow]:
    """Measure every kernel and compare against the lower bounds.

    The counts come from each kernel's one trace; the positional argument is
    ignored and only keeps callers of the former ``audit_report(seed)`` working.
    """
    rows = []
    for n in SUPPORTED_SIZES:
        ops, mu = count_ops(n), MU_LOWER_BOUND[n]
        rows.append(AuditRow(n, ops.additions, ops.multiplications, mu, ops.multiplications == mu))
    return rows


def audit_passes(rows: list[AuditRow]) -> bool:
    """True iff every kernel meets its bound and its declared addition count."""
    return all(
        r.meets_bound and (r.additions, r.multiplications) == EXPECTED_COUNTS[r.n]
        for r in rows
    )


def audit_table(rows: list[AuditRow]) -> str:
    """Render audit rows as an aligned text table."""
    header = f"{'N':>4}  {'adds':>6}  {'mults':>6}  {'mu(N)':>6}  {'meets bound':>11}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.n:>4}  {r.additions:>6}  {r.multiplications:>6}  {r.mu:>6}  "
            f"{'yes' if r.meets_bound else 'NO':>11}"
        )
    return "\n".join(lines)


def audit_dict(rows: list[AuditRow]) -> dict:
    """Render audit rows as a machine-readable document."""
    return {
        "kernels": [
            {
                "n": r.n,
                "additions": r.additions,
                "multiplications": r.multiplications,
                "mu_lower_bound": r.mu,
                "meets_bound": r.meets_bound,
            }
            for r in rows
        ],
        "all_meet_bound": all(r.meets_bound for r in rows),
    }

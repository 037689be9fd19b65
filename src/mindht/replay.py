"""The executors of a kernel's one program, ``counting.trace(n)``.

``_Program`` schedules a traced program onto reused register rows: every
node becomes one in-place ufunc call, run chunk by chunk over CHUNK_COLUMNS
columns so the intermediates of a chunk stay in cache, where running a flow
over whole rows would allocate and stream one temporary row per operation.
The schedule (``ops``, ``consts``, ``n_regs``) is what the replay runs on
the float64 batches mindht.kernels does not hand to C ``batch``, what
mindht._cgen turns into one C extension module per length, and what
``_emit`` turns into a straight-line Python function for one block.  All of
them do the same IEEE operations on the same operands in the same order, so
they agree bit for bit.  The schedule and the function are made once per
kernel record (``kernels._KERNELS``), with its trace; which of them runs a
call is decided in mindht.kernels.  This module imports nothing from mindht,
and is imported on the first kernel call or trace, not with mindht.
"""

from __future__ import annotations

import math

import numpy as np

# Columns per chunk of the array path.  At N = 24 one chunk's 38 register
# rows take 2.4 MiB, inside a 4 MiB L2; the chunk-size sweep that picked the
# value is recorded in BENCH_bulk_executor.json.
CHUNK_COLUMNS = 8192

_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply}
_SYMBOLS = {f: op for op, f in _UFUNCS.items()}


class _Program:
    """A flow's traced straight-line program (a ``counting.OpTally``),
    scheduled onto reusable rows.

    Each node of the trace becomes one ``ufunc(a, b, o)`` call writing
    into o, in trace order.  ``a``, ``b`` and ``o`` index one list per
    chunk: the input row views, the output row views, the constants, then
    the register row views.  A register row is released at its value's last
    use, so a node may overwrite its own operand; an output node is written
    straight into its row of the result.  A call allocates its own register
    buffer, so concurrent calls share nothing.
    """

    def __init__(self, n: int, traced):
        nodes, outputs = traced.nodes, traced.outputs
        operands = [(a,) if op == "*" else (a, b) for op, a, b in nodes]
        last_use: dict[int, int] = {}
        for k in range(len(nodes) - 1, n - 1, -1):
            for p in operands[k]:
                last_use.setdefault(p, k)

        out_row: dict[int, int] = {}
        for row, node in enumerate(outputs):
            out_row.setdefault(node, row)
        consts: dict[float, int] = {}
        loc = {i: ("x", i) for i in range(n)}
        free: list[int] = []
        n_regs = 0
        ops = []
        for k in range(n, len(nodes)):
            op, a, b = nodes[k]
            if op == "*":
                args = [("c", consts.setdefault(b, len(consts))), loc[a]]
            else:
                args = [loc[a], loc[b]]
            for p in set(operands[k]):
                if last_use[p] == k and loc[p][0] == "r":
                    free.append(loc[p][1])
            if k in out_row:
                loc[k] = ("y", out_row[k])
            elif free:
                loc[k] = ("r", free.pop())
            else:
                loc[k] = ("r", n_regs)
                n_regs += 1
            ops.append((_UFUNCS[op], *args, loc[k]))
        # an output that is an input, or repeats an earlier output, is a copy
        for row, node in enumerate(outputs):
            if loc[node] != ("y", row):
                ops.append((np.multiply, ("c", consts.setdefault(1.0, len(consts))), loc[node],
                            ("y", row)))

        base = {"x": 0, "y": n, "c": n + len(outputs), "r": n + len(outputs) + len(consts)}
        self.n = n
        self.n_outputs = len(outputs)
        self.n_regs = n_regs
        self.consts = list(consts)
        self.ops = [(f, *(base[kind] + i for kind, i in args)) for f, *args in ops]

    def statements(self, const) -> list[str]:
        """Each op as ``o = a + b`` over rows x0.., y0.., r0.., constant c as const(c)."""
        names = [f"x{i}" for i in range(self.n)] + [f"y{i}" for i in range(self.n_outputs)]
        names += [const(c) for c in self.consts] + [f"r{i}" for i in range(self.n_regs)]
        return [f"{names[o]} = {names[a]} {_SYMBOLS[f]} {names[b]}" for f, a, b, o in self.ops]

    def __call__(self, cols: np.ndarray) -> np.ndarray:
        """The (n_outputs, B) float64 result of (n, B) float64 columns, the twin
        of C ``batch``; its callers have converted them (``layers.to_float64``).

        The ops run without warnings: a chunk whose result overflows gives
        inf or nan silently, as C ``batch`` and the one-block kernels do.
        """
        width = cols.shape[1]
        out = np.empty((self.n_outputs, width))
        regs = np.empty((self.n_regs, min(width, CHUNK_COLUMNS)))
        for c0 in range(0, width, CHUNK_COLUMNS):
            c1 = min(c0 + CHUNK_COLUMNS, width)
            v = [*cols[:, c0:c1], *out[:, c0:c1], *self.consts, *regs[:, : c1 - c0]]
            with np.errstate(over="ignore", invalid="ignore"):
                for f, a, b, o in self.ops:
                    f(v[a], v[b], v[o])
        return out


def _emit(prog: _Program):
    """A scheduled program as a Python function of one block, one local per row.

    Reusing the register names frees each float at its value's last use: one
    local per node kept all of them alive, a quarter more traced memory per
    call at N = 24.  A constant is written as its repr, which reads back as
    the same float.
    """
    lines = ["def kernel(v):", "    " + "".join(f"x{i}, " for i in range(prog.n)) + "= v"]
    lines += ["    " + s for s in prog.statements(repr)]
    lines.append("    return [" + ", ".join(f"y{i}" for i in range(prog.n_outputs)) + "]")
    scope = {"inf": math.inf, "nan": math.nan}
    exec(compile("\n".join(lines), f"<mindht length-{prog.n} kernel>", "exec"), scope)
    return scope["kernel"]


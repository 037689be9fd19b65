"""The Python executor of a kernel's one program, ``counting.trace(n)``.

``_Program`` schedules a traced program onto reused registers (``ops`` and
``n_regs``), and ``_emit`` turns the schedule into a straight-line Python
function of one block, ``fn``.  That function is the one Python executor:
it runs one block of Python floats, and an array call runs it on each chunk
of CHUNK_COLUMNS columns, where every statement is one whole-row NumPy
operation, so the intermediates of a chunk stay in cache.  mindht._cgen
turns the same schedule into one C extension module per length.  Both do
the same IEEE operations on the same operands in the same order, so they
agree bit for bit.  The schedule and the function are made once per kernel
record (``kernels._KERNELS``), with its trace; which of them runs a call is
decided in mindht.kernels.  This module imports nothing from mindht, and is
imported on the first kernel call or trace, not with mindht.
"""

from __future__ import annotations

import math

import numpy as np

# Columns per chunk of the array path.  At N = 24 a chunk's at most 38 live
# register rows take 2.4 MiB, inside a 4 MiB L2; the chunk-size sweeps that
# picked the value are in BENCH_bulk_executor.json and BENCH_one_executor.json.
CHUNK_COLUMNS = 8192


class _Program:
    """A flow's traced straight-line program (a ``counting.OpTally``),
    scheduled onto reusable registers, with its emitted function ``fn``.

    Each node of the trace becomes one op ``(symbol, a, b, o)`` in trace
    order, o = a symbol b, where each operand is an input ("x", i), an
    output ("y", i), a register ("r", i) or a constant ("c", value).  A
    register is released at its value's last use, so a node may overwrite
    its own operand; an output node is written straight into its output.
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
        loc = {i: ("x", i) for i in range(n)}
        free: list[int] = []
        n_regs = 0
        ops = []
        for k in range(n, len(nodes)):
            op, a, b = nodes[k]
            args = [("c", b), loc[a]] if op == "*" else [loc[a], loc[b]]
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
            ops.append((op, *args, loc[k]))
        # an output that is an input, or repeats an earlier output, is a copy
        for row, node in enumerate(outputs):
            if loc[node] != ("y", row):
                ops.append(("*", ("c", 1.0), loc[node], ("y", row)))

        self.n = n
        self.n_outputs = len(outputs)
        self.n_regs = n_regs
        self.ops = ops
        self.fn = _emit(self)

    def statements(self, const) -> list[str]:
        """Each op as ``o = a + b`` over x0.., y0.., r0.., constant c as const(c)."""
        def name(kind, i):
            return const(i) if kind == "c" else f"{kind}{i}"

        return [f"{name(*o)} = {name(*a)} {op} {name(*b)}" for op, a, b, o in self.ops]

    def __call__(self, cols: np.ndarray, out: np.ndarray) -> bool:
        """The kernel on (n, B) float64 columns into the (n_outputs, B) float64
        out, the twin of C ``batch``: whether row 0 of out, V[0], is all finite.
        Its callers have converted the columns (``layers.to_float64``).

        ``fn`` runs once per chunk of CHUNK_COLUMNS columns, on the chunk's
        rows, without warnings: a chunk whose result overflows gives inf or
        nan silently, as C ``batch`` and the one-block kernels do.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            for c0 in range(0, cols.shape[1], CHUNK_COLUMNS):
                out[:, c0:c0 + CHUNK_COLUMNS] = self.fn(cols[:, c0:c0 + CHUNK_COLUMNS])
        return bool(np.isfinite(out[0]).all())


def _emit(prog: _Program):
    """A scheduled program as a Python function of one block, or of the rows of
    a chunk, one local per register.

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


"""Replay of a kernel's traced straight-line program over array columns.

``kernels.kernel_flow(n)`` hands an ndarray with ndim >= 2 to the program of
its flow.  Running the scalar-generic flow over whole rows instead would
allocate one temporary row per operation and stream every intermediate
through memory.  Here the one program that ``counting.trace(n)`` records is
scheduled: every node becomes one in-place ufunc call, and the program runs
chunk by chunk over CHUNK_COLUMNS columns, so the intermediates of a chunk
stay in cache.  Each output is the same IEEE operations on the same operands
in the same order as the flow run on one column's floats, so the result
matches it bit for bit.  The scheduled program (``ops``, ``consts``,
``n_regs``) is also what mindht._cgen turns into C; the replay runs a batch
when the C kernels cannot (another dtype, odd strides, no working compiler).
This module is imported on the first array call, not with mindht.
"""

from __future__ import annotations

import numpy as np

from .counting import OpTally, trace
from .layers import UnsupportedLengthError

# Columns per chunk of the array path.  At N = 24 one chunk's 38 register
# rows take 2.4 MiB, inside a 4 MiB L2; the chunk-size sweep that picked the
# value is recorded in BENCH_bulk_executor.json.
CHUNK_COLUMNS = 8192

_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply}


class _Program:
    """A flow's traced straight-line program, scheduled onto reusable rows.

    Each live node of the trace becomes one ``ufunc(a, b, o)`` call writing
    into o, in trace order.  ``a``, ``b`` and ``o`` index one list per
    chunk: the input row views, the output row views, the constants, then
    the register row views.  A register row is released at its value's last
    use, so a node may overwrite its own operand; an output node is written
    straight into its row of the result.

    Register buffers (n_regs x CHUNK_COLUMNS) outlive the call: allocating
    one per call made large batches about 13% slower in the bulk benchmark.
    A call takes a spare buffer of its dtype, or allocates one, and hands it
    back when done, so concurrent calls never share one.  Every register row
    is written before it is read, so old contents never reach a result.
    """

    def __init__(self, n: int, traced: OpTally):
        nodes, outputs = traced.nodes, traced.outputs
        operands = [(a,) if op == "*" else (a, b) for op, a, b in nodes]
        last_use: dict[int, int] = {}
        live = set(outputs)
        for k in range(len(nodes) - 1, n - 1, -1):
            if k in live:
                for p in operands[k]:
                    live.add(p)
                    last_use.setdefault(p, k)

        out_row: dict[int, int] = {}
        for row, node in enumerate(outputs):
            out_row.setdefault(node, row)
        consts: dict[float, int] = {}
        loc = {i: ("x", i) for i in range(n)}
        free: list[int] = []
        n_regs = 0
        ops = []
        for k in sorted(live - set(range(n))):
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
        self.trace = traced
        self.n = n
        self.n_outputs = len(outputs)
        self.n_regs = n_regs
        self.consts = list(consts)
        self.ops = [(f, *(base[kind] + i for kind, i in args)) for f, *args in ops]
        self._spare: dict[np.dtype, list[np.ndarray]] = {}

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.shape[0] != self.n:
            raise UnsupportedLengthError(
                f"batch has shape {x.shape}, expected ({self.n}, ...): "
                "axis 0 holds the samples of each block"
            )
        dtype = np.result_type(x, float)
        cols = x.reshape(self.n, -1)
        width = cols.shape[1]
        out = np.empty((self.n_outputs, width), dtype)
        spare = self._spare.setdefault(dtype, [])
        try:
            regs = spare.pop()
        except IndexError:
            regs = np.empty((self.n_regs, CHUNK_COLUMNS), dtype)
        try:
            step = regs.shape[1]
            for c0 in range(0, width, step):
                c1 = min(c0 + step, width)
                chunk = cols[:, c0:c1]
                if chunk.dtype != dtype:
                    chunk = chunk.astype(dtype)
                v = [*chunk, *out[:, c0:c1], *self.consts, *regs[:, : c1 - c0]]
                for f, a, b, o in self.ops:
                    f(v[a], v[b], v[o])
        finally:
            spare.append(regs)
        return out.reshape(self.n_outputs, *x.shape[1:])


_PROGRAMS: dict[int, _Program] = {}


def program(n: int) -> _Program:
    """The scheduled program of the length-n kernel's ``counting.trace(n)``.

    The cache keeps one program per n and schedules again when the trace is
    another object, that is when ``kernels._FLOWS[n]`` was replaced.
    """
    t = trace(n)
    prog = _PROGRAMS.get(n)
    if prog is None or prog.trace is not t:
        prog = _PROGRAMS[n] = _Program(n, t)
    return prog

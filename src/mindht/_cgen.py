"""C kernels generated from the traced program, for the array path.

``kernels.kernel_flow(n)(X)`` on a float64 ndarray runs a C function emitted
from the kernel's one trace, ``counting.trace(n)``, as mindht.replay
schedules it: its ``ops``, ``consts`` and ``n_regs``, so the kernel is still
described only once, by its ``*_flow`` and its layer listing.  The function
walks the batch in blocks of W columns.  Every input, output and register is
one GCC vector-extension value of W doubles, so each node is one vector
operation; a block is loaded from each input row and stored into each row of
the C-contiguous (n_outputs, B) result directly.  Only a column stride other
than 1 and the last, partial block go through a local block of W columns.
The function takes element strides for rows and columns, so Fortran-ordered,
transposed and reversed inputs need no copy.

Bit identity: every node is one IEEE double operation per lane on the same
operands in the same order as in the replay, constants are ``float.hex()``
literals, and the compiler flags (FLAGS) allow no contraction or
reassociation.  ``-march=native`` only picks the vector instructions.  The
source refuses to compile unless double arithmetic rounds to double, that is
unless FLT_EVAL_METHOD is 0, 1, 16, 32 or 64 (C23 5.2.4.2.2; gcc reports 16
on x86-64 with AVX512-FP16).

The source is compiled once per kernel and process, on the first array call
for that length (0.15-0.3 s per N with gcc 12 on a 2.1 GHz Xeon), into a
shared object in a private per-process temporary directory that is removed
at exit; nothing is cached between processes.  The kernel table is keyed on
the trace object, so threads whose first calls race compile once, and a
replaced ``kernels._FLOWS[n]`` or ``LAYER_SPECS[n]`` is traced again and so
compiled again.  After loading, each object runs once on a fixed batch of
signed zeros, subnormals and mixed magnitudes, and on a column-strided view
of it, and must equal the replay bit for bit; an object that does not is not
used.

The replay runs instead when no compiler is found (``$CC``, else ``cc``) or
compiling or loading fails (one RuntimeWarning per process; a compiler that
refuses ``-march=native`` is such a failure), when the object fails the check
above (likewise), and for any input that is not native, aligned float64 with
strides that are multiples of 8 bytes.  This module is imported on the first
array call, not with mindht, and compiles nothing before that call.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import shlex
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

from .replay import program

# Columns per block.  At N = 24 the 86 vector values of a block take 11 KiB,
# and W = 32 took 0.7 s to compile against 0.3 s.
W = 16
FLAGS = ("-O3", "-march=native", "-fPIC", "-shared", "-ffp-contract=off")

_F64 = np.dtype(np.float64)
_ARGTYPES = [ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_void_p,
             ctypes.c_ssize_t]

_TEMPLATE = """\
/* Length-{n} DHT kernel, generated by mindht._cgen from the traced program. */
#include <float.h>
#include <stddef.h>
#include <string.h>
#if !defined(FLT_EVAL_METHOD) || !(FLT_EVAL_METHOD == 0 || FLT_EVAL_METHOD == 1 \\
    || FLT_EVAL_METHOD == 16 || FLT_EVAL_METHOD == 32 || FLT_EVAL_METHOD == 64)
#error "double arithmetic must round to double"
#endif
#define W {w}
typedef double vd __attribute__((vector_size(W * sizeof(double))));

void mindht_kernel(const double *x, ptrdiff_t rs, ptrdiff_t cs, double *y, ptrdiff_t width)
{{
    double xb[{n}][W], yb[{n_out}][W];
    for (ptrdiff_t c0 = 0; c0 < width; c0 += W) {{
        ptrdiff_t w = width - c0 < W ? width - c0 : W, ps = rs, qs = width;
        const double *p = x + c0 * cs;
        double *q = y + c0;
        if (cs != 1 || w < W) {{
            for (ptrdiff_t i = 0; i < {n}; i++)
                for (ptrdiff_t j = 0; j < W; j++)
                    xb[i][j] = j < w ? p[i * rs + j * cs] : 0.0;
            p = xb[0];
            ps = W;
        }}
        if (w < W) {{
            q = yb[0];
            qs = W;
        }}
{body}
        if (w < W)
            for (ptrdiff_t i = 0; i < {n_out}; i++)
                memcpy(y + i * width + c0, yb[i], w * sizeof(double));
    }}
}}
"""


def source(prog) -> str:
    """The C source of a traced program (a ``replay._Program``)."""
    n, n_out = prog.n, prog.n_outputs
    pad = " " * 8
    lines = [pad + "vd " + ", ".join(f"x{i}" for i in range(n)) + ";"]
    lines += [f"{pad}memcpy(&x{i}, &p[{i} * ps], sizeof(vd));" for i in range(n)]
    lines.append(pad + "vd " + ", ".join(
        [f"y{i}" for i in range(n_out)] + [f"r{i}" for i in range(prog.n_regs)]) + ";")
    lines += [f"{pad}{s};" for s in prog.statements(lambda c: f"({c.hex()})")]
    lines += [f"{pad}memcpy(&q[{i} * qs], &y{i}, sizeof(vd));" for i in range(n_out)]
    return _TEMPLATE.format(n=n, n_out=n_out, w=W, body="\n".join(lines))


def find_compiler() -> list[str] | None:
    """``$CC`` (or ``cc``) as an argument list with its program resolved, or None."""
    words = shlex.split(os.environ.get("CC") or "cc")
    path = shutil.which(words[0]) if words else None
    return [path, *words[1:]] if path else None


_dir: Path | None = None


def _build(src: str, cc: list[str]) -> Path:
    """Compile src into a new object in this process's private temporary directory.

    Objects stay until exit, so no path or inode of a loaded object is reused for
    another: the dynamic loader would hand back the library already loaded.
    """
    global _dir
    if _dir is None:
        _dir = Path(tempfile.mkdtemp(prefix="mindht-"))
        atexit.register(shutil.rmtree, _dir, True)
    fd, path = tempfile.mkstemp(suffix=".so", dir=_dir)
    os.close(fd)
    subprocess.run([*cc, *FLAGS, "-o", path, "-x", "c", "-"], input=src, errors="replace",
                   capture_output=True, check=True, timeout=300)
    return Path(path)


def _call(fn, cols: np.ndarray, n_out: int) -> np.ndarray:
    width = cols.shape[1]
    out = np.empty((n_out, width))
    if width:  # an empty buffer has no address to read
        rs, cs = cols.strides
        # the address of the fresh result, read faster than through out.ctypes
        fn(cols.ctypes.data, rs // 8, cs // 8, ctypes.addressof(ctypes.c_char.from_buffer(out)),
           width)
    return out


def _check_batch(n: int) -> np.ndarray:
    """5*W + 3 columns (full blocks and a partial one) of mixed magnitudes,
    signed zeros and subnormals."""
    rng = np.random.default_rng(n)
    shape = (n, 5 * W + 3)
    x = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-300, 300, shape)
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -1.0]
    mask = rng.random(shape) < 0.25
    x[mask] = rng.choice(specials, int(mask.sum()))
    x[:, [0, W, -1]] = -0.0
    x[:, [1, W + 1]] = 0.0
    return x


def _agrees(prog, fn) -> bool:
    """Whether fn equals the replay on the check batch and on a column-strided
    view of it, which runs the local-block gather."""
    x = _check_batch(prog.n)
    return all(_call(fn, v, prog.n_outputs).tobytes() == prog(v).tobytes()
               for v in (x, x[:, ::-2]))


_warned = False


def _warn(msg: str) -> None:
    global _warned
    if not _warned:
        _warned = True
        warnings.warn(f"mindht: {msg}; kernel_flow runs the NumPy replay", RuntimeWarning)


def _load(prog):
    """The checked C function of prog, compiled now, or None."""
    cc = find_compiler()
    if cc is None:
        _warn("no C compiler found ($CC or cc)")
        return None
    try:
        lib = ctypes.CDLL(str(_build(source(prog), cc)))
    except subprocess.CalledProcessError as e:
        detail = e.stderr.strip()[-300:] or f"exit status {e.returncode}"
        _warn(f"compiling the length-{prog.n} kernel failed ({detail})")
        return None
    except (OSError, subprocess.SubprocessError) as e:
        _warn(f"building or loading the length-{prog.n} kernel failed ({e})")
        return None
    fn = lib.mindht_kernel
    fn.argtypes, fn.restype = _ARGTYPES, None
    fn.lib = lib  # keep the library loaded while fn lives
    if not _agrees(prog, fn):
        _warn(f"the compiled length-{prog.n} kernel disagreed with the replay")
        return None
    return fn


# n -> (trace, its checked C function or None); one lock guards loading.
_KERNELS: dict[int, tuple] = {}
_LOCK = threading.Lock()


def _kernel(prog):
    hit = _KERNELS.get(prog.n)
    if hit is None or hit[0] is not prog.trace:
        with _LOCK:
            hit = _KERNELS.get(prog.n)
            if hit is None or hit[0] is not prog.trace:
                hit = _KERNELS[prog.n] = (prog.trace, _load(prog))
    return hit[1]


def run(n: int, x: np.ndarray) -> np.ndarray:
    """``kernel_flow(n)(x)`` for an ndarray x with ndim >= 2."""
    prog = program(n)
    if x.dtype == _F64 and x.shape[0] == n:
        cols = x.reshape(n, -1)
        if cols.flags.aligned and not (cols.strides[0] % 8 or cols.strides[1] % 8):
            fn = _kernel(prog)
            if fn is not None:
                return _call(fn, cols, prog.n_outputs).reshape(prog.n_outputs, *x.shape[1:])
    return prog(x)


def backend(n: int) -> str:
    """``"c"`` or ``"replay"``: what runs float64 arrays for length n now."""
    return "c" if _kernel(program(n)) is not None else "replay"

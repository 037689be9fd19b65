"""C kernels generated from the traced program: one CPython extension per N.

The module of a length emits the kernel's one trace, ``counting.trace(n)``,
as mindht.replay schedules it (its ``ops``, ``consts`` and ``n_regs``, as
``_Program.statements``), so the kernel is still described only once, by its
``*_flow`` and its layer listing.  It has two ``METH_FASTCALL`` entry points
that take their arrays through the buffer protocol (PEP 3118):

``block(x, y)``
    One block: x is a 1-D float64 array of n samples, any stride; y a
    C-contiguous float64 array it writes the n_outputs results into.  The
    registers are scalar ``double`` locals.  It raises ``ValueError("signal
    contains non-finite samples")`` before computing anything if a sample is
    inf or nan.  ``fast_dht`` calls it (see ``kernels.COMPILE_AFTER``).
``batch(x, y)``
    ``kernel_flow(n)(X)`` on float64 arrays: x is (n, B) with element
    strides, y the C-contiguous (n_outputs, B) result.  It walks the batch
    in blocks of W columns.  Every input, output and register is one GCC
    vector-extension value of W doubles, so each node is one vector
    operation; a block is loaded from each input row and stored into each
    row of the result directly.  Only a column stride other than 1 and the
    last, partial block go through a local block of W columns, so
    Fortran-ordered, transposed and reversed inputs need no copy.  It runs
    without the interpreter lock.

Bit identity: every node is one IEEE double operation (per lane) on the same
operands in the same order as in the replay and the emitted Python function,
constants are ``float.hex()`` literals, and the compiler flags (FLAGS) allow
no contraction or reassociation.  ``-march=native`` only picks the vector
instructions.  The source refuses to compile unless double arithmetic rounds
to double, that is unless FLT_EVAL_METHOD is 0, 1, 16, 32 or 64 (C23
5.2.4.2.2; gcc reports 16 on x86-64 with AVX512-FP16).

A module is compiled at most once per kernel and process, into a shared
object in a private per-process temporary directory that is removed at exit,
with ``Python.h`` from ``sysconfig.get_paths()["include"]``; nothing is
cached between processes.  The first array call for a length compiles it
then and there (0.2-0.5 s per N with gcc 12 on a 2.1 GHz Xeon); a one-block
call never waits for it: ``fast_dht`` compiles on a background thread after
``kernels.COMPILE_AFTER`` calls.  At exit a compiler still running is
killed before the directory is removed.  The module is kept in the kernel's
record (``kernels._KERNELS``) and one lock covers loading, so threads and
the background compile share one load, and a replaced ``kernels._FLOWS[n]``
or ``LAYER_SPECS[n]``, which gets a new record, is compiled again.  After
loading, ``batch`` runs once on a fixed batch of signed zeros, subnormals
and mixed magnitudes and on a column-strided view of it, and must equal the
replay bit for bit; ``block`` runs on every column of that batch and must
equal the record's Python function bit for bit.  A module that fails either
is not used.

The replay and the Python function run instead when no compiler is found
(``$CC``, else ``cc``), ``Python.h`` is missing, or compiling or loading fails
(one RuntimeWarning per process; a compiler that refuses ``-march=native`` is
such a failure), when the module fails the check above (likewise), and the
replay for any array that is not native, aligned float64 with strides that
are multiples of 8 bytes.  This module is imported on the first array call
or background compile, not with mindht, and compiles nothing before that.
"""

from __future__ import annotations

import atexit
import importlib.machinery
import importlib.util
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

from .kernels import _UNTRIED, _kernel
from .layers import check_size

# Columns per block of ``batch``.  At N = 24 the 86 vector values of a block
# take 11 KiB, and W = 32 took 0.7 s to compile against 0.3 s.
W = 16
FLAGS = ("-O3", "-march=native", "-fPIC", "-shared", "-ffp-contract=off")

_F64 = np.dtype(np.float64)

_TEMPLATE = """\
/* Length-{n} DHT kernel, generated by mindht._cgen from the traced program. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#if !defined(FLT_EVAL_METHOD) || !(FLT_EVAL_METHOD == 0 || FLT_EVAL_METHOD == 1 \\
    || FLT_EVAL_METHOD == 16 || FLT_EVAL_METHOD == 32 || FLT_EVAL_METHOD == 64)
#error "double arithmetic must round to double"
#endif
#define N {n}
#define N_OUT {n_out}
#define W {w}
typedef double vd __attribute__((vector_size(W * sizeof(double))));

/* One block from x (byte stride s) into y; 0 if a sample is not finite. */
static int run_block(const char *x, Py_ssize_t s, double *y)
{{
{block}
    return 1;
}}

static void run_batch(const double *x, ptrdiff_t rs, ptrdiff_t cs, double *y, ptrdiff_t width)
{{
    double xb[N][W], yb[N_OUT][W];
    for (ptrdiff_t c0 = 0; c0 < width; c0 += W) {{
        ptrdiff_t w = width - c0 < W ? width - c0 : W, ps = rs, qs = width;
        const double *p = x + c0 * cs;
        double *q = y + c0;
        if (cs != 1 || w < W) {{
            for (ptrdiff_t i = 0; i < N; i++)
                for (ptrdiff_t j = 0; j < W; j++)
                    xb[i][j] = j < w ? p[i * rs + j * cs] : 0.0;
            p = xb[0];
            ps = W;
        }}
        if (w < W) {{
            q = yb[0];
            qs = W;
        }}
{batch}
        if (w < W)
            for (ptrdiff_t i = 0; i < N_OUT; i++)
                memcpy(y + i * width + c0, yb[i], w * sizeof(double));
    }}
}}

/* A native float64 buffer: format "d", "=d" or "@d" and 8-byte items. */
static int is_f64(const Py_buffer *b)
{{
    const char *f = b->format;
    if (*f == '=' || *f == '@')
        f++;
    return f[0] == 'd' && f[1] == '\\0' && b->itemsize == sizeof(double);
}}

static PyObject *block(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{{
    Py_buffer x, y;
    PyObject *res = NULL;
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "block() takes 2 arguments (%zd given)", nargs);
    if (PyObject_GetBuffer(args[0], &x, PyBUF_RECORDS_RO) < 0)
        return NULL;
    if (PyObject_GetBuffer(args[1], &y, PyBUF_WRITABLE | PyBUF_FORMAT) < 0) {{
        PyBuffer_Release(&x);
        return NULL;
    }}
    if (!is_f64(&x) || x.ndim != 1 || x.shape[0] != N || !is_f64(&y)
        || y.len != N_OUT * (Py_ssize_t)sizeof(double))
        PyErr_SetString(PyExc_TypeError, "block(x, y) takes float64 arrays of "
                        "N samples and N_OUT contiguous results");
    else if (!run_block(x.buf, x.strides[0], y.buf))
        PyErr_SetString(PyExc_ValueError, "signal contains non-finite samples");
    else
        res = Py_NewRef(Py_None);
    PyBuffer_Release(&y);
    PyBuffer_Release(&x);
    return res;
}}

static PyObject *batch(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{{
    Py_buffer x, y;
    PyObject *res = NULL;
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError, "batch() takes 2 arguments (%zd given)", nargs);
    if (PyObject_GetBuffer(args[0], &x, PyBUF_RECORDS_RO) < 0)
        return NULL;
    if (PyObject_GetBuffer(args[1], &y, PyBUF_WRITABLE | PyBUF_FORMAT | PyBUF_ND) < 0) {{
        PyBuffer_Release(&x);
        return NULL;
    }}
    if (!is_f64(&x) || x.ndim != 2 || x.shape[0] != N || (uintptr_t)x.buf % sizeof(double)
        || x.strides[0] % (Py_ssize_t)sizeof(double) || x.strides[1] % (Py_ssize_t)sizeof(double)
        || !is_f64(&y) || y.ndim != 2 || y.shape[0] != N_OUT || y.shape[1] != x.shape[1])
        PyErr_SetString(PyExc_TypeError, "batch(x, y) takes an aligned float64 (N, B) array "
                        "and a C-contiguous float64 (N_OUT, B) result");
    else {{
        Py_BEGIN_ALLOW_THREADS
        run_batch(x.buf, x.strides[0] / (Py_ssize_t)sizeof(double),
                  x.strides[1] / (Py_ssize_t)sizeof(double), y.buf, x.shape[1]);
        Py_END_ALLOW_THREADS
        res = Py_NewRef(Py_None);
    }}
    PyBuffer_Release(&y);
    PyBuffer_Release(&x);
    return res;
}}

static PyMethodDef methods[] = {{
    {{"block", (PyCFunction)(void (*)(void))block, METH_FASTCALL, "block(x, y): one block"}},
    {{"batch", (PyCFunction)(void (*)(void))batch, METH_FASTCALL, "batch(x, y): (N, B) columns"}},
    {{NULL, NULL, 0, NULL}},
}};

static struct PyModuleDef module = {{PyModuleDef_HEAD_INIT, "{name}", NULL, -1, methods}};

PyMODINIT_FUNC PyInit_{name}(void)
{{
    return PyModule_Create(&module);
}}
"""


def _name(n: int) -> str:
    return f"mindht_dht{n}"


def source(prog) -> str:
    """The C source of the extension module of a traced program (a ``replay._Program``)."""
    n, n_out = prog.n, prog.n_outputs
    xs = [f"x{i}" for i in range(n)]
    rows = [f"y{i}" for i in range(n_out)] + [f"r{i}" for i in range(prog.n_regs)]
    statements = prog.statements(lambda c: f"({c.hex()})")

    pad = " " * 4
    block = [pad + "double " + ", ".join(xs) + ";"]
    block += [f"{pad}memcpy(&x{i}, x + {i} * s, sizeof(double));" for i in range(n)]
    block.append(pad + "if (!(" + " && ".join(f"isfinite(x{i})" for i in range(n)) + "))")
    block.append(pad + "    return 0;")
    block.append(pad + "double " + ", ".join(rows) + ";")
    block += [f"{pad}{s};" for s in statements]
    block += [f"{pad}y[{i}] = y{i};" for i in range(n_out)]

    pad = " " * 8
    batch = [pad + "vd " + ", ".join(xs) + ";"]
    batch += [f"{pad}memcpy(&x{i}, &p[{i} * ps], sizeof(vd));" for i in range(n)]
    batch.append(pad + "vd " + ", ".join(rows) + ";")
    batch += [f"{pad}{s};" for s in statements]
    batch += [f"{pad}memcpy(&q[{i} * qs], &y{i}, sizeof(vd));" for i in range(n_out)]
    return _TEMPLATE.format(n=n, n_out=n_out, w=W, name=_name(n), block="\n".join(block),
                            batch="\n".join(batch))


def find_compiler() -> list[str] | None:
    """``$CC`` (or ``cc``) as an argument list with its program resolved, or None."""
    words = shlex.split(os.environ.get("CC") or "cc")
    path = shutil.which(words[0]) if words else None
    return [path, *words[1:]] if path else None


_dir: Path | None = None
_owner = 0  # the process that made _dir; a forked child leaves both alone
_compilers: set[subprocess.Popen] = set()  # running now; killed at exit
_closing = False
_BUILD_LOCK = threading.Lock()


def _close() -> None:
    """At exit: kill the compilers still running, then remove the object directory.

    A background compile runs on a daemon thread, which exit does not wait for.
    """
    global _closing
    if os.getpid() != _owner:
        return
    with _BUILD_LOCK:
        _closing = True
        for proc in _compilers:
            proc.kill()
            proc.wait()
    if _dir is not None:
        shutil.rmtree(_dir, True)


def _build(src: str, cc: list[str]) -> Path:
    """Compile src into a new object in this process's private temporary directory.

    Objects stay until exit, so no path or inode of a loaded object is reused for
    another: the dynamic loader would hand back the library already loaded.
    """
    global _dir, _owner
    with _BUILD_LOCK:
        if _closing:
            raise OSError("the interpreter is exiting")
        if _dir is None:
            _dir, _owner = Path(tempfile.mkdtemp(prefix="mindht-")), os.getpid()
            atexit.register(_close)
        fd, path = tempfile.mkstemp(suffix=".so", dir=_dir)
        os.close(fd)
        cmd = [*cc, *FLAGS, "-o", path, "-x", "c", "-"]
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, errors="replace")
        _compilers.add(proc)
    try:
        out, err = proc.communicate(src, timeout=300)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    finally:
        with _BUILD_LOCK:
            _compilers.discard(proc)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd, out, err)
    return Path(path)


def _import(path: Path, n: int):
    """The extension module in the object at path."""
    loader = importlib.machinery.ExtensionFileLoader(_name(n), str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_name(n), loader))
    loader.exec_module(module)
    return module


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


def _agrees(k, module) -> bool:
    """Whether ``batch`` equals the replay on the check batch and on a
    column-strided view of it, which runs the local-block gather, and ``block``
    equals the Python function of kernel record k on each (strided) column of it."""
    prog = k.prog
    x = _check_batch(prog.n)
    for v in (x, x[:, ::-2]):
        out = np.empty((prog.n_outputs, v.shape[1]))
        module.batch(v, out)
        if out.tobytes() != prog(v).tobytes():
            return False
    out = np.empty(prog.n_outputs)
    for v in x.T:
        module.block(v, out)
        if out.tobytes() != np.array(k.fn(v.tolist())).tobytes():
            return False
    return True


_warned = False


def _warn(msg: str) -> None:
    global _warned
    if not (_warned or _closing):
        _warned = True
        warnings.warn(f"mindht: {msg}; kernel_flow runs the NumPy replay and fast_dht "
                      "the Python kernel", RuntimeWarning)


def _load(k):
    """The checked extension module of kernel record k, compiled now, or None."""
    prog = k.prog
    cc = find_compiler()
    if cc is None:
        _warn("no C compiler found ($CC or cc)")
        return None
    include = sysconfig.get_paths()["include"]
    if not os.path.isfile(os.path.join(include, "Python.h")):
        _warn(f"Python.h not found in {include}")
        return None
    try:
        module = _import(_build(source(prog), [*cc, "-I", include]), prog.n)
    except subprocess.CalledProcessError as e:
        detail = e.stderr.strip()[-300:] or f"exit status {e.returncode}"
        _warn(f"compiling the length-{prog.n} kernel failed ({detail})")
        return None
    except (ImportError, OSError, subprocess.SubprocessError) as e:
        _warn(f"building or loading the length-{prog.n} kernel failed ({e})")
        return None
    if not _agrees(k, module):
        _warn(f"the compiled length-{prog.n} kernel disagreed with the replay")
        return None
    return module


_LOCK = threading.Lock()  # guards loading


def _loaded(k):
    """The checked extension module of kernel record k, loaded into it on first use, or None."""
    if k.module is _UNTRIED:
        with _LOCK:
            if k.module is _UNTRIED:
                k.module = _load(k)
    return k.module


def run(n: int, x: np.ndarray) -> np.ndarray:
    """``kernel_flow(n)(x)`` for an ndarray x with ndim >= 2."""
    k = _kernel(check_size(n))
    prog = k.prog
    if x.dtype == _F64 and x.shape[0] == n:
        cols = x.reshape(n, -1)
        if cols.flags.aligned and not (cols.strides[0] % 8 or cols.strides[1] % 8):
            module = _loaded(k)
            if module is not None:
                out = np.empty((prog.n_outputs, cols.shape[1]))
                module.batch(cols, out)
                return out.reshape(prog.n_outputs, *x.shape[1:])
    return prog(x)


def backend(n: int) -> str:
    """``"c"`` or ``"replay"``: what runs float64 arrays for length n now."""
    return "c" if _loaded(_kernel(check_size(n))) is not None else "replay"

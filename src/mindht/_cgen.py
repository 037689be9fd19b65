"""C kernels generated from the traced program: one CPython extension per N.

``load(prog, fn)`` builds, loads and checks the module of a kernel's
scheduled program (a ``replay._Program``) and its Python function fn, which
mindht.kernels keeps in the kernel's record.  The module emits the kernel's
one trace, ``counting.trace(n)``, as mindht.replay schedules it (its
``ops`` and ``n_regs``, through ``_Program.statements``), so the
kernel is still described only once, by its ``*_flow`` and its layer
listing.  It has three ``METH_FASTCALL`` entry points.  The first two take
one argument, an exact list or tuple of n exact Python floats, whose values
they read in place, or any 1-D native float64 array or buffer of n samples,
any stride: an exact ndarray through NumPy's C API, which keeps nothing on
it, any other buffer (an ndarray subclass, a memoryview) through PEP 3118;
that contract is written once, in the module's ``read_block``.  They raise
``ValueError`` before computing anything if a sample is inf or nan, and
return ``NotImplemented`` for any other argument (ints, bools, strings,
float subclasses such as ``np.float64`` items, complex or other dtypes,
nesting, another length or shape):

``block(v)``
    One block, returned as a new float64 array of n_outputs values that it
    makes with NumPy's C API.  The registers are scalar ``double`` locals.
    Its error is ``ValueError("signal contains non-finite samples")``.
``dft(V)``
    ``reference.dht_to_dft`` of a Hartley spectrum V, returned as a new
    complex128 array of n values that it makes with NumPy's C API.  Each bin
    takes the IEEE operations of the NumPy bridge
    (``reference._dft_bridge``) in its order, so the bits are the same,
    inf and nan from overflowing sums included.  Its error is
    ``ValueError("spectrum contains non-finite samples")``.
``batch(x, y)``
    The kernel on float64 arrays, through the buffer protocol: x is (n, B)
    with element strides, y the C-contiguous (n_outputs, B) result.  It
    walks the batch in blocks of W columns.  Every input, output and
    register is one GCC vector-extension value of W doubles, so each node is
    one vector operation; a block is loaded from each input row and stored
    into each row of the result directly.  Only a column stride other than 1
    and the last, partial block go through a local block of W columns, so
    Fortran-ordered, transposed and reversed inputs need no copy.  It runs
    without the interpreter lock.

Bit identity: every node is one IEEE double operation (per lane) on the same
operands in the same order as in the emitted Python function, constants
are ``float.hex()`` literals, and the compiler flags (FLAGS) allow no
contraction or reassociation.  ``-march=native`` only picks the vector
instructions.  The source refuses to compile unless double arithmetic rounds
to double, that is unless FLT_EVAL_METHOD is 0, 1, 16, 32 or 64 (C23
5.2.4.2.2; gcc reports 16 on x86-64 with AVX512-FP16).

Each object is compiled into a private per-process temporary directory that
is removed at exit, with ``Python.h`` from ``sysconfig.get_paths()["include"]``
and ``numpy/arrayobject.h`` from ``numpy.get_include()`` (``_include_flags``),
and loaded from there.  A copy of each object that passed its check is kept
between processes in ``$XDG_CACHE_HOME/mindht`` (else ``~/.cache/mindht``),
a directory of mode 0700 that is used only while this user owns it and no
one else may write to it.  The object's name holds a hash of its source, the
compiler command and FLAGS, the macros the compiler defines for
``-march=native`` (its version and the CPU's instruction set) and the
CPython and NumPy versions, so a later process loads it in about 10 ms
instead of compiling it in 0.2-0.4 s.  A copy is written to a temporary
file and renamed into place, so no process sees a partial object, and only
the ``_KEEP`` newest objects of each length stay.  The macro probe runs
once per compiler command and process, and its result is kept.  Compilers
and that probe are killed at exit before the directory is removed; a forked
child forgets the parent's directory and makes its own.

After loading, cached or not, ``batch`` runs once on a fixed batch of signed
zeros, subnormals and mixed magnitudes and on a column-strided view of it,
and must equal ``prog`` on it (fn run once per column chunk) bit for bit;
``block`` runs on every column of that batch, as a list of floats, as the
strided column and as a memoryview of it, so both array branches of
``read_block`` are checked, and must equal fn bit for bit, and so must
``dft`` against the NumPy bridge.  A cached object that fails to load or
fails this check is deleted and built again, silently.  ``load`` returns
None, with one RuntimeWarning per process, when no compiler is found
(``$CC``, else ``cc``), ``Python.h`` or ``numpy/arrayobject.h`` is missing,
compiling or loading a fresh object fails (a compiler that refuses
``-march=native`` is such a failure), or the module fails the check.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import importlib.machinery
import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

from .reference import _dft_bridge

# Columns per block of ``batch``.  At N = 24 the 86 vector values of a block
# take 11 KiB, and W = 32 took 0.7 s to compile against 0.3 s.
W = 16
FLAGS = ("-O3", "-march=native", "-fPIC", "-shared", "-ffp-contract=off")
_EXT_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]
# Cached objects kept per length.  Each new compiler, ISA, NumPy or mindht
# version adds one; older ones are deleted as newer ones are published.
_KEEP = 4


_TEMPLATE = """\
/* Length-{n} DHT kernel, generated by mindht._cgen from the traced program. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
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

/* One block from the N samples at x into y. */
static void run_block(const double *x, double *y)
{{
{block}
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

/* The one-block input contract of block and dft, read into xs: an exact list
   or tuple of N exact floats, read in place, or any 1-D float64 buffer of N
   samples at any stride.  An exact ndarray is read through NumPy's C API,
   which keeps no buffer information on it; any other buffer (an ndarray
   subclass, a memoryview, an array.array) through PEP 3118.  1 if read; -1
   with ValueError("<what> contains non-finite samples") if a sample is inf or
   nan; 0 for any other v, which the entry points hand back as NotImplemented. */
static int read_block(PyObject *v, double xs[N], const char *what)
{{
    if (PyList_CheckExact(v) || PyTuple_CheckExact(v)) {{
        PyObject **items = PySequence_Fast_ITEMS(v);
        if (PySequence_Fast_GET_SIZE(v) != N)
            return 0;
        for (Py_ssize_t i = 0; i < N; i++) {{
            if (!PyFloat_CheckExact(items[i]))
                return 0;
            xs[i] = PyFloat_AS_DOUBLE(items[i]);
        }}
    }}
    else if (PyArray_CheckExact(v)) {{
        PyArrayObject *a = (PyArrayObject *)v;
        if (PyArray_TYPE(a) != NPY_DOUBLE || !PyArray_ISNOTSWAPPED(a) || PyArray_NDIM(a) != 1
            || PyArray_DIM(a, 0) != N)
            return 0;
        const char *p = PyArray_BYTES(a);
        npy_intp s = PyArray_STRIDE(a, 0);
        for (Py_ssize_t i = 0; i < N; i++)
            memcpy(&xs[i], p + i * s, sizeof(double));
    }}
    else {{
        Py_buffer b;
        if (!PyObject_CheckBuffer(v))
            return 0;
        if (PyObject_GetBuffer(v, &b, PyBUF_RECORDS_RO) < 0) {{
            PyErr_Clear();
            return 0;
        }}
        int ok = is_f64(&b) && b.ndim == 1 && b.shape[0] == N;
        if (ok)
            for (Py_ssize_t i = 0; i < N; i++)
                memcpy(&xs[i], (const char *)b.buf + i * b.strides[0], sizeof(double));
        PyBuffer_Release(&b);
        if (!ok)
            return 0;
    }}
    for (Py_ssize_t i = 0; i < N; i++)
        if (!isfinite(xs[i])) {{
            PyErr_Format(PyExc_ValueError, "%s contains non-finite samples", what);
            return -1;
        }}
    return 1;
}}

/* One block of v, as a new float64 array; NotImplemented if read_block declines v. */
static PyObject *block(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{{
    double x[N];
    npy_intp dims[1] = {{N_OUT}};
    if (nargs != 1)
        return PyErr_Format(PyExc_TypeError, "block() takes 1 argument (%zd given)", nargs);
    int r = read_block(args[0], x, "signal");
    if (r <= 0)
        return r ? NULL : Py_NewRef(Py_NotImplemented);
    PyObject *y = PyArray_SimpleNew(1, dims, NPY_DOUBLE);
    if (y != NULL)
        run_block(x, PyArray_DATA((PyArrayObject *)y));
    return y;
}}

/* The DFT of the Hartley spectrum v, as a new complex128 array; NotImplemented
   if read_block declines v.  Bin k, with a = V[k] and b = V[(N - k) % N], takes
   the IEEE operations of reference._dft_bridge in its order: s = a + b,
   d = a - b, z = d * 0.0 (a zero with the sign of d), then s * 0.5 - z and
   z - d * 0.5.  Without -ffast-math the compiler may not fold d * 0.0. */
static PyObject *dft(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{{
    double v[N];
    npy_intp dims[1] = {{N}};
    if (nargs != 1)
        return PyErr_Format(PyExc_TypeError, "dft() takes 1 argument (%zd given)", nargs);
    int r = read_block(args[0], v, "spectrum");
    if (r <= 0)
        return r ? NULL : Py_NewRef(Py_NotImplemented);
    PyObject *u = PyArray_SimpleNew(1, dims, NPY_CDOUBLE);
    if (u == NULL)
        return NULL;
    double *p = PyArray_DATA((PyArrayObject *)u);
    for (int k = 0; k < N; k++) {{
        double a = v[k], b = v[(N - k) % N];
        double s = a + b, d = a - b, z = d * 0.0;
        p[2 * k] = s * 0.5 - z;
        p[2 * k + 1] = z - d * 0.5;
    }}
    return u;
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
    {{"block", (PyCFunction)(void (*)(void))block, METH_FASTCALL, "block(v): one block"}},
    {{"dft", (PyCFunction)(void (*)(void))dft, METH_FASTCALL, "dft(V): DFT of a spectrum"}},
    {{"batch", (PyCFunction)(void (*)(void))batch, METH_FASTCALL, "batch(x, y): (N, B) columns"}},
    {{NULL, NULL, 0, NULL}},
}};

static struct PyModuleDef module = {{PyModuleDef_HEAD_INIT, "{name}", NULL, -1, methods}};

PyMODINIT_FUNC PyInit_{name}(void)
{{
    import_array();
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
    block = [pad + "double " + ", ".join(f"x{i} = x[{i}]" for i in range(n)) + ";"]
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


def _include_flags() -> list[str]:
    """``-I`` flags for the C API headers a module includes: CPython's ``Python.h``
    and NumPy's ``numpy/arrayobject.h``.  FileNotFoundError names a missing one."""
    flags = []
    for include, header in ((sysconfig.get_paths()["include"], "Python.h"),
                            (np.get_include(), "numpy/arrayobject.h")):
        if not os.path.isfile(os.path.join(include, header)):
            raise FileNotFoundError(f"{header} not found in {include}")
        flags += ["-I", include]
    return flags


_dir: Path | None = None  # made by this process; a forked child makes its own
_compilers: set[subprocess.Popen] = set()  # run by this process now; killed at exit
_closing = False
_BUILD_LOCK = threading.Lock()
# compiler command -> the macros of its ISA probe, or None if the probe failed
_probes: dict[tuple, str | None] = {}
_PROBE_LOCK = threading.Lock()


def _close() -> None:
    """At exit: kill the compilers still running, then remove the object directory.

    A background compile runs on a daemon thread, which exit does not wait for.
    """
    global _closing
    with _BUILD_LOCK:
        _closing = True
        for proc in _compilers:
            proc.kill()
            proc.wait()
    if _dir is not None:
        shutil.rmtree(_dir, True)


def _after_fork_in_child() -> None:
    """Forget the parent's compilers, its object directory, which the parent
    removes at its exit, and its locks, which a thread of the parent may have
    held at the fork and which no thread of the child would release."""
    global _dir, _BUILD_LOCK, _PROBE_LOCK
    _compilers.clear()
    _dir = None
    _BUILD_LOCK, _PROBE_LOCK = threading.Lock(), threading.Lock()


atexit.register(_close)
os.register_at_fork(after_in_child=_after_fork_in_child)


def _run(cmd: list[str], stdin: str) -> str:
    """The output of compiler command cmd fed stdin, run as a tracked process:
    killed at exit or after 300 s.  CalledProcessError if it fails."""
    with _BUILD_LOCK:
        if _closing:
            raise OSError("the interpreter is exiting")
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, errors="replace")
        _compilers.add(proc)
    try:
        out, err = proc.communicate(stdin, timeout=300)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    finally:
        with _BUILD_LOCK:
            _compilers.discard(proc)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd, out, err)
    return out


def _build(src: str, cc: list[str]) -> Path:
    """Compile src into a new object in this process's private temporary directory.

    Objects stay until exit, so no path or inode of a loaded object is reused for
    another: the dynamic loader would hand back the library already loaded.
    """
    global _dir
    with _BUILD_LOCK:
        if _closing:
            raise OSError("the interpreter is exiting")
        if _dir is None:
            _dir = Path(tempfile.mkdtemp(prefix="mindht-"))
        fd, path = tempfile.mkstemp(suffix=".so", dir=_dir)
        os.close(fd)
    _run([*cc, *FLAGS, "-o", path, "-x", "c", "-"], src)
    return Path(path)


def _cache_dir() -> Path | None:
    """``$XDG_CACHE_HOME/mindht``, else ``~/.cache/mindht``, made with mode 0700,
    if it is a directory of this user that no other may write to; else None."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # a relative one is invalid (XDG Base Directory)
        base = os.path.expanduser("~/.cache")
    path = Path(base, "mindht")
    if not path.is_absolute():  # no home directory
        return None
    try:  # mkdir raises unless path is then a directory
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError:
        return None
    return path if st.st_uid == os.getuid() and not st.st_mode & 0o022 else None


def _cache_path(n: int, src: str, cc: list[str]) -> Path | None:
    """Where the object of src built by cc is kept between processes, or None
    without a usable cache directory or when cc fails the ISA probe.

    The key holds everything the object depends on: the source, the compiler
    command and FLAGS, the macros ``-march=native`` defines (the instruction
    set and the compiler version: an object built on another CPU could die of
    SIGILL in the load check) and the C APIs it links against.
    """
    path = _cache_dir()
    probe = None if path is None else _probe(cc)
    if probe is None:
        return None
    key = repr((src, cc, FLAGS, sorted(probe.splitlines()), sys.implementation.cache_tag,
                _EXT_SUFFIX, np.__version__))
    return path / f"{_name(n)}-{hashlib.sha256(key.encode()).hexdigest()[:32]}{_EXT_SUFFIX}"


def _probe(cc: list[str]) -> str | None:
    """The macros cc defines for ``-march=native``, or None if cc fails to say.

    The probe runs once per compiler command and process, under a lock, so
    loads that start together wait for one probe."""
    key = tuple(cc)
    with _PROBE_LOCK:
        if key not in _probes:
            try:
                _probes[key] = _run([*cc, "-march=native", "-E", "-dM", "-x", "c", os.devnull], "")
            except (OSError, subprocess.SubprocessError):
                _probes[key] = None
        return _probes[key]


def _publish(built: Path, path: Path, n: int) -> None:
    """Copy the checked object at built to path through a temporary file in
    its directory, so no process sees a partial object, and delete all but the
    ``_KEEP`` newest objects of length n there."""
    with contextlib.suppress(OSError):
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=path.parent)
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(built.read_bytes())
            os.replace(tmp, path)
        except OSError:
            os.unlink(tmp)
            raise
        objects = sorted(path.parent.glob(f"{_name(n)}-*{_EXT_SUFFIX}"), key=os.path.getmtime)
        for old in objects[:-_KEEP]:
            old.unlink()


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


def _agrees(prog, fn, module) -> bool:
    """Whether ``batch`` equals prog (fn over column chunks) on the check batch
    and on a column-strided view of it, which runs the local-block gather,
    and, on each column of it, given as a list of floats, as the strided
    column and as a memoryview of that column (the NumPy C API and the PEP
    3118 branch of ``read_block``), ``block`` equals fn and ``dft`` the NumPy
    bridge (``reference._dft_bridge``)."""
    x = _check_batch(prog.n)
    for v in (x, x[:, ::-2]):
        out = np.empty((prog.n_outputs, v.shape[1]))
        module.batch(v, out)
        if out.tobytes() != prog(v).tobytes():
            return False
    for v in x.T:
        vals = v.tolist()
        for entry, want in ((module.block, np.array(fn(vals))), (module.dft, _dft_bridge(v))):
            for out in (entry(vals), entry(v), entry(memoryview(v))):
                if not (type(out) is np.ndarray and out.dtype == want.dtype
                        and out.tobytes() == want.tobytes()):
                    return False
    return True


_warned = False


def _warn(msg: str) -> None:
    """Warn that msg made the kernels fall back, once per process and not at exit.

    Loads of different lengths run at once, so the latch is tested and set
    under ``_BUILD_LOCK``."""
    global _warned
    with _BUILD_LOCK:
        if _warned or _closing:
            return
        _warned = True
    warnings.warn(f"mindht: {msg}; kernel_flow runs the NumPy replay and fast_dht "
                  "the Python kernel", RuntimeWarning)


def load(prog, fn):
    """The checked extension module of a scheduled program (a ``replay._Program``)
    whose Python function is fn, from the cache or compiled now, or None."""
    cc = find_compiler()
    if cc is None:
        _warn("no C compiler found ($CC or cc)")
        return None
    try:
        cc += _include_flags()
    except FileNotFoundError as e:
        _warn(str(e))
        return None
    src = source(prog)
    cached = _cache_path(prog.n, src, cc)
    if cached is not None and cached.is_file():
        with contextlib.suppress(Exception):  # any fault of a cached object: build afresh
            module = _import(cached, prog.n)
            if _agrees(prog, fn, module):
                return module
        with contextlib.suppress(OSError):
            cached.unlink()
    try:
        built = _build(src, cc)
        module = _import(built, prog.n)
    except subprocess.CalledProcessError as e:
        detail = e.stderr.strip()[-300:] or f"exit status {e.returncode}"
        _warn(f"compiling the length-{prog.n} kernel failed ({detail})")
        return None
    except (ImportError, OSError, subprocess.SubprocessError) as e:
        _warn(f"building or loading the length-{prog.n} kernel failed ({e})")
        return None
    if not _agrees(prog, fn, module):
        _warn(f"the compiled length-{prog.n} kernel disagreed with the replay")
        return None
    if cached is not None:
        _publish(built, cached, prog.n)
    return module

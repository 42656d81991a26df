"""Build and load the compiled kernels on first use.

One library holds every kernel.  It is compiled with the C compiler
Python was built with and cached under `$XDG_CACHE_HOME/covprune/`
(default `~/.cache/covprune/`), named by a hash of the sources, the
compiler command and the flags, so an edited source or another compiler
gets a fresh build, which removes the other `covprune-*.so` files there.
A cached library loads with `ctypes`, `os` and `sysconfig` alone;
`subprocess` and `tempfile` are imported only to compile.  When that
directory cannot be written the library is built in a private temporary
directory for this process only.  Every kernel is required: when no
library loads or builds, `load_library` raises `CompilerError`, on which
the CLI exits 4.

The kernels take flat buffers, `array.array`s, read-only `memoryview`s
of them or numpy arrays, each declared as a `Buffer` of one item type.
The functions at the end are the Python faces of `_arrays.c`'s loops.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import sysconfig
from array import array
from importlib.util import source_hash
from pathlib import Path

SOURCES = tuple(Path(__file__).with_name(f"_{k}.c")
                for k in ("parse", "profile", "sweep", "flow", "arrays"))
FLAGS = ("-O2", "-ftree-vectorize", "-shared", "-fPIC")


def compiler() -> list[str]:
    """The compiler command Python was built with, split at whitespace,
    else plain `cc`."""
    return (sysconfig.get_config_var("CC") or "").split() or ["cc"]


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join("~", ".cache")
    return Path(base).expanduser() / "covprune"


def library_name(cc: list[str]) -> str:
    # the import system's hash, loaded at start-up, unlike hashlib; it is
    # keyed by the bytecode magic number, so each Python gets its own build
    key = b"\0".join([*(source.read_bytes() for source in SOURCES),
                      "\0".join([*cc, *FLAGS]).encode()])
    return f"covprune-{source_hash(key).hex()}.so"


def _compile(cc: list[str], target: Path) -> bool:
    """Compile into a temporary name beside `target`, then move it there
    in one step, so concurrent first runs never load a partial file.
    Raises OSError when the directory cannot be written."""
    import subprocess
    import tempfile
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".so.tmp")
    os.close(fd)
    try:
        try:
            done = subprocess.run([*cc, *FLAGS, "-o", tmp, *map(str, SOURCES)],
                                  stdin=subprocess.DEVNULL, capture_output=True)
        except OSError:
            return False  # no such compiler
        if done.returncode != 0:
            return False
        os.replace(tmp, target)
        for stale in set(target.parent.glob("covprune-*.so")) - {target}:  # other sources' builds
            with contextlib.suppress(OSError):  # best effort: another process may remove it too
                stale.unlink()
        return True
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# (size, signed) of each integer item format; numpy's int64 reads 'l', array's 'q'
_INTEGER = {code: (array(code).itemsize, code.islower()) for code in "bBhHiIlLqQ"}


class Buffer:
    """A ctypes argument type: the address of a C-contiguous buffer of the
    `array` type code `code`'s items, which the kernel writes with `out`;
    `optional` lets None through as NULL.  It refuses any other buffer."""

    def __init__(self, code: str, out: bool = False, optional: bool = False):
        self.code, self.out, self.optional = code, out, optional

    def from_param(self, obj):
        if obj is None and self.optional:
            return None
        view = memoryview(obj)  # a TypeError unless obj exports a buffer
        strided, readonly = not view.c_contiguous, self.out and view.readonly
        if _INTEGER.get(view.format) != _INTEGER[self.code] or strided or readonly:
            raise TypeError(f"a {'read-only ' * readonly}{'strided ' * strided}buffer of "
                            f"{view.format!r} where the kernel takes "
                            f"{'writable ' * self.out}contiguous {self.code!r} items")
        # a Py_buffer, the address its first field; the address outlives the
        # request, since `obj` holds the memory for the call
        info = (ctypes.c_ssize_t * 11)()
        ctypes.pythonapi.PyObject_GetBuffer(ctypes.py_object(view), info, 0)
        ctypes.pythonapi.PyBuffer_Release(info)
        return ctypes.c_void_p(info[0])


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    q, Q, B = Buffer("q"), Buffer("Q"), Buffer("B")
    q_, Q_, B_, i_ = (Buffer(code, out=True) for code in "qQBi")
    n = ctypes.c_int64
    for name, argtypes in {
        "parse": [B, n, n, n, Q_, Q_, q_, q_, q_, q_],
        "profile": [n, Q, Q, Q_, q_, q_, q_, q_],
        "order": [n, q, q, n, q_, q_],
        "sweep": [n, n, q, n, q, q, q, n, q_, q_, q_, q_, q_],
        "flat_sweep": [n, q, i_, n, q, q, q, n, q_, q_],
        "network": [n, n, q, q, q_, q_, q_, q_],
        "max_flow": [n, n, n, q, q, q, q_, q_, q_, q_],
        "select": [n, q, n, q_],
        "min_max": [n, q, q_],
        "spans": [n, q, q, n],
        "unordered": [n, Q, Q],
        "recount": [n, Buffer("q", optional=True), n, q, q, n, q_],
        "group": [n, q, n, Q, Q, q_, q_, Q_, Q_],
        "runs": [n, q, q, n, q_],
        "scatter": [n, q, n, q, n, B_],
        "lines": [n, B, q, q, n, B, Buffer("B", out=True, optional=True)],
        "add": [n, q_, n, n],
    }.items():
        kernel = getattr(lib, f"covprune_{name}")
        kernel.argtypes = argtypes
        kernel.restype = None if name in ("order", "min_max", "add") else n
        setattr(lib, kernel.__name__, _checked(kernel, name in (
            "sweep", "flat_sweep", "network", "recount", "group", "runs", "scatter", "lines")))
    return lib


def _checked(kernel, status: bool):
    """`kernel`, raising TypeError where ctypes refuses an argument and,
    with `status`, ValueError where it returns a negative status."""
    def call(*args):
        try:
            result = kernel(*args)
        except ctypes.ArgumentError as exc:
            raise TypeError(f"{kernel.__name__}: {exc}") from None
        if status and result < 0:
            raise ValueError(f"{kernel.__name__}: an index or a value out of bounds")
        return result
    return call


def _open(cc: list[str], directory: Path, name: str) -> ctypes.CDLL | None:
    target = directory / name
    if not target.exists() and not _compile(cc, target):
        return None
    return _declare(ctypes.CDLL(str(target)))


def build(directory: Path, cc: list[str]) -> ctypes.CDLL | None:
    """Load the library cached in `directory`, compiling it if absent."""
    try:
        name = library_name(cc)
        try:
            return _open(cc, directory, name)
        except OSError:
            pass  # cache not writable, or the cached file does not load
        import tempfile
        with tempfile.TemporaryDirectory(prefix="covprune-") as private:
            # the loaded mapping outlives the file, so the directory can go
            return _open(cc, Path(private), name)
    except OSError:
        return None


class CompilerError(RuntimeError):
    """No compiled library could be loaded or built."""


@functools.cache
def load_library() -> ctypes.CDLL:
    """The compiled library for this process; raises `CompilerError`
    when none loads or builds."""
    cc = compiler()
    lib = build(cache_dir(), cc)
    if lib is None:
        raise CompilerError(f"cannot build the compiled kernels with the C compiler "
                            f"command '{' '.join(cc)}'")
    return lib


def zeros(code: str, n: int) -> array:
    """n zero items of the `array` type `code`, allocated once."""
    return array(code, [0]) * n


def select(values, want: int) -> array:
    """The positions, rising, where the int64 buffer `values` holds `want`."""
    out = zeros("q", len(values))
    del out[load_library().covprune_select(len(values), values, want, out):]
    return out


def extremes(values) -> tuple[int, int]:
    """(min, max) of the int64 buffer `values`; (0, 0) when it is empty."""
    load_library().covprune_min_max(len(values), values, out := zeros("q", 2))
    return out[0], out[1]


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
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import sysconfig
from importlib.util import source_hash
from pathlib import Path

import numpy as np

SOURCES = tuple(Path(__file__).with_name(f"_{k}.c") for k in ("parse", "profile", "sweep", "flow"))
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


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    i32 = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
    u64 = np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS")
    u8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    n = ctypes.c_int64
    lib.covprune_parse.argtypes = [ctypes.c_char_p, n, n, u64, u64, u8, i64, i64, i64, i64]
    lib.covprune_parse.restype = n
    lib.covprune_profile.argtypes = [n, u64, u64, u64, i64, i64, i64, i64]
    lib.covprune_profile.restype = n
    lib.covprune_sweep.argtypes = [n, n, i64, n, i64, i64, n, i64, i64, i64, u8, i64]
    lib.covprune_sweep.restype = None
    lib.covprune_flat_sweep.argtypes = [n, i64, i64, n, i32, u8, i64]
    lib.covprune_flat_sweep.restype = None
    lib.covprune_max_flow.argtypes = [n, n, n, i64, i64, i64, i64, i64, i64, i64]
    lib.covprune_max_flow.restype = n
    lib.covprune_network.argtypes = [n, n, i64, i64, i64, i64, i64, i64]
    lib.covprune_network.restype = None
    return lib


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

"""Build and load the compiled kernels on first use.

One CPython extension module holds every kernel: `_module.c`, whose
`covprune_*` functions check their arguments and call the kernels,
includes the five kernel files, so the compiler sees each kernel's one
declaration, its definition, at its call.  It is compiled with the C
compiler Python was built with, against Python's own headers, and
cached under `$XDG_CACHE_HOME/covprune/` (default `~/.cache/covprune/`).
Its name holds a hash of this package's directory, then one of the
sources, the flags, the interpreter and any compiler command but the
interpreter's own, so an edited source, another Python or another
compiler gets a fresh build, which removes the older builds of the same
directory and the `covprune-<hash>.so` files of earlier versions.  A
cached module loads with `importlib.machinery` alone; `sysconfig`,
`subprocess`, `tempfile` and `pathlib` are imported only to compile.
When that directory cannot be written the module is built in a private
temporary directory for this process only.  Every kernel is required:
when no module loads or builds, `load_library` raises `CompilerError`,
on which the CLI exits 4.

The functions at the end are the Python faces of `_arrays.c`'s loops.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
from array import array
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, source_hash, spec_from_loader

# paths are `os.path` strings: pathlib's imports would slow every run
HERE = os.path.dirname(__file__)
MODULE = os.path.join(HERE, "_module.c")  # the one unit compiled: it includes the kernel files
SOURCES = (*(os.path.join(HERE, f"_{k}.c")
             for k in ("parse", "profile", "sweep", "flow", "arrays")), MODULE)
FLAGS = ("-O2", "-ftree-vectorize", "-shared", "-fPIC")


def compiler() -> list[str]:
    """The compiler command Python was built with, split at whitespace,
    else plain `cc`."""
    import sysconfig
    return (sysconfig.get_config_var("CC") or "").split() or ["cc"]


def headers() -> str:
    """The directory of Python's C headers, `Python.h`."""
    import sysconfig
    return sysconfig.get_path("include")


def cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join("~", ".cache")
    return os.path.join(os.path.expanduser(base), "covprune")


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _hash(*parts: str | bytes) -> str:
    # the import system's hash, loaded at start-up, unlike hashlib
    return source_hash(b"\0".join(p if isinstance(p, bytes) else p.encode()
                                   for p in parts)).hex()


def library_name(cc: list[str] | None = None) -> str:
    """The cached module's file name for the compiler command `cc`, by
    default the interpreter's own, which the interpreter's identity
    stands for."""
    key = _hash(*map(_read, SOURCES), *FLAGS, sys.version, EXTENSION_SUFFIXES[0], *(cc or ["CC"]))
    return f"{_prefix()}{key}.so"


def _prefix() -> str:
    """The name every build of this package directory starts with."""
    return f"covprune-{_hash(HERE)[:8]}-"


def _compile(cc: list[str] | None, target: str) -> bool:
    """Compile into a temporary name beside `target`, then move it there
    in one step, so concurrent first runs never load a partial file.
    Raises OSError when the directory cannot be written."""
    import subprocess
    import tempfile
    from pathlib import Path
    directory = Path(target).parent
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".so.tmp")
    os.close(fd)
    try:
        try:
            done = subprocess.run([*(cc or compiler()), *FLAGS, f"-I{headers()}", "-o", tmp,
                                   MODULE],
                                  stdin=subprocess.DEVNULL, capture_output=True)
        except OSError:
            return False  # no such compiler
        if done.returncode != 0:
            return False
        os.replace(tmp, target)
        # this directory's other builds and the one-hash builds of older versions;
        # other checkouts sharing the cache keep theirs
        old = directory.glob("covprune-" + "[0-9a-f]" * 16 + ".so")
        for stale in {*directory.glob(f"{_prefix()}*.so"), *old} - {Path(target)}:
            with contextlib.suppress(OSError):  # best effort: another process may remove it too
                stale.unlink()
        return True
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(cc: list[str] | None, target: str):
    if not os.path.exists(target) and not _compile(cc, target):
        return None
    loader = ExtensionFileLoader("covprune._kernels", target)
    kernels = module_from_spec(spec_from_loader(loader.name, loader))
    loader.exec_module(kernels)
    return kernels


def build(directory: str, cc: list[str] | None = None):
    """The module cached in `directory`, compiling it first if absent, by
    `cc` or the interpreter's compiler; None when it neither loads nor
    builds."""
    try:
        name = library_name(cc)
        try:
            return _open(cc, os.path.join(directory, name))
        except (OSError, ImportError):
            pass  # cache not writable, or the cached file does not load
        import tempfile
        with tempfile.TemporaryDirectory(prefix="covprune-") as private:
            # the loaded mapping outlives the file, so the directory can go
            return _open(cc, os.path.join(private, name))
    except (OSError, ImportError):
        return None


class CompilerError(RuntimeError):
    """No compiled module could be loaded or built."""


@functools.cache
def load_library():
    """The compiled kernels' module for this process; raises
    `CompilerError` when none loads or builds."""
    kernels = build(cache_dir())
    if kernels is None:
        raise CompilerError(f"cannot build the compiled kernels with the C compiler command "
                            f"'{' '.join(compiler())}' and the Python headers in '{headers()}'")
    return kernels


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


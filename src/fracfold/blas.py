"""One BLAS thread pool for fracfold's dense linear algebra.

numpy's and scipy's wheels each bundle their own OpenBLAS, and each library
keeps a thread pool as large as the machine.  fracfold factors and solves
through scipy, while numpy still serves the matrix products in between; when
the two pools take turns on every Newton step, the idle threads of one spin
while the other works.  `single_pool` pins numpy's pool to one thread while a
fracfold entry point runs and restores the previous count on return or raise.
scipy's pool keeps its default, so large factorizations still use every core.

Nothing is pinned when numpy's OpenBLAS is not found (another BLAS, or no
/proc), or when numpy and scipy load the same library (then there is one pool).
"""

from __future__ import annotations

import ctypes
import functools
import os

__all__ = ["single_pool"]

_SYMBOL_PREFIXES = ("scipy_openblas", "openblas")
_SYMBOL_SUFFIXES = ("64_", "")


def openblas_libraries(maps_lines) -> dict[str, str]:
    """Owner package (`numpy`, `scipy`, ...) -> path of each OpenBLAS in a /proc/<pid>/maps listing.

    Wheels keep their bundled libraries in `<package>.libs`; a library shared
    through any other directory is keyed by that directory's name.
    """
    found = {}
    for line in maps_lines:
        path = line.split()[-1] if line.strip() else ""
        if "openblas" in os.path.basename(path).lower():
            owner = os.path.basename(os.path.dirname(path)).split(".")[0]
            found.setdefault(owner, path)
    return found


def numpy_pool_library(maps_lines) -> str | None:
    """Path of numpy's own OpenBLAS when a second OpenBLAS is loaded beside it, else None."""
    libraries = openblas_libraries(maps_lines)
    path = libraries.get("numpy")
    if path is None or len(set(libraries.values())) < 2:
        return None
    return path


def thread_functions(path: str):
    """(get, set) for the thread count of the OpenBLAS at `path`, or None without such symbols."""
    lib = ctypes.CDLL(path)
    for prefix in _SYMBOL_PREFIXES:
        for suffix in _SYMBOL_SUFFIXES:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@functools.cache
def _numpy_pool():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            path = numpy_pool_library(fh)
    except OSError:
        return None
    return thread_functions(path) if path is not None else None


def single_pool(fn):
    """Run `fn` with numpy's OpenBLAS on one thread; the previous count comes back afterwards.

    Re-entrant: a nested call finds the pool at one thread and leaves it alone.
    """

    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        pool = _numpy_pool()
        saved = pool[0]() if pool is not None else 1
        if saved == 1:
            return fn(*args, **kwargs)
        pool[1](1)
        try:
            return fn(*args, **kwargs)
        finally:
            pool[1](saved)

    return pinned

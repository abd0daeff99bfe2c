"""The thread count of numpy's bundled OpenBLAS, read and pinned in-process,
and the kernel it runs.

Numpy wheels bundle OpenBLAS as `numpy.libs/libscipy_openblas*`, which
exports a getter and a setter for its thread count and a getter for the name
of the kernel it picked at load time. Where numpy bundles no such library
(another BLAS, a source build), `threads()` and `core()` return None and
nothing is ever pinned.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np


@functools.cache
def _openblas():
    """The bundled OpenBLAS's (get, set) thread-count functions and its
    kernel-name getter (None where it exports none), or None."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                       .glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        corename = getattr(lib, "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = (), ctypes.c_char_p
        return get, set_, corename
    return None


def threads() -> int | None:
    """Threads the bundled OpenBLAS runs with, or None without it."""
    funcs = _openblas()
    return None if funcs is None else int(funcs[0]())


def core() -> str | None:
    """The kernel the bundled OpenBLAS picked when it loaded, from the CPU
    and `OPENBLAS_CORETYPE` (`Haswell`, `SkylakeX`, ...), or None without
    it or its getter."""
    funcs = _openblas()
    return None if funcs is None or funcs[2] is None else funcs[2]().decode()


@contextmanager
def pinned(n: int) -> Iterator[None]:
    """Run the block with the bundled OpenBLAS on `n` threads, then restore
    the count it had. Without the bundled OpenBLAS it changes nothing."""
    funcs = _openblas()
    if funcs is None:
        yield
        return
    get, set_, _ = funcs
    before = get()
    set_(n)
    try:
        yield
    finally:
        set_(before)

"""Read and set the thread count of numpy's bundled OpenBLAS.

OpenBLAS sizes its pool when numpy loads it, so import what is to load
numpy (``ccmabeam``, say) before calling :func:`blas_thread_calls`; the
lookup itself loads numpy if nothing has yet.
"""

import ctypes
import functools
from pathlib import Path


@functools.cache
def blas_thread_calls():
    """(set, get) thread-count calls of numpy's bundled OpenBLAS, or None."""
    import numpy as np

    root = Path(np.__file__).parent
    libs = [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]
    for lib in sorted(libs):
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            setter = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            getter = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None

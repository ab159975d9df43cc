"""OpenBLAS through ctypes, set to one thread for the whole process when ``datforge`` is imported.

datforge's products are small (98x201 by 201x64 at most in featurization): a
second OpenBLAS thread never shortens them, but it spins after each call and
burns a core.  Forked workers inherit the setting.  Without a setter, the
thread count is left alone and ``ONE_THREAD`` is False.
"""

import ctypes
import functools

import numpy  # noqa: F401  loads OpenBLAS, so that the lookups below find it


@functools.cache
def _openblas_libraries() -> tuple:
    """The OpenBLAS libraries numpy loaded, opened through ctypes once per process."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return ()
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return tuple(libs)


def blas_function(name: str, restype, argtypes):
    """OpenBLAS's ``openblas_<name>`` from the library numpy loaded, through ctypes; None if absent."""
    for lib in _openblas_libraries():
        for sym in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}",
                    f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, argtypes
                return fn
    return None


_set_threads = blas_function("set_num_threads", None, [ctypes.c_int])
if _set_threads is not None:
    _set_threads(1)
ONE_THREAD = _set_threads is not None  # every BLAS call of this process runs on one thread

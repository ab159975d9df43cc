"""How this process computes, set once when ``datforge`` is imported: one BLAS thread, kept memory.

Both policies hold for the whole process, and forked workers inherit them:

- OpenBLAS runs on one thread.  datforge's products are small (98x201 by
  201x64 at most in featurization): a second thread never shortens them,
  but it spins after each call and burns a core.  Without a setter, the
  thread count is left alone and ``ONE_THREAD`` is False.
- glibc's allocator keeps freed blocks of up to 32 MiB.  A training step's
  tape holds dozens of 0.8-1.6 MB arrays.  With glibc's dynamic thresholds,
  the heap top they leave free when the tape is dropped is trimmed back to
  the OS, and the next step page-faults all of it in again.  Fixed
  thresholds (blocks under 32 MiB come from the heap, whose free top is
  trimmed only beyond 64 MiB) keep those pages.  glibc cannot turn its
  dynamic thresholds back on, and its 128 KiB defaults would fault more
  than the dynamic ones.  Where libc has no ``mallopt``, or refuses the
  values, ``KEEPS_FREED_MEMORY`` is False.

Neither changes any result.
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


def libc_mallopt():
    """The C library's ``mallopt``, through ctypes; None if absent."""
    try:
        fn = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol, or no dlopen(NULL)
        return None
    fn.restype, fn.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    return fn


# glibc's mallopt parameters (malloc.h) and the values this module gives them
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES = 32 << 20  # as high as glibc's dynamic threshold goes on 64-bit
TRIM_THRESHOLD_BYTES = 64 << 20

_set_threads = blas_function("set_num_threads", None, [ctypes.c_int])
if _set_threads is not None:
    _set_threads(1)
ONE_THREAD = _set_threads is not None  # every BLAS call of this process runs on one thread

_mallopt = libc_mallopt()
KEEPS_FREED_MEMORY = _mallopt is not None and all([  # mallopt returns 1 on success
    _mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES),
    _mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)])

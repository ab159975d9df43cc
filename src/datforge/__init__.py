"""datforge: desk-scale domain adversarial training for distortion-robust classifiers."""

from . import blas  # noqa: F401  sets OpenBLAS to one thread for this process

__version__ = "0.1.0"

"""datforge: desk-scale domain adversarial training for distortion-robust classifiers."""

from . import runtime  # noqa: F401  sets this process's BLAS threads and allocator policy

__version__ = "0.1.0"

"""Core operand and precision layer of the Magicube reproduction.

- :class:`repro.core.matrix.SparseMatrix` — construct once from dense /
  BCRS data, reuse across kernels (it owns the SR-BCRS layouts).
- :mod:`repro.core.precision` — the Table IV precision registry.

Kernel calls go through the typed :mod:`repro.api` surface.
"""

from repro.core.matrix import SparseMatrix
from repro.core.precision import Precision, parse_precision, supported_precisions

__all__ = [
    "SparseMatrix",
    "Precision",
    "parse_precision",
    "supported_precisions",
]

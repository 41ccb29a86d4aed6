"""The prepared sparse operand shared by every API surface.

:class:`SparseMatrix` lives in its own module so the v1 request layer
(:mod:`repro.api`) and the kernel layers can both import it without
cycling through each other.
"""

from __future__ import annotations

import numpy as np

from repro.core.precision import parse_precision
from repro.formats.bcrs import BCRSMatrix
from repro.formats.convert import bcrs_to_srbcrs, dense_to_bcrs
from repro.formats.srbcrs import SRBCRSMatrix
from repro.gpu.mma import mma_shape_for


class SparseMatrix:
    """A 1-D-block sparse matrix prepared for Magicube kernels.

    Owns the BCRS view (for SDDMM masks / interchange) and SR-BCRS
    layouts derived from it. Layouts convert lazily, once per stride:
    :attr:`srbcrs` is the layout at the stride the requested precision
    needs, :meth:`srbcrs_for` any other. Build it once per operand,
    reuse across calls.
    """

    def __init__(self, bcrs: BCRSMatrix, stride: int) -> None:
        self.bcrs = bcrs
        #: SR-BCRS stride of :attr:`srbcrs` (the precision's MMA k dim)
        self.stride = stride
        #: stride -> SR-BCRS layout; conversions happen once per stride
        #: (a serving engine reuses the operand across precisions)
        self._srbcrs_by_stride: dict[int, SRBCRSMatrix] = {}

    @property
    def srbcrs(self) -> SRBCRSMatrix:
        """The SR-BCRS layout at :attr:`stride` (converted on first use)."""
        return self.srbcrs_for(self.stride)

    def srbcrs_for(self, stride: int) -> SRBCRSMatrix:
        """The SR-BCRS layout at ``stride``, converting (and caching) on
        first use."""
        layout = self._srbcrs_by_stride.get(stride)
        if layout is None:
            layout = bcrs_to_srbcrs(self.bcrs, stride=stride)
            self._srbcrs_by_stride[stride] = layout
        return layout

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        vector_length: int,
        precision: str = "L8-R8",
    ) -> "SparseMatrix":
        """Compress a dense matrix with V x 1 structured sparsity.

        ``precision`` fixes the SR-BCRS stride (the native MMA k dim of
        that pair).
        """
        p = parse_precision(precision, op="spmm")
        stride = mma_shape_for(p.native_bits).k
        bcrs = dense_to_bcrs(np.asarray(dense), vector_length)
        return cls(bcrs, stride)

    @classmethod
    def from_bcrs(cls, bcrs: BCRSMatrix, precision: str = "L8-R8") -> "SparseMatrix":
        """Wrap an existing BCRS matrix (e.g. an SDDMM output)."""
        p = parse_precision(precision, op="spmm")
        return cls(bcrs, mma_shape_for(p.native_bits).k)

    # -- views ----------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.bcrs.shape

    @property
    def vector_length(self) -> int:
        return self.bcrs.vector_length

    @property
    def nnz(self) -> int:
        return self.bcrs.nnz

    @property
    def sparsity(self) -> float:
        return self.bcrs.sparsity

    def to_dense(self) -> np.ndarray:
        return self.bcrs.to_dense()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        m, k = self.shape
        return (
            f"SparseMatrix({m}x{k}, V={self.vector_length}, "
            f"sparsity={self.sparsity:.3f})"
        )

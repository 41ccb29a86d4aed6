"""Synthetic uniform sparse topologies for cost estimation.

The planner (and the Fig. 17 latency model) needs the *accounting* view
of a sparse operand — strip counts, padded vectors, nnz — without
materializing values. These classes duck-type exactly the attributes the
kernels' ``_account`` methods read, with the mask's nonzero vectors
spread uniformly over strips, so a candidate kernel configuration can be
costed in microseconds for any (shape, sparsity, vector length): one
SpMM ``_account`` takes ~11 us and a fresh SpMM class's 84 candidates
(7 pairs x 4 ``BSn`` x 3 TP widths) price in ~2.6 ms on a 2-vCPU x86
VM (CPython 3.11, numpy 2.4).
"""

from __future__ import annotations

import numpy as np

from repro.gpu.warp import ceil_div


class UniformSRBCRS:
    """Duck-typed SR-BCRS stats: nonzero vectors spread uniformly.

    Mirrors the attributes :meth:`MagicubeSpMM._account` reads from a
    real :class:`~repro.formats.srbcrs.SRBCRSMatrix`.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        vector_length: int,
        sparsity: float,
        stride: int,
    ) -> None:
        self.shape = (rows, cols)
        self.vector_length = vector_length
        self.stride = stride
        self.num_strips = rows // vector_length
        per_strip = max(1, round((1.0 - sparsity) * cols))
        padded = ceil_div(per_strip, stride) * stride
        self.num_vectors = self.num_strips * per_strip
        self.num_padded_vectors = self.num_strips * padded
        self.nnz = self.num_vectors * vector_length
        self.padding_ratio = padded / per_strip


class UniformBCRSMask:
    """Duck-typed BCRS mask stats for the SDDMM accounting."""

    def __init__(
        self, rows: int, cols: int, vector_length: int, sparsity: float
    ) -> None:
        self.shape = (rows, cols)
        self.vector_length = vector_length
        self.num_strips = rows // vector_length
        self._per_strip = max(1, round((1.0 - sparsity) * cols))
        self.num_vectors = self.num_strips * self._per_strip
        self.nnz = self.num_vectors * vector_length

    def vectors_per_strip(self) -> np.ndarray:
        return np.full(self.num_strips, self._per_strip, dtype=np.int64)

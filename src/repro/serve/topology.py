"""Synthetic uniform sparse topologies for cost estimation.

The planner (and the Fig. 17 latency model) needs the *accounting* view
of a sparse operand — strip counts, padded vectors, nnz — without
materializing values. These classes duck-type exactly the attributes the
kernels' count functions (``spmm_counts`` / ``sddmm_counts``) read, with
the mask's nonzero vectors spread uniformly over strips, so any (shape,
sparsity, vector length) can be costed without an operand. The SR-BCRS
``stride`` may be an array over a grid's pair axis: the planner builds
one topology per request class and prices the class's whole (pair x
knob) grid from it in one NumPy pass: on a 2-vCPU x86 VM (CPython 3.11,
numpy 2.4) ``repro bench autotune --count 9`` reads a median cold
search of 0.17 ms and 1.24 ms of cold planner time for its three
classes, against 0.32 ms and 1.82 ms pricing one candidate at a time.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.warp import ceil_div


class UniformSRBCRS:
    """Duck-typed SR-BCRS stats: nonzero vectors spread uniformly.

    Mirrors the attributes :func:`~repro.kernels.spmm.spmm_counts` reads
    from a real :class:`~repro.formats.srbcrs.SRBCRSMatrix`; ``stride``
    (and so the padded counts) may be an array, one entry per pair.
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

"""Gather plans memoized on the sparse operands' layouts.

The fastpath kernels trade the per-strip Python loops of
:mod:`repro.kernels` for batched array operations. What makes that a
*win per call* is that the index arithmetic — bucketing strips of equal
length and expanding their gather indices — happens **once per
layout** and is cached in the matrix's ``layout_memo``. Plans read the
index arrays only, never the values, so every matrix that shares the
layout (``with_values`` siblings: the grouped attention scores and
probabilities of each forward, say) reuses one plan.

A plan walks its *buckets*: strips with the same number of stride
groups (SpMM) or the same vector count rounded up to :data:`GRANULE`
(SDDMM), so one batched matmul covers every strip of a bucket and every
slice of a grouped launch. Uniform attention masks have one or two
buckets.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.formats.bcrs import BCRSMatrix
from repro.formats.srbcrs import PAD_INDEX, SRBCRSMatrix

__all__ = ["BcrsStripPlan", "SpmmGatherPlan", "bcrs_plan", "spmm_plan"]

#: SDDMM strip lengths are padded to a multiple of this many vectors:
#: a ragged mask then needs a handful of matmuls, not one per length
GRANULE = 8


def _buckets(counts: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """``(length, strips)`` for every distinct nonzero entry of ``counts``."""
    # the distinct values via bincount, not np.unique: NumPy's first
    # np.unique in a process imports numpy.ma (~15 ms)
    return [
        (int(length), np.flatnonzero(counts == length))
        for length in np.flatnonzero(np.bincount(counts))
        if length
    ]


class SpmmGatherPlan:
    """Bucketed gather indices of one SR-BCRS layout.

    For each bucket of strips with ``ng`` stride groups: the strips,
    their ``(strips, ng)`` global group indices (LHS tiles) and their
    ``(strips, ng * stride)`` RHS row indices, with padding slots
    pointing one past the last row — the zero row the kernel appends.
    """

    def __init__(self, lhs: SRBCRSMatrix) -> None:
        stride = lhs.stride
        k = lhs.shape[1]
        cols = np.where(lhs.col_indices == PAD_INDEX, k, lhs.col_indices)
        counts = np.asarray(lhs.row_ends) - np.asarray(lhs.row_starts)
        #: densest scalar row: bounds the f32 accumulation guard
        self.max_nnz_row = int(counts.max()) if counts.size else 0
        first_group = np.asarray(lhs.row_starts) // stride
        self.buckets: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for groups, strips in _buckets(-(-counts // stride)):
            group_idx = first_group[strips, None] + np.arange(groups)
            slots = group_idx[:, :, None] * stride + np.arange(stride)
            self.buckets.append(
                (strips, group_idx, cols[slots.reshape(len(strips), -1)])
            )
        #: the non-empty strips in bucket order (empty strips output zero)
        self.order = np.concatenate(
            [strips for strips, _, _ in self.buckets] or [np.zeros(0, np.intp)]
        )
        #: memoized cost accounting, keyed ``(config, n)`` — the model
        #: depends only on layout + config, not on the operand values
        self.stats_cache: dict = {}


class BcrsStripPlan:
    """Bucketed strip indices of one BCRS topology.

    For each SDDMM bucket — strips whose vector count rounds up to the
    same multiple ``L`` of :data:`GRANULE` — the strips, their
    ``(strips, L)`` vector positions and the matching column indices
    (the RHS rows to gather). The rounding keeps a ragged mask to a few
    matmuls; the extra slots gather column 0 and land on position
    ``num_vectors``, one scratch row past the real vectors.
    """

    def __init__(self, mask: BCRSMatrix) -> None:
        self._ptrs = np.asarray(mask.row_ptrs)
        self._counts = np.diff(self._ptrs)
        scratch = mask.num_vectors
        cols = np.append(mask.col_indices, 0)
        self.buckets: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for length, strips in _buckets(-(-self._counts // GRANULE) * GRANULE):
            offsets = np.arange(length)
            positions = np.where(
                offsets < self._counts[strips, None],
                self._ptrs[strips, None] + offsets,
                scratch,
            )
            self.buckets.append((strips, positions, cols[positions]))
        #: memoized cost accounting, keyed ``(config, a_shape, b_shape)``
        self.stats_cache: dict = {}

    @functools.cached_property
    def segments(self) -> list[np.ndarray]:
        """``(strips, L)`` vector positions of the strips holding exactly
        ``L`` vectors, one array per ``L`` — what the quantized softmax
        reduces over (no padding: the reduction order is observable)."""
        return [
            self._ptrs[strips, None] + np.arange(length)
            for length, strips in _buckets(self._counts)
        ]


def spmm_plan(lhs: SRBCRSMatrix) -> SpmmGatherPlan:
    """The memoized :class:`SpmmGatherPlan` of ``lhs``'s layout."""
    plan = lhs.layout_memo.get("fastpath-spmm")
    if plan is None:
        plan = lhs.layout_memo["fastpath-spmm"] = SpmmGatherPlan(lhs)
    return plan


def bcrs_plan(matrix: BCRSMatrix) -> BcrsStripPlan:
    """The memoized :class:`BcrsStripPlan` of ``matrix``'s topology."""
    plan = matrix.layout_memo.get("fastpath-bcrs")
    if plan is None:
        plan = matrix.layout_memo["fastpath-bcrs"] = BcrsStripPlan(matrix)
    return plan

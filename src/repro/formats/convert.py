"""Conversions between dense and the sparse formats.

The evaluation pipelines build each library's preferred format from the
same dense (or BCRS) source so that every kernel computes the identical
problem — mirroring how the paper generates Blocked-ELL inputs "with the
same sparsity and problem size as BCRS" for cuSPARSE.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError
from repro.formats.bcrs import BCRSMatrix
from repro.formats.blocked_ell import BlockedEllMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.srbcrs import PAD_INDEX, SRBCRSMatrix


def dense_to_csr(dense: np.ndarray) -> CSRMatrix:
    """Dense -> scalar CSR."""
    return CSRMatrix.from_dense(dense)


def dense_to_bcrs(dense: np.ndarray, vector_length: int) -> BCRSMatrix:
    """Dense -> BCRS with V x 1 blocks (vectorSparse encoding)."""
    return BCRSMatrix.from_dense(dense, vector_length)


def dense_to_srbcrs(dense: np.ndarray, vector_length: int, stride: int) -> SRBCRSMatrix:
    """Dense -> SR-BCRS with the given storage stride (MMA k dim)."""
    return SRBCRSMatrix.from_dense(dense, vector_length, stride)


def dense_to_blocked_ell(dense: np.ndarray, block_size: int) -> BlockedEllMatrix:
    """Dense -> Blocked-ELL with ``block_size`` square blocks."""
    return BlockedEllMatrix.from_dense(dense, block_size)


def bcrs_to_srbcrs(bcrs: BCRSMatrix, stride: int) -> SRBCRSMatrix:
    """Re-lay a BCRS matrix into SR-BCRS storage (no value change).

    This is the format-construction step a user of the library performs
    once per sparse operand; it is pure data movement. The layout — the
    SR-BCRS index arrays and where each BCRS vector lands — is derived
    once per topology and stride and memoized on ``bcrs.layout_memo``,
    so converting another value set over the same topology (a grouped
    matrix, or the next forward's attention probabilities) is one
    scatter, and every result shares the first one's ``layout_memo``.
    """
    key = ("srbcrs", stride)
    got = bcrs.layout_memo.get(key)
    if got is not None:
        template, dest = got
        return template.with_values(_scatter(
            bcrs, dest, template.col_indices.size, stride
        ))
    v = bcrs.vector_length
    counts = bcrs.vectors_per_strip().astype(np.int64)
    padded_counts = -(-counts // stride) * stride
    row_starts = np.zeros(bcrs.num_strips, dtype=np.int64)
    np.cumsum(padded_counts[:-1], out=row_starts[1:])
    total = int(padded_counts.sum())
    # padded slot of every BCRS vector: its strip's start + its rank
    strip_of = np.repeat(np.arange(bcrs.num_strips), counts)
    rank = np.arange(bcrs.num_vectors) - bcrs.row_ptrs[strip_of]
    slot = row_starts[strip_of] + rank
    col_indices = np.full(total, PAD_INDEX, dtype=np.int32)
    col_indices[slot] = bcrs.col_indices
    # groups are (V, stride) row-major: lane l of slot s sits at
    # group_base + l * stride + s % stride
    dest = (slot // stride) * (stride * v) + slot % stride
    out = SRBCRSMatrix(
        shape=bcrs.shape,
        vector_length=v,
        stride=stride,
        row_starts=row_starts,
        row_ends=row_starts + counts,
        col_indices=col_indices,
        values=_scatter(bcrs, dest, total, stride),
    )
    bcrs.layout_memo[key] = (out, dest)
    return out


def _scatter(
    bcrs: BCRSMatrix, dest: np.ndarray, padded: int, stride: int
) -> np.ndarray:
    """BCRS values (plain or grouped) placed at their SR-BCRS offsets."""
    v = bcrs.vector_length
    lead = bcrs.values.shape[:-2]
    values = np.zeros(lead + (padded * v,), dtype=bcrs.values.dtype)
    values[..., (dest[:, None] + np.arange(v) * stride).ravel()] = (
        bcrs.values.reshape(lead + (-1,))
    )
    return values


def srbcrs_to_bcrs(sr: SRBCRSMatrix) -> BCRSMatrix:
    """Strip SR-BCRS padding back into plain BCRS."""
    v = sr.vector_length
    strips = sr.num_strips
    counts = sr.vectors_per_strip().astype(np.int64)
    row_ptrs = np.zeros(strips + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptrs[1:])
    total = int(counts.sum())
    col_indices = np.empty(total, dtype=np.int32)
    values = np.empty((total, v), dtype=sr.values.dtype)
    for r in range(strips):
        out = int(row_ptrs[r])
        n = int(counts[r])
        taken = 0
        for cols, tile in sr.iter_groups(r):
            take = min(sr.stride, n - taken)
            if take <= 0:
                break
            col_indices[out + taken : out + taken + take] = cols[:take]
            values[out + taken : out + taken + take] = tile[:, :take].T
            taken += take
    return BCRSMatrix(
        shape=sr.shape,
        vector_length=v,
        row_ptrs=row_ptrs,
        col_indices=col_indices,
        values=values,
    )


def blocked_ell_equivalent(
    dense: np.ndarray, vector_length: int, block_size: int = 8
) -> BlockedEllMatrix:
    """Build the Blocked-ELL input cuSPARSE gets for a 1-D-block matrix.

    Following the paper's methodology (after Chen et al.): generate a
    Blocked-ELL matrix with the same sparsity and problem size as the
    BCRS source. 1-D V x 1 blocks do not tile into bs x bs squares
    without fill-in, so the comparable input keeps every bs x bs block
    containing at least one nonzero vector — charging cuSPARSE its
    coarse-granularity overhead, which is the effect the paper measures.
    """
    if block_size % vector_length != 0 and vector_length % block_size != 0:
        raise FormatError(
            f"block size {block_size} incompatible with vector length {vector_length}"
        )
    return BlockedEllMatrix.from_dense(np.asarray(dense), block_size)

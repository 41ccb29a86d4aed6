"""Vectorized SpMM: one batched matmul per bucket of equal strips.

The emulation kernel walks strips (and the slices of a grouped launch)
in Python, gathering the RHS rows of each strip's stride groups. This
path walks the :class:`~repro.fastpath.plans.SpmmGatherPlan` buckets
instead — strips with the same number of stride groups — and runs each
bucket, over every slice at once, as one stacked
``(S, strips, V, groups*stride) @ (S, strips, groups*stride, N)``
matmul, written in bucket order and placed by one casting scatter.
Padding slots gather an appended zero RHS row.

Bit-exactness argument: the emulation kernel accumulates in ``int64``,
which is exact. A floating-point accumulation of the same integer data
is exact — in *any* summation order — as long as every partial sum is
exactly representable, i.e. below the mantissa capacity. Each output
element is a dot product of at most ``max_nnz_row`` nonzero terms, each
bounded by ``max|lhs| * max|rhs|`` (the configured Table-IV operand
ranges), so

- ``float64`` is always exact here (the bound never approaches 2^53);
- ``float32`` is exact iff ``max_nnz_row * max|lhs| * max|rhs| < 2^24``,
  which holds for the low-bit pairs that dominate serving traffic.

The kernel picks the narrowest exact dtype per call and rounds back to
``int64`` — identical bits to the emulated result, asserted by
``tests/fastpath`` across the full equivalence grid.
"""

from __future__ import annotations

import numpy as np

from repro.fastpath.plans import spmm_plan
from repro.formats.srbcrs import SRBCRSMatrix
from repro.gpu.timing import KernelStats
from repro.kernels.spmm import MagicubeSpMM
from repro.lowp.quantize import int_range

__all__ = ["FastpathSpMM"]

#: largest integer magnitude float32 accumulates exactly (24-bit mantissa)
_F32_EXACT_BOUND = float(2**24)
#: gathered RHS bytes per matmul, sized to stay in a core's L2 cache
_GATHER_BYTES = 512 * 1024


class FastpathSpMM(MagicubeSpMM):
    """Drop-in :class:`~repro.kernels.spmm.MagicubeSpMM` with the strip
    and slice loops replaced by one batched matmul per strip bucket.

    Validation, the fused dequantization and cost accounting are
    inherited unchanged — only the arithmetic hot path differs, and only
    in speed.
    """

    def _accum_dtype(self, max_nnz_row: int) -> np.dtype:
        """Narrowest float dtype whose accumulation is provably exact."""
        cfg = self.config
        lo, hi = int_range(cfg.l_bits, cfg.l_signed)
        amax = max(abs(lo), abs(hi))
        lo, hi = int_range(cfg.r_bits, cfg.r_signed)
        bmax = max(abs(lo), abs(hi))
        if max_nnz_row * amax * bmax < _F32_EXACT_BOUND:
            return np.dtype(np.float32)
        return np.dtype(np.float64)

    def _products(self, lhs: SRBCRSMatrix, rhs3: np.ndarray) -> np.ndarray:
        plan = spmm_plan(lhs)
        dtype = self._accum_dtype(plan.max_nnz_row)
        slices, k, n = rhs3.shape
        v, stride = lhs.vector_length, lhs.stride
        # row k is zero: the padding slots' gather target
        rhs = np.empty((slices, k + 1, n), dtype=dtype)
        rhs[:, :k] = rhs3
        rhs[:, k] = 0
        tiles = lhs.values.reshape(slices, -1, v, stride).astype(dtype)
        # results land in bucket order; one casting scatter places them
        acc = np.empty((slices, len(plan.order), v, n), dtype=dtype)
        done = 0
        # strips per matmul: keeps the gathered RHS rows cache-resident
        row_bytes = slices * n * dtype.itemsize
        for strips, groups, rows in plan.buckets:
            step = max(1, _GATHER_BYTES // (row_bytes * rows.shape[1]))
            for lo in range(0, len(strips), step):
                part = slice(lo, lo + step)
                # (S, B, groups, V, stride) -> (S, B, V, groups*stride)
                strip_lhs = tiles[:, groups[part]].transpose(0, 1, 3, 2, 4)
                strip_lhs = strip_lhs.reshape(slices, -1, v, rows.shape[1])
                # padding targets row k, so "clip" never clips: it only
                # skips the bounds check
                gathered = rhs.take(rows[part], axis=1, mode="clip")
                width = strip_lhs.shape[1]
                np.matmul(strip_lhs, gathered, out=acc[:, done : done + width])
                done += width
        # every partial sum is an exactly represented integer
        out = np.zeros((slices, lhs.num_strips, v, n), dtype=np.int64)
        out[:, plan.order] = acc
        return out.reshape(slices, lhs.shape[0], n)

    def _stats(self, lhs: SRBCRSMatrix, n: int) -> KernelStats:
        """Memoized cost accounting: the model is a pure function of
        (layout, config, N), so it is computed once per layout and
        copied out (results must not alias each other)."""
        plan = spmm_plan(lhs)
        key = (self.config, n)
        cached = plan.stats_cache.get(key)
        if cached is None:
            cached = plan.stats_cache[key] = self._account(lhs, n)
        return cached.repeated(1)

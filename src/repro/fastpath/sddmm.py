"""Vectorized SDDMM: one batched matmul per bucket of equal strips.

The emulation kernel gathers RHS *columns* per strip
(``b64[:, cols]`` — a strided copy) and multiplies in ``int64``, which
NumPy executes without BLAS, once per strip and once per slice of a
grouped launch. This path restages ``B`` once per call as a
C-contiguous ``(S, N, K)`` buffer, so the mask's column gather becomes
a contiguous *row* gather, and walks the
:class:`~repro.fastpath.plans.BcrsStripPlan` buckets — strips with the
same vector count, rounded up to a multiple of eight — running each
bucket, over every slice at once, as one stacked
``(S, strips, L, K) @ (S, strips, K, V)`` matmul.

Exactness mirrors the SpMM argument: each output element is a K-term
dot of integers bounded by the configured operand ranges, so float32
is exact iff ``K * max|a| * max|b| < 2^24`` and float64 always is.
"""

from __future__ import annotations

import numpy as np

from repro.fastpath.plans import bcrs_plan
from repro.fastpath.spmm import _GATHER_BYTES
from repro.formats.bcrs import BCRSMatrix
from repro.gpu.timing import KernelStats
from repro.kernels.sddmm import MagicubeSDDMM
from repro.lowp.quantize import int_range

__all__ = ["FastpathSDDMM"]

_F32_EXACT_BOUND = float(2**24)


class FastpathSDDMM(MagicubeSDDMM):
    """Drop-in :class:`~repro.kernels.sddmm.MagicubeSDDMM` with the strip
    and slice loops replaced by one batched matmul per strip bucket.

    Validation, cost accounting, output formats and the strict path are
    inherited unchanged.
    """

    def _accum_dtype(self, k: int) -> np.dtype:
        cfg = self.config
        lo, hi = int_range(cfg.l_bits, cfg.l_signed)
        amax = max(abs(lo), abs(hi))
        lo, hi = int_range(cfg.r_bits, cfg.r_signed)
        bmax = max(abs(lo), abs(hi))
        if k * amax * bmax < _F32_EXACT_BOUND:
            return np.dtype(np.float32)
        return np.dtype(np.float64)

    def _products(
        self, a3: np.ndarray, b3: np.ndarray, mask: BCRSMatrix, strict: bool
    ) -> np.ndarray:
        if strict:
            return super()._products(a3, b3, mask, strict)
        plan = bcrs_plan(mask)
        slices, _, k = a3.shape
        v = mask.vector_length
        dtype = self._accum_dtype(k)
        a4 = a3.astype(dtype).reshape(slices, -1, v, k)  # (S, strips, V, K)
        # C-contiguous (S, N, K): a plain transpose view would make the
        # row gather below strided
        bt = np.swapaxes(b3, 1, 2).astype(dtype, order="C")
        # one scratch row past the vectors takes the padded slots
        vals = np.empty((slices, mask.num_vectors + 1, v), dtype=dtype)
        # strips per matmul: keeps the gathered B rows cache-resident
        row_bytes = slices * k * dtype.itemsize
        for strips, positions, cols in plan.buckets:
            step = max(1, _GATHER_BYTES // (row_bytes * cols.shape[1]))
            for lo in range(0, len(strips), step):
                part = slice(lo, lo + step)
                # (S, B, L, K) @ (S, B, K, V) -> (S, B, L, V); the column
                # indices are in range, so "clip" only skips the bounds check
                vals[:, positions[part]] = np.matmul(
                    bt.take(cols[part], axis=1, mode="clip"),
                    np.swapaxes(a4[:, strips[part]], -1, -2),
                )
        # every product is an exactly represented integer
        return vals[:, :-1].astype(np.int64)

    def _stats(
        self, a_shape: tuple[int, int], b_shape: tuple[int, int], mask: BCRSMatrix
    ) -> KernelStats:
        plan = bcrs_plan(mask)
        key = (self.config, a_shape, b_shape)
        cached = plan.stats_cache.get(key)
        if cached is None:
            cached = plan.stats_cache[key] = self._account(a_shape, b_shape, mask)
        return cached.repeated(1)

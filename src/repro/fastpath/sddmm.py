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

from repro.core.workspace import scratch
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

    Validation, cost accounting and output formats are inherited
    unchanged.
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
        self, a3: np.ndarray, b3: np.ndarray, mask: BCRSMatrix
    ) -> np.ndarray:
        plan = bcrs_plan(mask)
        slices, m, k = a3.shape
        v = mask.vector_length
        dtype = self._accum_dtype(k)
        ws = self.workspace
        a4 = scratch(ws, "sddmm.lhs", (slices, m // v, v, k), dtype)  # (S, strips, V, K)
        np.copyto(a4, a3.reshape(a4.shape))
        # C-contiguous (S, N, K): a plain transpose view would make the
        # row gather below strided
        bt = scratch(ws, "sddmm.rhs", (slices, b3.shape[2], k), dtype)
        np.copyto(bt, np.swapaxes(b3, 1, 2))
        # one scratch row past the vectors takes the padded slots
        vals = scratch(ws, "sddmm.values", (slices, mask.num_vectors + 1, v), dtype)
        # strips per matmul: keeps the gathered B rows cache-resident
        row_bytes = slices * k * dtype.itemsize
        for strips, positions, cols in plan.buckets:
            step = max(1, _GATHER_BYTES // (row_bytes * cols.shape[1]))
            for lo in range(0, len(strips), step):
                part = slice(lo, lo + step)
                width, count = cols[part].shape
                # the indices are in range, so "clip" only skips the
                # bounds check (and the buffered copy)
                gathered = scratch(
                    ws, "sddmm.gathered", (slices, width, count, k), dtype
                )
                np.take(bt, cols[part], axis=1, out=gathered, mode="clip")
                picked = scratch(ws, "sddmm.picked", (slices, width, v, k), dtype)
                np.take(a4, strips[part], axis=1, out=picked, mode="clip")
                # (S, B, L, K) @ (S, B, K, V) -> (S, B, L, V)
                products = scratch(
                    ws, "sddmm.products", (slices, width, count, v), dtype
                )
                np.matmul(gathered, np.swapaxes(picked, -1, -2), out=products)
                vals[:, positions[part]] = products
                # without a workspace these are fresh arrays: free them
                # before the next bucket allocates its own, or the heap
                # grows past its trim threshold and every call faults
                del gathered, picked, products
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

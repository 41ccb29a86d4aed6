"""Magicube SpMM: sparse(SR-BCRS) x dense -> dense (Sec. IV-B).

The kernel follows the paper's thread-block decomposition (Fig. 3b):
each thread block owns a ``BSm x BSn`` output tile where ``BSm = V`` (one
SR-BCRS row strip) and iterates over the strip's stride groups; each
group contributes one ``(V x BSk) @ (BSk x BSn)`` partial product, with
``BSk`` = the SR-BCRS stride = the MMA reduction dim. The SR-BCRS layout
feeds the LHS fragments with plain contiguous loads; the RHS rows are
gathered by the group's column indices and transposed online (Figs. 4-7);
Algorithm 1 prefetches the next RHS block behind the current MMAs.

Execution here is *functional + accounted*: the true integer result is
computed (vectorized per strip), and a :class:`KernelStats` records the
exact MMA, traffic, shared-memory and epilogue costs of the configured
variant for the cost model. :class:`StrictSpMM` computes every strip
through the digit-decomposition algebra instead (the ``magicube-strict``
backend's kernel).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ConfigError, PrecisionError, ShapeError
from repro.formats.srbcrs import PAD_INDEX, SRBCRSMatrix
from repro.gpu.memory import TrafficCounter
from repro.gpu.mma import mma_shape_for
from repro.gpu.sharedmem import conflict_degree, spmm_rhs_load_pattern
from repro.gpu.timing import KernelStats
from repro.gpu.warp import LaunchGrid, ThreadBlock, ceil_div
from repro.kernels.emulation import (
    EmulationPlan,
    emulated_matmul,
    mma_count_per_tile,
    plan_for,
)
from repro.kernels.transpose import transpose_bitop_cost
from repro.lowp.quantize import int_range


@lru_cache(maxsize=None)
def rhs_load_conflict_degree(bsn_bytes: int, pad_words: int) -> int:
    """Worst bank-conflict degree of the Fig. 4/5 RHS register loads.

    Depends only on the staged row width and the padding, so every
    ``_account`` call shares one evaluation per ``(bsn_bytes, pad_words)``.
    """
    pattern = spmm_rhs_load_pattern(bsk=16, bsn_bytes=bsn_bytes, pad_words=pad_words)
    return max(conflict_degree(p) for p in pattern)


@dataclass(frozen=True)
class SpMMConfig:
    """Configuration of one SpMM kernel instance.

    ``l_bits``/``r_bits`` select the Table-IV precision pair.
    ``conflict_free``, ``prefetch`` and ``index_shuffle`` are the Fig. 11
    ablation knobs (index shuffling only matters on the int4 path).
    ``bsn`` is the RHS tile width in elements (64 -> 64B transactions,
    two warps per block; 128 -> 128B, four warps). ``fuse_dequant``
    writes fp16 outputs (2 B) instead of raw int32 accumulators.
    """

    l_bits: int = 8
    r_bits: int = 8
    l_signed: bool = True
    r_signed: bool = True
    conflict_free: bool = True
    prefetch: bool = True
    index_shuffle: bool = True
    bsn: int = 64
    fuse_dequant: bool = True

    def __post_init__(self) -> None:
        if self.bsn % 32 != 0 or self.bsn < 32 or self.bsn > 128:
            raise ConfigError(f"BSn must be 32, 64, 96 or 128, got {self.bsn}")

    @property
    def warps(self) -> int:
        """Warps per thread block: one per 32 output columns."""
        return self.bsn // 32

    @property
    def name(self) -> str:
        return f"L{self.l_bits}-R{self.r_bits}"


@dataclass
class SpMMResult:
    """Output of one SpMM execution."""

    output: np.ndarray
    stats: KernelStats
    dequantized: np.ndarray | None = None


class MagicubeSpMM:
    """The Magicube SpMM kernel for one precision configuration."""

    def __init__(self, config: SpMMConfig | None = None, **kwargs) -> None:
        self.config = config if config is not None else SpMMConfig(**kwargs)
        self.plan: EmulationPlan = plan_for(
            self.config.l_bits, self.config.r_bits, op="spmm"
        )

    @property
    def required_stride(self) -> int:
        """SR-BCRS stride the LHS must use: the native MMA k dim."""
        return mma_shape_for(self.plan.native_bits).k

    # ------------------------------------------------------------------
    def __call__(
        self,
        lhs: SRBCRSMatrix,
        rhs: np.ndarray,
        scale: "float | np.ndarray | None" = None,
    ) -> SpMMResult:
        """Compute ``C = lhs @ rhs`` and account the kernel's costs.

        ``rhs`` is the dense (K, N) integer-code matrix, row-major.
        ``scale`` (product of the operands' quantization scales) enables
        the fused dequantization epilogue.

        A grouped ``lhs`` (S slices over one layout) with an
        ``(S, K, N)`` ``rhs`` makes one grouped launch: the output is
        ``(S, M, N)``, ``scale`` may hold one value per slice, and the
        stats are those of one launch doing the work S times.
        """
        cfg = self.config
        rhs = np.asarray(rhs)
        self._validate(lhs, rhs)
        grouped = rhs.ndim == 3
        out = self._products(lhs, rhs if grouped else rhs[None])
        stats = self._stats(lhs, rhs.shape[-1])
        if grouped:
            stats = stats.repeated(len(rhs))
        else:
            out = out[0]
        deq = None
        if scale is not None and cfg.fuse_dequant:
            factor = np.asarray(scale, dtype=np.float64)
            if grouped and factor.ndim == 1:
                factor = factor[:, None, None]
            deq = (out * factor).astype(np.float32)
        return SpMMResult(output=out, stats=stats, dequantized=deq)

    def _products(self, lhs: SRBCRSMatrix, rhs3: np.ndarray) -> np.ndarray:
        """``(S, M, N)`` int64 products, computed slice by slice and strip
        by strip (the oracle for faster overrides)."""
        values = np.asarray(lhs.values).reshape(len(rhs3), -1)
        return np.stack([
            self._slice_products(lhs, vals, rhs)
            for vals, rhs in zip(values, rhs3)
        ])

    def _slice_products(
        self, lhs: SRBCRSMatrix, values: np.ndarray, rhs: np.ndarray
    ) -> np.ndarray:
        m, _ = lhs.shape
        n = rhs.shape[1]
        v = lhs.vector_length
        stride = lhs.stride

        out = np.zeros((m, n), dtype=np.int64)
        # dtype promotions hoisted out of the strip loop; the staging
        # buffer below is allocated once and reused per strip
        rhs64 = np.asarray(rhs, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        row_starts = lhs.row_starts
        counts = np.asarray(lhs.row_ends) - np.asarray(row_starts)
        max_pad = int((-(-counts // stride)).max()) * stride if counts.size else 0
        staged = np.empty((max_pad, n), dtype=np.int64)
        for r in range(lhs.num_strips):
            start = int(row_starts[r])
            npad = lhs.strip_num_groups(r) * stride
            if npad == 0:
                continue
            cols = lhs.col_indices[start : start + npad]
            valid = cols != PAD_INDEX
            safe = np.where(valid, cols, 0)
            gathered = staged[:npad]  # (npad, N) staged rows
            np.take(rhs64, safe, axis=0, out=gathered)
            gathered[~valid] = 0
            # strip LHS: stride groups stored (V, stride) row-major —
            # a transpose-reshape view beats concatenating group tiles
            tiles = values[start * v : (start + npad) * v].reshape(-1, v, stride)
            lhs_strip = tiles.transpose(1, 0, 2).reshape(v, npad)  # (V, npad)
            self._strip_product(lhs_strip, gathered, out[r * v : (r + 1) * v])
        return out

    def _strip_product(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """One strip's exact ``a @ b``, written into and returned as
        ``out`` — the arithmetic that :class:`StrictSpMM` replaces."""
        return np.matmul(a, b, out=out)

    def _stats(self, lhs: SRBCRSMatrix, n: int) -> KernelStats:
        """The cost accounting of one slice (a fresh object per call)."""
        return self._account(lhs, n)

    # ------------------------------------------------------------------
    def _validate(self, lhs: SRBCRSMatrix, rhs: np.ndarray) -> None:
        cfg = self.config
        if rhs.ndim not in (2, 3) or rhs.shape[-2] != lhs.shape[1]:
            raise ShapeError(
                f"RHS must be ({lhs.shape[1]}, N) or (S, {lhs.shape[1]}, N), "
                f"got {rhs.shape}"
            )
        slices = rhs.shape[0] if rhs.ndim == 3 else None
        if lhs.slices != slices:
            raise ShapeError(
                f"LHS has {lhs.slices or 'no'} slices, RHS {slices or 'none'}: "
                f"a grouped launch needs one LHS slice per RHS slice"
            )
        if lhs.stride != self.required_stride:
            raise ShapeError(
                f"{self.plan.name} needs SR-BCRS stride {self.required_stride} "
                f"(the int{self.plan.native_bits} MMA k dim), got {lhs.stride}"
            )
        lo, hi = int_range(cfg.l_bits, cfg.l_signed)
        vals = np.asarray(lhs.values)
        if vals.size and (vals.min() < lo or vals.max() > hi):
            raise PrecisionError(f"LHS values exceed {cfg.name} LHS range [{lo}, {hi}]")
        lo, hi = int_range(cfg.r_bits, cfg.r_signed)
        if rhs.size and (rhs.min() < lo or rhs.max() > hi):
            raise PrecisionError(f"RHS values exceed {cfg.name} RHS range [{lo}, {hi}]")

    # ------------------------------------------------------------------
    def _account(self, lhs: SRBCRSMatrix, n: int) -> KernelStats:
        """Build the KernelStats for this execution (exact counts)."""
        cfg = self.config
        plan = self.plan
        m, k = lhs.shape
        v = lhs.vector_length
        stride = lhs.stride
        strips = lhs.num_strips
        col_blocks = ceil_div(n, cfg.bsn)
        groups_total = lhs.num_padded_vectors // stride if stride else 0
        shape = mma_shape_for(plan.native_bits)

        stats = KernelStats(name=f"magicube-spmm-{plan.name}")
        mma_count = (
            groups_total * col_blocks * (cfg.bsn // 8) * mma_count_per_tile(plan, v)
        )
        stats.add_mma(f"int{plan.native_bits}", mma_count, shape.ops)
        stats.useful_ops = 2 * lhs.nnz * n

        # ---- global traffic ------------------------------------------
        t = TrafficCounter()
        lhs_value_bytes = lhs.num_padded_vectors * v * cfg.l_bits // 8
        lhs_index_bytes = lhs.num_padded_vectors * 4
        ptr_bytes = strips * 8  # 2M pointers, 4 B each
        t.read("lhs_values", lhs_value_bytes * col_blocks, lhs_value_bytes)
        t.read("lhs_indices", lhs_index_bytes * col_blocks, lhs_index_bytes)
        t.read("row_pointers", ptr_bytes * col_blocks, ptr_bytes)
        rhs_access = lhs.num_padded_vectors * n * cfg.r_bits // 8
        rhs_unique = min(k * n * cfg.r_bits // 8, rhs_access)
        t.read("rhs", rhs_access, rhs_unique)
        t.write("output", m * n * (2 if cfg.fuse_dequant else 4))
        stats.traffic = t

        # ---- shared memory -------------------------------------------
        bsn_bytes = cfg.bsn * cfg.r_bits // 8
        staged_words = stride * bsn_bytes // 4
        store_tx = ceil_div(staged_words, 32)  # row-major stores, conflict-free
        pad_words = 8 if cfg.conflict_free else 0
        degree = rhs_load_conflict_degree(bsn_bytes, pad_words)
        load_tx = ceil_div(staged_words, 32)
        lhs_words = v * stride * cfg.l_bits // 8 // 4
        lhs_tx = ceil_div(max(lhs_words, 1), 32)
        per_group = store_tx + load_tx * degree + lhs_tx
        stats.smem_transaction_cycles = groups_total * col_blocks * per_group

        # ---- epilogue: register transposes, stacking shuffles ---------
        staged_values = stride * cfg.bsn
        transpose_ops = transpose_bitop_cost(
            plan.native_bits, staged_values, shuffled=cfg.index_shuffle
        )
        epilogue = groups_total * col_blocks * ceil_div(transpose_ops, 32)
        if plan.products > 1:
            # warp shuffles to exchange stacked partials + scale-adds
            epilogue += mma_count * 6
        stats.epilogue_cycles = epilogue

        stats.grid = LaunchGrid(
            blocks=max(strips * col_blocks, 1), block=ThreadBlock(warps=cfg.warps)
        )
        stats.prefetch = cfg.prefetch
        stats.notes = {
            "variant": self.variant_name(),
            "conflict_degree": degree,
            "padding_ratio": lhs.padding_ratio,
        }
        return stats

    def variant_name(self) -> str:
        """Human-readable ablation variant (Fig. 11 legend)."""
        cfg = self.config
        if not cfg.conflict_free:
            return "basic"
        parts = ["conflict-free"]
        if cfg.prefetch:
            parts.append("prefetch")
        if cfg.index_shuffle and self.plan.native_bits == 4:
            parts.append("col-index-shuffling")
        return " + ".join(parts)


class StrictSpMM(MagicubeSpMM):
    """SpMM whose every strip product runs the digit-decomposition
    algebra (:func:`~repro.kernels.emulation.emulated_matmul`) instead of
    a direct matmul — the ``magicube-strict`` kernel (slow; for
    verification). Everything else is inherited."""

    def _strip_product(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        cfg = self.config
        out[...] = emulated_matmul(
            a, b, self.plan, a_signed=cfg.l_signed, b_signed=cfg.r_signed
        )
        return out

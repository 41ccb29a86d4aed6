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
from repro.gpu.timing import KernelStats, LaunchCounts
from repro.gpu.warp import ceil_div, maximum, minimum
from repro.kernels.emulation import (
    EmulationPlan,
    emulated_matmul,
    mma_count_per_tile,
    plan_for,
)
from repro.kernels.transpose import transpose_bitop_cost
from repro.lowp.quantize import int_range


def rhs_load_conflict_degree(bsn_bytes: int, pad_words: int) -> int:
    """Worst bank-conflict degree of the Fig. 4/5 RHS register loads
    (elementwise for an array of ``bsn_bytes``).

    Depends only on the staged row width and the padding, so every
    accounting shares one evaluation per ``(bsn_bytes, pad_words)``.
    """
    if isinstance(bsn_bytes, np.ndarray):
        return np.array([
            _rhs_load_conflict_degree(int(b), pad_words) for b in bsn_bytes.flat
        ]).reshape(bsn_bytes.shape)
    return _rhs_load_conflict_degree(bsn_bytes, pad_words)


@lru_cache(maxsize=None)
def _rhs_load_conflict_degree(bsn_bytes: int, pad_words: int) -> int:
    pattern = spmm_rhs_load_pattern(bsk=16, bsn_bytes=bsn_bytes, pad_words=pad_words)
    return max(conflict_degree(p) for p in pattern)


def spmm_counts(cfg, plan, shape, lhs, n) -> LaunchCounts:
    """Exact counts of one SpMM launch (Sec. IV-B): MMAs, traffic,
    shared-memory transactions and the transpose/stacking epilogue.

    ``cfg`` supplies ``bsn`` and the ablation flags, ``plan`` the pair
    (``l_bits``, ``r_bits``, ``native_bits``, ``products``), ``shape``
    its MMA shape (``ops``) and ``lhs`` the SR-BCRS topology. Numbers
    may be Python ints or NumPy arrays: :meth:`MagicubeSpMM._account`
    counts one launch, the planner a (pair x ``bsn``) grid at once.
    """
    m, k = lhs.shape
    v = lhs.vector_length
    stride = lhs.stride
    strips = lhs.num_strips
    padded = lhs.num_padded_vectors
    bsn = cfg.bsn
    col_blocks = ceil_div(n, bsn)
    groups_total = padded // stride
    mma_count = groups_total * col_blocks * (bsn // 8) * mma_count_per_tile(plan, v)

    # ---- global traffic ----------------------------------------------
    t = TrafficCounter()
    lhs_value_bytes = padded * v * plan.l_bits // 8
    lhs_index_bytes = padded * 4
    ptr_bytes = strips * 8  # 2M pointers, 4 B each
    t.read("lhs_values", lhs_value_bytes * col_blocks, lhs_value_bytes)
    t.read("lhs_indices", lhs_index_bytes * col_blocks, lhs_index_bytes)
    t.read("row_pointers", ptr_bytes * col_blocks, ptr_bytes)
    rhs_access = padded * n * plan.r_bits // 8
    rhs_unique = minimum(k * n * plan.r_bits // 8, rhs_access)
    t.read("rhs", rhs_access, rhs_unique)
    t.write("output", m * n * (2 if cfg.fuse_dequant else 4))

    # ---- shared memory -----------------------------------------------
    bsn_bytes = bsn * plan.r_bits // 8
    staged_words = stride * bsn_bytes // 4
    # row-major stores (conflict-free) and the register loads both move
    # the staged words 32 per transaction
    store_tx = load_tx = ceil_div(staged_words, 32)
    pad_words = 8 if cfg.conflict_free else 0
    degree = rhs_load_conflict_degree(bsn_bytes, pad_words)
    lhs_words = v * stride * plan.l_bits // 8 // 4
    lhs_tx = ceil_div(maximum(lhs_words, 1), 32)
    per_group = store_tx + load_tx * degree + lhs_tx

    # ---- epilogue: register transposes, stacking shuffles -------------
    transpose_ops = transpose_bitop_cost(
        plan.native_bits, stride * bsn, shuffled=cfg.index_shuffle
    )
    epilogue = groups_total * col_blocks * ceil_div(transpose_ops, 32)
    # warp shuffles to exchange stacked partials + scale-adds
    epilogue += mma_count * 6 * (plan.products > 1)

    return LaunchCounts(
        native_bits=plan.native_bits,
        mma_ops=mma_count * shape.ops,
        useful_ops=2 * lhs.nnz * n,
        traffic=t,
        smem_transaction_cycles=groups_total * col_blocks * per_group,
        epilogue_cycles=epilogue,
        blocks=maximum(strips * col_blocks, 1),
        prefetch=cfg.prefetch,
        serial_bytes=0,
        notes={"conflict_degree": degree, "padding_ratio": lhs.padding_ratio},
    )


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

    def __init__(
        self, config: SpMMConfig | None = None, *, workspace=None, **kwargs
    ) -> None:
        self.config = config if config is not None else SpMMConfig(**kwargs)
        #: optional :class:`~repro.core.workspace.Workspace` a faster
        #: override stages its temporaries in (this oracle ignores it);
        #: results never alias it
        self.workspace = workspace
        self.plan: EmulationPlan = plan_for(
            self.config.l_bits, self.config.r_bits, op="spmm"
        )
        #: the native MMA instruction every tile product issues
        self.mma_shape = mma_shape_for(self.plan.native_bits)

    @property
    def required_stride(self) -> int:
        """SR-BCRS stride the LHS must use: the native MMA k dim."""
        return self.mma_shape.k

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
        counts = spmm_counts(cfg, self.plan, self.mma_shape, lhs, n)
        return counts.stats(
            f"magicube-spmm-{self.plan.name}",
            cfg.warps,
            {"variant": self.variant_name()},
        )

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

"""Magicube SDDMM: (dense x dense) sampled by a sparse mask (Sec. IV-C).

SDDMM computes ``C = (A @ B) . sampled at the nonzero 1-D blocks of a
mask``: in sparse Transformers this is the attention-score computation
``Q K^T`` masked to the sparse attention pattern; in pruned training it
is the sparse weight-gradient.

Thread-block view (Fig. 8b): each block owns a ``BSm x BSn`` *dense*
output tile where ``BSm = V`` (one strip of output vectors) and ``BSn``
= 8 columns per warp; it marches the K dimension in ``BSk`` steps. A is
row-major, B column-major — so B feeds the MMA RHS fragments with direct
register loads (no online transpose needed, Fig. 9), while the A tile is
staged in shared memory and reused by all warps. Optionally the A tile
is prefetched with the Algorithm-1 pipeline — which the paper's Fig. 13
shows is *not* beneficial, because the shared A tile is a tiny fraction
of the traffic; the cost accounting reproduces that.

The output's storage format is chosen by the *subsequent* operator:
BCRS when a softmax follows (attention), SR-BCRS when an SpMM follows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, PrecisionError, ShapeError
from repro.formats.bcrs import BCRSMatrix
from repro.formats.convert import bcrs_to_srbcrs
from repro.formats.srbcrs import SRBCRSMatrix
from repro.gpu.memory import TrafficCounter
from repro.gpu.mma import mma_shape_for
from repro.gpu.timing import KernelStats
from repro.gpu.warp import LaunchGrid, ThreadBlock, ceil_div
from repro.kernels.emulation import (
    EmulationPlan,
    emulated_matmul,
    mma_count_per_tile,
    plan_for,
)
from repro.lowp.quantize import int_range


@dataclass(frozen=True)
class SDDMMConfig:
    """Configuration of one SDDMM kernel instance.

    ``l_bits``/``r_bits`` must be an SDDMM pair of Table IV (L16-R16
    emulated; L8-R8 / L4-R4 native). ``prefetch_lhs`` enables the
    Algorithm-1 pipeline on the shared A tile (the Fig. 13 ablation).
    ``warps`` warps per block, each producing 8 output columns.
    """

    l_bits: int = 8
    r_bits: int = 8
    l_signed: bool = True
    r_signed: bool = True
    prefetch_lhs: bool = False
    warps: int = 2
    output_format: str = "bcrs"

    def __post_init__(self) -> None:
        if self.warps < 1 or self.warps > 8:
            raise ConfigError(f"warps must be in [1, 8], got {self.warps}")
        if self.output_format not in ("bcrs", "srbcrs"):
            raise ConfigError(f"unknown output format {self.output_format!r}")

    @property
    def bsn(self) -> int:
        """Output vectors per thread block."""
        return 8 * self.warps

    @property
    def name(self) -> str:
        return f"L{self.l_bits}-R{self.r_bits}"


@dataclass
class SDDMMResult:
    """Output of one SDDMM execution: a sparse matrix + cost stats."""

    output: BCRSMatrix | SRBCRSMatrix
    stats: KernelStats


class MagicubeSDDMM:
    """The Magicube SDDMM kernel for one precision configuration."""

    def __init__(self, config: SDDMMConfig | None = None, **kwargs) -> None:
        self.config = config if config is not None else SDDMMConfig(**kwargs)
        self.plan: EmulationPlan = plan_for(
            self.config.l_bits, self.config.r_bits, op="sddmm"
        )

    @property
    def bsk(self) -> int:
        """Reduction step: the native MMA k dim."""
        return mma_shape_for(self.plan.native_bits).k

    # ------------------------------------------------------------------
    def __call__(
        self,
        a: np.ndarray,
        b: np.ndarray,
        mask: BCRSMatrix,
    ) -> SDDMMResult:
        """Compute ``C = (A @ B) sampled at mask`` and account the cost.

        ``a`` is (M, K) row-major, ``b`` (K, N) (the kernel reads it
        column-major); ``mask`` supplies the output topology (its values
        are ignored).

        A leading slice axis — ``a`` (S, M, K), ``b`` (S, K, N) — makes
        one grouped launch over S slices that share ``mask``: the
        output is a grouped matrix with ``(S, num_vectors, V)`` values
        and the stats are those of one launch doing the work S times.
        """
        cfg = self.config
        a = np.asarray(a)
        b = np.asarray(b)
        self._validate(a, b, mask)
        grouped = a.ndim == 3
        a3, b3 = (a, b) if grouped else (a[None], b[None])
        values = self._products(a3, b3, mask)
        out = mask.with_values(values if grouped else values[0])
        result: BCRSMatrix | SRBCRSMatrix = out
        if cfg.output_format == "srbcrs":
            # feed the subsequent SpMM: stride = that kernel's MMA k dim
            result = bcrs_to_srbcrs(out, stride=16)
        stats = self._stats(a3.shape[1:], b3.shape[1:], mask)
        if grouped:
            stats = stats.repeated(len(a3))
        return SDDMMResult(output=result, stats=stats)

    def _products(
        self, a3: np.ndarray, b3: np.ndarray, mask: BCRSMatrix
    ) -> np.ndarray:
        """``(S, num_vectors, V)`` int64 sampled products, computed slice
        by slice and strip by strip (the oracle for faster overrides)."""
        return np.stack([
            self._slice_products(a, b, mask) for a, b in zip(a3, b3)
        ])

    def _slice_products(
        self, a: np.ndarray, b: np.ndarray, mask: BCRSMatrix
    ) -> np.ndarray:
        # dtype promotions and pointer reads hoisted out of the strip
        # loop; one (V, max_vectors) accumulator is reused per strip
        a64 = np.asarray(a, dtype=np.int64)
        b64 = np.asarray(b, dtype=np.int64)
        v = mask.vector_length
        values = np.zeros((mask.num_vectors, v), dtype=np.int64)
        ptrs = np.asarray(mask.row_ptrs)
        seg_counts = np.diff(ptrs)
        max_vec = int(seg_counts.max()) if seg_counts.size else 0
        acc = np.empty((v, max_vec), dtype=np.int64)
        for r in range(mask.num_strips):
            lo, hi = int(ptrs[r]), int(ptrs[r + 1])
            if hi == lo:
                continue
            cols = mask.col_indices[lo:hi]
            a_strip = a64[r * v : (r + 1) * v]  # (V, K)
            b_cols = b64[:, cols]  # (K, nvec)
            prod = self._strip_product(a_strip, b_cols, acc[:, : hi - lo])
            values[lo:hi] = prod.T  # vector-major
        return values

    def _strip_product(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """One strip's exact ``a @ b``, written into and returned as
        ``out`` — the arithmetic that :class:`StrictSDDMM` replaces."""
        return np.matmul(a, b, out=out)

    def _stats(
        self, a_shape: tuple[int, int], b_shape: tuple[int, int], mask: BCRSMatrix
    ) -> KernelStats:
        """The cost accounting of one slice (a fresh object per call)."""
        return self._account(a_shape, b_shape, mask)

    # ------------------------------------------------------------------
    def _validate(self, a: np.ndarray, b: np.ndarray, mask: BCRSMatrix) -> None:
        cfg = self.config
        if (
            a.ndim not in (2, 3)
            or b.ndim != a.ndim
            or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]
        ):
            raise ShapeError(f"incompatible SDDMM shapes {a.shape} @ {b.shape}")
        if mask.shape != (a.shape[-2], b.shape[-1]):
            raise ShapeError(
                f"mask shape {mask.shape} != output shape {(a.shape[-2], b.shape[-1])}"
            )
        if a.shape[-1] % self.bsk != 0:
            raise ShapeError(
                f"K={a.shape[-1]} must be a multiple of BSk={self.bsk} "
                f"for {self.plan.name}"
            )
        if mask.vector_length > 8:
            raise ShapeError("mask vector length must be <= 8 (the MMA m dim)")
        lo, hi = int_range(cfg.l_bits, cfg.l_signed)
        if a.size and (a.min() < lo or a.max() > hi):
            raise PrecisionError(f"A values exceed {cfg.name} LHS range [{lo}, {hi}]")
        lo, hi = int_range(cfg.r_bits, cfg.r_signed)
        if b.size and (b.min() < lo or b.max() > hi):
            raise PrecisionError(f"B values exceed {cfg.name} RHS range [{lo}, {hi}]")

    # ------------------------------------------------------------------
    def _account(
        self, a_shape: tuple[int, int], b_shape: tuple[int, int], mask: BCRSMatrix
    ) -> KernelStats:
        cfg = self.config
        plan = self.plan
        m, k = a_shape
        n = b_shape[1]
        v = mask.vector_length
        steps = k // self.bsk
        shape = mma_shape_for(plan.native_bits)

        vec_counts = np.asarray(mask.vectors_per_strip())
        vec_blocks = -(-vec_counts // cfg.bsn)  # vectorized ceil-div
        padded_vecs = int((vec_blocks * cfg.bsn).sum())
        blocks_total = int(vec_blocks.sum())

        stats = KernelStats(name=f"magicube-sddmm-{plan.name}")
        mma_count = (
            blocks_total * cfg.warps * steps * mma_count_per_tile(plan, v)
        )
        stats.add_mma(f"int{plan.native_bits}", mma_count, shape.ops)
        stats.useful_ops = 2 * k * mask.nnz

        t = TrafficCounter()
        lhs_bytes_per_block = v * k * cfg.l_bits // 8
        lhs_access = blocks_total * lhs_bytes_per_block
        t.read("lhs", lhs_access, min(m * k * cfg.l_bits // 8, lhs_access))
        rhs_access = padded_vecs * k * cfg.r_bits // 8
        t.read("rhs", rhs_access, min(k * n * cfg.r_bits // 8, rhs_access))
        t.read("mask_indices", mask.num_vectors * 4)
        t.write("output", mask.nnz * 2 + mask.num_vectors * 4)
        stats.traffic = t

        # shared memory: only the A tile is staged; one store + one load
        # per step, reused by all warps (conflict-free row-major access)
        lhs_tile_words = max(v * self.bsk * cfg.l_bits // 8 // 4, 1)
        per_step = 2 * ceil_div(lhs_tile_words, 32)
        stats.smem_transaction_cycles = blocks_total * steps * per_step

        if plan.products > 1:
            stats.epilogue_cycles = mma_count * 6

        # B loads are consumed by direct register loads interleaved with
        # the MMAs (always effectively pipelined); the prefetch knob only
        # moves the *A-tile* latency in or out of the shadow of compute.
        # Even without prefetch most of that latency hides behind the
        # other resident blocks of the SM (the A tile is shared by all
        # warps and re-read every step by none), so only ~1/4 of the
        # stream's time is exposed — which is why Fig. 13 finds LHS
        # prefetch not beneficial.
        stats.prefetch = True
        stats.serial_bytes = 0 if cfg.prefetch_lhs else lhs_access // 4
        stats.grid = LaunchGrid(
            blocks=max(blocks_total, 1), block=ThreadBlock(warps=cfg.warps)
        )
        stats.notes = {
            "variant": "prefetch" if cfg.prefetch_lhs else "basic",
            "padded_vectors": padded_vecs,
        }
        return stats


class StrictSDDMM(MagicubeSDDMM):
    """SDDMM whose every strip product runs the digit-decomposition
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

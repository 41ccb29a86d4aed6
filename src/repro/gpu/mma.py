"""Bit-accurate Matrix-Multiply-Accumulate primitives (``mma.sync``).

Implements the warp-level MMA semantics of the NVPTX ``mma`` API the
paper programs against: D = A @ B + C with int8/int4 operands, int32
accumulation, row-major A / column-major B, and all four signedness
combinations (``.s8/.u8`` x ``.s8/.u8`` etc. — mixed signed x unsigned is
what makes the two's-complement emulation of Sec. IV-D work).

Two entry points:

- :func:`mma_sync` operates on packed per-thread register fragments,
  exactly as the hardware instruction does — used by the fragment-level
  executors (:mod:`repro.kernels.strict`) and the layout tests.
- :func:`mma_tile` operates on small integer tiles directly (a fused
  distribute -> mma_sync -> collect) — the fast path used inside kernels.

The registry :data:`SUPPORTED_SHAPES` mirrors Table III of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import LayoutError, PrecisionError, ShapeError
from repro.gpu.fragments import FragmentLayout, layout_for


@dataclass(frozen=True)
class MmaShape:
    """One supported ``mma`` instruction shape."""

    m: int
    n: int
    k: int
    ab_bits: int

    @property
    def name(self) -> str:
        return f"m{self.m}n{self.n}k{self.k}"

    @property
    def ops(self) -> int:
        """Multiply-add operation count (2 ops per MAC), per instruction."""
        return 2 * self.m * self.n * self.k


#: Table III — supported shapes per precision. Magicube uses the smallest
#: shape of each row (m8n8k16 for int8, m8n8k32 for int4).
SUPPORTED_SHAPES: dict[int, tuple[MmaShape, ...]] = {
    8: (
        MmaShape(8, 8, 16, 8),
        MmaShape(16, 8, 16, 8),
        MmaShape(16, 8, 32, 8),
    ),
    4: (
        MmaShape(8, 8, 32, 4),
        MmaShape(16, 8, 32, 4),
        MmaShape(16, 8, 64, 4),
    ),
}


def supported_shapes(bits: int) -> tuple[MmaShape, ...]:
    """All MMA shapes available for ``bits``-wide operands (Table III)."""
    try:
        return SUPPORTED_SHAPES[bits]
    except KeyError:
        raise PrecisionError(f"tensor cores support no int{bits} MMA") from None


def mma_shape_for(bits: int) -> MmaShape:
    """The smallest shape for ``bits`` — the paper's choice (Sec. III)."""
    return supported_shapes(bits)[0]


def _saturating_range(bits: int, signed: bool) -> tuple[int, int]:
    if signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


def _validate_operand(x: np.ndarray, bits: int, signed: bool, what: str) -> np.ndarray:
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.integer):
        raise PrecisionError(f"{what} must be an integer array, got {x.dtype}")
    lo, hi = _saturating_range(bits, signed)
    x64 = x.astype(np.int64)
    if x64.size and (x64.min() < lo or x64.max() > hi):
        raise PrecisionError(
            f"{what} values exceed {'signed' if signed else 'unsigned'} int{bits} "
            f"range [{lo}, {hi}]"
        )
    return x64


def ref_imma(
    a: np.ndarray,
    b: np.ndarray,
    bits: int,
    a_signed: bool = True,
    b_signed: bool = True,
) -> np.ndarray:
    """Reference integer matmul with int32 accumulation semantics.

    Validates operand ranges against the declared width/signedness, then
    accumulates exactly (int64 internally — A100 int32 accumulators
    cannot overflow for k <= 64 at these widths, which tests verify).
    """
    a64 = _validate_operand(a, bits, a_signed, "A")
    b64 = _validate_operand(b, bits, b_signed, "B")
    if a64.ndim != 2 or b64.ndim != 2 or a64.shape[1] != b64.shape[0]:
        raise ShapeError(f"incompatible matmul shapes {a64.shape} @ {b64.shape}")
    c = a64 @ b64
    lo, hi = -(1 << 31), (1 << 31) - 1
    if c.size and (c.min() < lo or c.max() > hi):
        raise PrecisionError("int32 accumulator overflow in MMA")
    return c.astype(np.int32)


def mma_sync(
    a_frags: np.ndarray,
    b_frags: np.ndarray,
    c_frags: np.ndarray,
    layout: FragmentLayout,
    a_signed: bool = True,
    b_signed: bool = True,
) -> np.ndarray:
    """Warp-level MMA on packed register fragments (one instruction).

    ``a_frags``/``b_frags`` are the ``(32,)`` uint32 arrays produced by
    :meth:`FragmentLayout.distribute_a` / ``distribute_b``; ``c_frags``
    the ``(32, 2)`` int32 accumulators. Returns new accumulators
    ``D = A @ B + C`` distributed the same way. The input fragments are
    interpreted strictly via the layout — wrong marshalling produces
    wrong numbers, exactly as on hardware.
    """
    a = layout.collect_a(np.asarray(a_frags, dtype=np.uint32), signed=a_signed)
    b = layout.collect_b(np.asarray(b_frags, dtype=np.uint32), signed=b_signed)
    c_frags = np.asarray(c_frags, dtype=np.int32)
    if c_frags.shape != (32, 2):
        raise LayoutError(f"accumulator fragment must be (32, 2), got {c_frags.shape}")
    c = layout.collect_c(c_frags)
    d = ref_imma(a, b, layout.ab_bits, a_signed, b_signed).astype(np.int64) + c
    lo, hi = -(1 << 31), (1 << 31) - 1
    if d.size and (d.min() < lo or d.max() > hi):
        raise PrecisionError("int32 accumulator overflow in MMA")
    return layout.distribute_c(d.astype(np.int32))


def mma_tile(
    a: np.ndarray,
    b: np.ndarray,
    bits: int,
    accum: np.ndarray | None = None,
    a_signed: bool = True,
    b_signed: bool = True,
) -> np.ndarray:
    """Tile-level MMA: D = A @ B (+ accum) for one instruction shape.

    ``a`` must be ``m x k`` and ``b`` ``k x n`` for the smallest shape of
    ``bits`` (m8n8k16 / m8n8k32). This is semantically identical to
    routing through :func:`mma_sync` (tests assert so) but skips the
    register packing for speed.
    """
    layout = layout_for(bits)
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != (layout.m, layout.k):
        raise ShapeError(f"A tile must be {layout.m}x{layout.k}, got {a.shape}")
    if b.shape != (layout.k, layout.n):
        raise ShapeError(f"B tile must be {layout.k}x{layout.n}, got {b.shape}")
    d = ref_imma(a, b, bits, a_signed, b_signed)
    if accum is not None:
        d = (d.astype(np.int64) + np.asarray(accum, dtype=np.int64)).astype(np.int32)
    return d

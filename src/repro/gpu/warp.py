"""Warp and thread-block geometry helpers.

CUDA organizes threads as grid -> thread block -> warp (32 threads). The
kernels in this library reason about work distribution at warp
granularity; these helpers keep that arithmetic in one audited place.

The count arithmetic (:func:`ceil_div`, :func:`tail_utilization` and the
:func:`select` / :func:`maximum` / :func:`minimum` branches) takes Python
numbers or NumPy arrays alike: one launch is costed on Python ints and
floats, a planner's candidate grid on broadcast arrays, through the same
formulas and to the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.gpu.device import WARP_SIZE


#: bound once: these helpers sit on every launch's accounting path
_ndarray = np.ndarray


def select(cond, if_true, if_false):
    """``if_true if cond else if_false``, elementwise for an array ``cond``."""
    if isinstance(cond, _ndarray):
        return np.where(cond, if_true, if_false)
    return if_true if cond else if_false


def maximum(a, b):
    """``max(a, b)``, elementwise when either is an array."""
    if isinstance(a, _ndarray) or isinstance(b, _ndarray):
        return np.maximum(a, b)
    return a if a >= b else b


def minimum(a, b):
    """``min(a, b)``, elementwise when either is an array."""
    if isinstance(a, _ndarray) or isinstance(b, _ndarray):
        return np.minimum(a, b)
    return a if a <= b else b


def ceil_div(a, b):
    """Ceiling integer division (non-negative operands, or arrays of them)."""
    if (b <= 0).any() if isinstance(b, _ndarray) else b <= 0:
        raise ConfigError(f"ceil_div divisor must be positive, got {b}")
    return -(-a // b)


def round_up(a: int, multiple: int) -> int:
    """Round ``a`` up to the next multiple of ``multiple``."""
    return ceil_div(a, multiple) * multiple


@dataclass(frozen=True)
class ThreadBlock:
    """Shape of one thread block: ``warps`` warps of 32 threads."""

    warps: int

    def __post_init__(self) -> None:
        if self.warps < 1 or self.warps > 32:
            raise ConfigError(f"thread block must have 1..32 warps, got {self.warps}")

    @property
    def threads(self) -> int:
        return self.warps * WARP_SIZE


@dataclass(frozen=True)
class LaunchGrid:
    """A kernel launch: ``blocks`` thread blocks of shape ``block``."""

    blocks: int
    block: ThreadBlock

    @property
    def total_warps(self) -> int:
        return self.blocks * self.block.warps

    def occupancy_waves(self, num_sms: int, blocks_per_sm: int = 2) -> float:
        """Number of 'waves' the grid takes to stream through the device.

        A wave is one full complement of resident blocks. The fractional
        last wave is what causes the tail effect on small grids.
        """
        resident = num_sms * blocks_per_sm
        return max(1.0, self.blocks / resident)

    def utilization(self, num_sms: int, blocks_per_sm: int = 2) -> float:
        """Fraction of the device kept busy, accounting for the tail wave."""
        return tail_utilization(self.blocks, num_sms * blocks_per_sm)


def tail_utilization(blocks, resident: int):
    """Fraction of the device ``blocks`` thread blocks keep busy when
    ``resident`` of them fit at once (elementwise for an array).

    Full waves are fully utilized and the tail wave is partial; a grid
    smaller than one wave keeps ``blocks / resident`` of the device busy,
    never less than one block's share.
    """
    waves = blocks / resident
    full = waves // 1.0
    tail = (full + (waves - full)) / ceil_div(blocks, resident)
    return select(waves >= 1.0, tail, maximum(waves, 1.0 / resident))


def lane_id(thread: int) -> int:
    """Lane index of a thread within its warp."""
    return thread % WARP_SIZE


def warp_id(thread: int) -> int:
    """Warp index of a thread within its block."""
    return thread // WARP_SIZE

"""Cost model: operation/traffic counts -> seconds / TOP/s.

Every kernel in this library produces a :class:`KernelStats` describing
exactly what it did — MMA instructions per precision, global-memory
traffic (compulsory vs total), shared-memory transaction cycles including
bank-conflict serialization, launch geometry, and whether the Algorithm-1
prefetch pipeline was active. :class:`CostModel` converts those counts to
time on a :class:`~repro.gpu.device.DeviceSpec`.

The model is deliberately simple and auditable:

- compute time  = MMA ops / (tensor-core peak x efficiency)
- DRAM time     = compulsory bytes / DRAM bandwidth
- L2 time       = total accessed bytes / L2 bandwidth
- shared time   = serialized warp transactions / (SMs x clock)
- epilogue time = CUDA-core cycles (warp shuffles, scaling) / (SMs x clock)

Memory time is ``max(DRAM, L2)``. With prefetch, memory overlaps compute
(Algorithm 1): total = max(compute+shared+epilogue, memory). Without it
the phases serialize, moderated by an ``overlap`` factor for the warp-
level parallelism that still hides some latency. Device under-occupancy
(small grids) divides throughput via the tail-wave utilization model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from repro.gpu.device import DeviceSpec
from repro.gpu.memory import TrafficCounter
from repro.gpu.warp import LaunchGrid, ThreadBlock, maximum, minimum, tail_utilization


@dataclass
class KernelStats:
    """Everything a kernel execution did, in counts.

    ``mma_ops`` maps a precision name ("int8", "int4", "fp16") to the
    total multiply-add *operations* (2 per MAC) issued at that precision;
    ``useful_ops`` counts only the mathematically necessary operations
    (2 x nnz x N for SpMM) — the numerator of the paper's TOP/s metric.
    """

    name: str = "kernel"
    mma_ops: dict = field(default_factory=dict)
    useful_ops: int = 0
    traffic: TrafficCounter = field(default_factory=TrafficCounter)
    smem_transaction_cycles: int = 0
    epilogue_cycles: int = 0
    grid: LaunchGrid | None = None
    prefetch: bool = False
    #: bytes whose load latency is exposed serially (not hidden behind
    #: compute) — e.g. a non-prefetched operand stream
    serial_bytes: int = 0
    notes: dict = field(default_factory=dict)

    def add_mma(self, precision: str, count: int, ops_per_mma: int) -> None:
        """Record ``count`` MMA instructions of one shape."""
        self.mma_ops[precision] = self.mma_ops.get(precision, 0) + count * ops_per_mma

    @property
    def total_mma_ops(self) -> int:
        return sum(self.mma_ops.values())

    def repeated(self, times: int) -> "KernelStats":
        """The stats of one launch doing this work ``times`` over.

        A grouped launch runs the same per-slice kernel over ``times``
        slices: every count and the grid scale, the launch overhead is
        paid once. ``repeated(1)`` is an independent copy.
        """
        traffic = TrafficCounter(
            unique_read_bytes=self.traffic.unique_read_bytes * times,
            read_bytes=self.traffic.read_bytes * times,
            write_bytes=self.traffic.write_bytes * times,
            by_stream={
                k: [x * times for x in v] for k, v in self.traffic.by_stream.items()
            },
        )
        grid = self.grid
        if grid is not None:
            grid = LaunchGrid(blocks=grid.blocks * times, block=grid.block)
        return KernelStats(
            name=self.name,
            mma_ops={k: v * times for k, v in self.mma_ops.items()},
            useful_ops=self.useful_ops * times,
            traffic=traffic,
            smem_transaction_cycles=self.smem_transaction_cycles * times,
            epilogue_cycles=self.epilogue_cycles * times,
            grid=grid,
            prefetch=self.prefetch,
            serial_bytes=self.serial_bytes * times,
            notes=dict(self.notes),
        )


class LaunchCounts(NamedTuple):
    """What a kernel's count arithmetic says one launch does.

    Every count is a Python int for one launch, or a NumPy array when a
    planner counts a whole candidate grid in one pass (pairs along one
    axis, a tile knob along the other). :meth:`stats` wraps one launch's
    counts as :class:`KernelStats`; :meth:`CostModel.launch_time` prices
    counts of either kind through the same formulas as
    :meth:`CostModel.breakdown`.
    """

    #: operand width of the native MMAs the launch issues (8 or 4)
    native_bits: Any
    #: multiply-add operations those MMAs perform
    mma_ops: Any
    useful_ops: Any
    traffic: TrafficCounter
    smem_transaction_cycles: Any
    epilogue_cycles: Any
    #: thread blocks in the launch grid
    blocks: Any
    prefetch: bool
    serial_bytes: Any
    notes: dict

    def stats(self, name: str, warps: int, notes: dict) -> KernelStats:
        """One launch's counts as :class:`KernelStats` (``notes`` first,
        then the counts' own)."""
        return KernelStats(
            name=name,
            mma_ops={f"int{self.native_bits}": self.mma_ops},
            useful_ops=self.useful_ops,
            traffic=self.traffic,
            smem_transaction_cycles=self.smem_transaction_cycles,
            epilogue_cycles=self.epilogue_cycles,
            grid=LaunchGrid(blocks=self.blocks, block=ThreadBlock(warps=warps)),
            prefetch=self.prefetch,
            serial_bytes=self.serial_bytes,
            notes={**notes, **self.notes},
        )


@dataclass(frozen=True)
class TimingBreakdown:
    """Per-component times (seconds) and the resulting total."""

    compute: float
    dram: float
    l2: float
    shared: float
    epilogue: float
    launch: float
    utilization: float
    total: float
    serial: float = 0.0

    def bound(self) -> str:
        """Which component dominates ('compute', 'dram', 'l2', 'shared')."""
        parts = {
            "compute": self.compute,
            "dram": self.dram,
            "l2": self.l2,
            "shared": self.shared,
        }
        return max(parts, key=parts.get)


@dataclass(frozen=True)
class CostModel:
    """Maps :class:`KernelStats` to time on one device.

    ``compute_efficiency`` is the achieved fraction of tensor-core peak
    (kernel-dependent: instruction mix, occupancy); ``mem_efficiency``
    the achieved fraction of DRAM bandwidth; ``serial_overlap`` how much
    of ``min(compute, memory)`` still overlaps *without* prefetch thanks
    to warp parallelism (0 = fully serial, 1 = fully overlapped).
    """

    device: DeviceSpec
    compute_efficiency: float = 0.50
    mem_efficiency: float = 0.85
    l2_efficiency: float = 0.80
    serial_overlap: float = 0.40
    blocks_per_sm: int = 2

    def breakdown(self, stats: KernelStats) -> TimingBreakdown:
        """Full component-wise timing for one kernel execution."""
        t_compute, t_dram, t_l2, t_shared, t_epilogue, util, t_serial, total = (
            self._price(stats)
        )
        return TimingBreakdown(
            compute=t_compute,
            dram=t_dram,
            l2=t_l2,
            shared=t_shared,
            epilogue=t_epilogue,
            launch=self.device.launch_overhead_s,
            utilization=util,
            total=total,
            serial=t_serial,
        )

    def time(self, stats: KernelStats) -> float:
        """Total execution time in seconds."""
        return self._price(stats)[-1]

    def launch_time(self, counts: LaunchCounts):
        """Total seconds of the launch ``counts`` describe, or an array of
        them for a candidate grid. Equal, to the bit, to :meth:`time` of
        ``counts.stats(...)``: both run :meth:`_components`.
        """
        bits = counts.native_bits
        if isinstance(bits, np.ndarray):
            peak = np.array([self.device.peak_tops(f"int{b}") for b in bits.flat])
            peak = peak.reshape(bits.shape)
        else:
            peak = self.device.peak_tops(f"int{bits}")
        return self._components(
            self._compute_time(counts.mma_ops, peak),
            counts.traffic,
            counts.smem_transaction_cycles,
            counts.epilogue_cycles,
            counts.blocks,
            counts.prefetch,
            counts.serial_bytes,
        )[-1]

    def _price(self, stats: KernelStats) -> tuple:
        dev = self.device
        t_compute = 0.0
        for precision, ops in stats.mma_ops.items():
            t_compute += self._compute_time(ops, dev.peak_tops(precision))
        grid = stats.grid
        return self._components(
            t_compute,
            stats.traffic,
            stats.smem_transaction_cycles,
            stats.epilogue_cycles,
            None if grid is None else grid.blocks,
            stats.prefetch,
            stats.serial_bytes,
        )

    def _compute_time(self, ops, peak_tops):
        return ops / (peak_tops * 1e12 * self.compute_efficiency)

    def _components(
        self,
        t_compute,
        traffic: TrafficCounter,
        smem_cycles,
        epilogue_cycles,
        blocks,
        prefetch: bool,
        serial_bytes,
    ) -> tuple:
        """The cost formulas, on one launch's Python numbers or on arrays
        over a candidate grid: ``(compute, dram, l2, shared, epilogue,
        utilization, serial, total)``. ``blocks`` is ``None`` for a
        launch without a grid (full utilization)."""
        dev = self.device
        t_dram = traffic.total_dram_bytes / (
            dev.dram_bandwidth_gbs * 1e9 * self.mem_efficiency
        )
        t_l2 = traffic.total_access_bytes / (
            dev.l2_bandwidth_gbs * 1e9 * self.l2_efficiency
        )
        sm_hz = dev.num_sms * dev.clock_ghz * 1e9
        t_shared = smem_cycles / sm_hz
        # ALU/shuffle epilogue work issues on all 4 warp schedulers of
        # each SM, unlike the single shared-memory path
        t_epilogue = epilogue_cycles / (sm_hz * 4)

        util = 1.0
        if blocks is not None:
            util = tail_utilization(blocks, dev.num_sms * self.blocks_per_sm)

        on_chip = t_compute + t_shared + t_epilogue
        t_mem = maximum(t_dram, t_l2)
        body = maximum(on_chip, t_mem)
        if not prefetch:
            body = body + (1.0 - self.serial_overlap) * minimum(on_chip, t_mem)
        t_serial = serial_bytes / (
            dev.dram_bandwidth_gbs * 1e9 * self.mem_efficiency
        )
        body = body + (1.0 - self.serial_overlap) * t_serial
        total = dev.launch_overhead_s + body / util
        return t_compute, t_dram, t_l2, t_shared, t_epilogue, util, t_serial, total

    def tops(self, stats: KernelStats) -> float:
        """The paper's throughput metric: useful tera-ops per second."""
        t = self.time(stats)
        return stats.useful_ops / t / 1e12 if t > 0 else 0.0

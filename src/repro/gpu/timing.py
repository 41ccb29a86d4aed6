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

from repro.gpu.device import DeviceSpec
from repro.gpu.memory import TrafficCounter
from repro.gpu.warp import LaunchGrid


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
        dev = self.device
        t_compute = 0.0
        for precision, ops in stats.mma_ops.items():
            peak = dev.peak_tops(precision) * 1e12
            t_compute += ops / (peak * self.compute_efficiency)
        t_dram = stats.traffic.total_dram_bytes / (
            dev.dram_bandwidth_gbs * 1e9 * self.mem_efficiency
        )
        t_l2 = stats.traffic.total_access_bytes / (
            dev.l2_bandwidth_gbs * 1e9 * self.l2_efficiency
        )
        sm_hz = dev.num_sms * dev.clock_ghz * 1e9
        t_shared = stats.smem_transaction_cycles / sm_hz
        # ALU/shuffle epilogue work issues on all 4 warp schedulers of
        # each SM, unlike the single shared-memory path
        t_epilogue = stats.epilogue_cycles / (sm_hz * 4)

        util = 1.0
        if stats.grid is not None:
            util = stats.grid.utilization(dev.num_sms, self.blocks_per_sm)

        on_chip = t_compute + t_shared + t_epilogue
        t_mem = max(t_dram, t_l2)
        if stats.prefetch:
            body = max(on_chip, t_mem)
        else:
            body = max(on_chip, t_mem) + (1.0 - self.serial_overlap) * min(
                on_chip, t_mem
            )
        t_serial = stats.serial_bytes / (
            dev.dram_bandwidth_gbs * 1e9 * self.mem_efficiency
        )
        body += (1.0 - self.serial_overlap) * t_serial
        total = dev.launch_overhead_s + body / util
        return TimingBreakdown(
            compute=t_compute,
            dram=t_dram,
            l2=t_l2,
            shared=t_shared,
            epilogue=t_epilogue,
            launch=dev.launch_overhead_s,
            utilization=util,
            total=total,
            serial=t_serial,
        )

    def time(self, stats: KernelStats) -> float:
        """Total execution time in seconds."""
        return self.breakdown(stats).total

    def tops(self, stats: KernelStats) -> float:
        """The paper's throughput metric: useful tera-ops per second."""
        t = self.time(stats)
        return stats.useful_ops / t / 1e12 if t > 0 else 0.0

"""Tests for the cost model."""

import pytest

from repro.gpu.device import A100
from repro.gpu.memory import TrafficCounter
from repro.gpu.timing import CostModel, KernelStats
from repro.gpu.warp import LaunchGrid, ThreadBlock


def make_stats(
    ops_int8=0, dram=0, access=0, smem_cycles=0, prefetch=False, blocks=10000
) -> KernelStats:
    s = KernelStats(name="t")
    if ops_int8:
        s.mma_ops["int8"] = ops_int8
        s.useful_ops = ops_int8
    t = TrafficCounter()
    if access:
        t.read("x", access, unique_bytes=dram)
    s.traffic = t
    s.smem_transaction_cycles = smem_cycles
    s.prefetch = prefetch
    s.grid = LaunchGrid(blocks=blocks, block=ThreadBlock(warps=2))
    return s


class TestComponents:
    def test_compute_time_scales_with_ops(self):
        cm = CostModel(A100)
        t1 = cm.breakdown(make_stats(ops_int8=10**12)).compute
        t2 = cm.breakdown(make_stats(ops_int8=2 * 10**12)).compute
        assert t2 == pytest.approx(2 * t1)

    def test_compute_uses_precision_peak(self):
        cm = CostModel(A100, compute_efficiency=1.0)
        peak_ops = A100.peak_tops("int8") * 1e12  # one second at int8 peak
        s = make_stats(ops_int8=peak_ops)
        assert cm.breakdown(s).compute == pytest.approx(1.0)

    def test_dram_vs_l2(self):
        cm = CostModel(A100)
        # heavy re-read: access >> unique -> L2-bound
        b = cm.breakdown(make_stats(dram=10**6, access=10**9))
        assert b.l2 > b.dram
        assert b.bound() == "l2"

    def test_prefetch_overlaps(self):
        cm = CostModel(A100)
        base = dict(ops_int8=10**11, dram=10**8, access=10**8)
        t_serial = cm.time(make_stats(**base, prefetch=False))
        t_pipe = cm.time(make_stats(**base, prefetch=True))
        assert t_pipe < t_serial

    def test_smem_conflicts_add_time(self):
        cm = CostModel(A100)
        fast = cm.time(make_stats(ops_int8=10**10, smem_cycles=0))
        slow = cm.time(make_stats(ops_int8=10**10, smem_cycles=10**9))
        assert slow > fast

    def test_launch_overhead_floor(self):
        cm = CostModel(A100)
        assert cm.time(make_stats()) >= A100.launch_overhead_s

    def test_small_grid_penalized(self):
        cm = CostModel(A100)
        big = cm.time(make_stats(ops_int8=10**12, blocks=100000))
        small = cm.time(make_stats(ops_int8=10**12, blocks=8))
        assert small > big


class TestTops:
    def test_tops_metric(self):
        cm = CostModel(A100, compute_efficiency=1.0)
        s = make_stats(ops_int8=624e9, prefetch=True)  # 1 ms of pure compute
        tops = cm.tops(s)
        assert 0 < tops <= 624

    def test_zero_ops(self):
        cm = CostModel(A100)
        assert cm.tops(make_stats()) == 0.0


class TestStats:
    def test_add_mma(self):
        s = KernelStats()
        s.add_mma("int8", count=10, ops_per_mma=2048)
        s.add_mma("int8", count=5, ops_per_mma=2048)
        assert s.mma_ops["int8"] == 15 * 2048
        assert s.total_mma_ops == 15 * 2048


class TestRepeated:
    def test_counts_scale_and_launch_overhead_is_paid_once(self):
        s = make_stats(ops_int8=10**9, dram=10**7, access=10**8,
                       smem_cycles=5000, blocks=40)
        s.epilogue_cycles = 300
        s.notes["variant"] = "x"
        g = s.repeated(4)
        assert g.mma_ops == {"int8": 4 * 10**9}
        assert g.useful_ops == 4 * s.useful_ops
        assert g.traffic.total_dram_bytes == 4 * s.traffic.total_dram_bytes
        assert g.traffic.by_stream["x"] == [4 * v for v in s.traffic.by_stream["x"]]
        assert (g.smem_transaction_cycles, g.epilogue_cycles) == (20000, 1200)
        assert g.grid.blocks == 160 and g.notes == s.notes
        cm = CostModel(A100)
        # one grouped launch beats four separate ones by the overheads
        assert cm.time(g) < 4 * cm.time(s)

    def test_repeated_once_is_an_independent_copy(self):
        s = make_stats(ops_int8=100, dram=10, access=20)
        c = s.repeated(1)
        c.notes["poked"] = True
        c.traffic.read("y", 5)
        assert "poked" not in s.notes and "y" not in s.traffic.by_stream

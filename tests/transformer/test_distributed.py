"""Tests for the tensor-parallel extension (Discussion b)."""

import pytest

from repro.errors import ConfigError
from repro.transformer.distributed import (
    TensorParallelConfig,
    allreduce_time,
    estimate_latency_distributed,
)
from repro.transformer.inference import MAGICUBE_8_8, InferenceConfig

BASE = InferenceConfig(seq_len=4096, num_heads=8, batch=8, sparsity=0.9)


class TestAllReduce:
    def test_single_gpu_free(self):
        assert allreduce_time(10**9, 1, 300.0) == 0.0

    def test_volume_scales_with_ring(self):
        t2 = allreduce_time(10**8, 2, 300.0)
        t8 = allreduce_time(10**8, 8, 300.0)
        assert t8 > t2  # (g-1)/g grows with g

    def test_bandwidth_helps(self):
        assert allreduce_time(10**9, 4, 600.0) < allreduce_time(10**9, 4, 300.0)


class TestTensorParallel:
    def test_two_gpus_speed_up(self):
        one = estimate_latency_distributed(
            TensorParallelConfig(base=BASE, num_gpus=1), MAGICUBE_8_8
        )
        two = estimate_latency_distributed(
            TensorParallelConfig(base=BASE, num_gpus=2), MAGICUBE_8_8
        )
        assert two["total_s"] < one["total_s"]
        assert two["speedup_vs_1gpu"] > 1.2

    def test_scaling_sublinear(self):
        """Communication makes 8-way less than 4x the 2-way speedup."""
        s2 = estimate_latency_distributed(
            TensorParallelConfig(base=BASE, num_gpus=2), MAGICUBE_8_8
        )["speedup_vs_1gpu"]
        s8 = estimate_latency_distributed(
            TensorParallelConfig(base=BASE, num_gpus=8), MAGICUBE_8_8
        )["speedup_vs_1gpu"]
        assert s2 < s8 < 4 * s2

    def test_comm_fraction_grows(self):
        f2 = estimate_latency_distributed(
            TensorParallelConfig(base=BASE, num_gpus=2), MAGICUBE_8_8
        )["comm_fraction"]
        f8 = estimate_latency_distributed(
            TensorParallelConfig(base=BASE, num_gpus=8), MAGICUBE_8_8
        )["comm_fraction"]
        assert 0 < f2 < f8 < 1

    def test_heads_must_shard(self):
        with pytest.raises(ConfigError):
            TensorParallelConfig(
                base=InferenceConfig(4096, 4, 2, 0.9), num_gpus=8
            )

    def test_bad_gpu_count(self):
        with pytest.raises(ConfigError):
            TensorParallelConfig(base=BASE, num_gpus=0)


class TestDistributedAttention:
    """``AttentionRequest(num_gpus=g)`` prices the tensor-parallel
    deployment through the same resolution pipeline."""

    def test_distributed_breakdown(self):
        import repro
        from repro.api import AttentionRequest

        with repro.open_engine() as client:
            single = client.run(AttentionRequest(seq_len=256, num_heads=8))
            dist = client.run(
                AttentionRequest(seq_len=256, num_heads=8, num_gpus=4)
            )
        assert dist.stats["comm_s"] > 0
        assert dist.stats["compute_s"] < single.time_s  # the shard is smaller
        assert dist.time_s == pytest.approx(
            dist.stats["compute_s"] + dist.stats["comm_s"]
        )

    def test_topology_splits_sessions_per_width(self):
        from repro.api import AttentionRequest

        a = AttentionRequest(seq_len=128, num_heads=4)
        b = AttentionRequest(seq_len=128, num_heads=4, num_gpus=2)
        assert a.topology != b.topology

    def test_indivisible_heads_rejected(self):
        from repro import api

        with pytest.raises(ConfigError, match="shard"):
            api.run(api.AttentionRequest(seq_len=128, num_heads=4, num_gpus=3))

"""Tests for the Fig. 17 end-to-end latency model."""

import pytest

from repro.transformer.inference import (
    ALL_BACKENDS,
    HOST_OVERHEAD_S,
    MAGICUBE_4_4,
    MAGICUBE_8_8,
    MAGICUBE_16_8,
    PYTORCH_DENSE,
    VECTOR_SPARSE,
    DenseOOM,
    InferenceConfig,
    estimate_latency,
)


def t(cfg, backend):
    return estimate_latency(cfg, backend).total_s


class TestOrdering:
    """The paper's who-wins relations."""

    CFG = InferenceConfig(seq_len=4096, num_heads=4, batch=2, sparsity=0.9)

    def test_magicube_beats_vectorsparse(self):
        assert t(self.CFG, MAGICUBE_16_8) < t(self.CFG, VECTOR_SPARSE)

    def test_vectorsparse_beats_dense(self):
        assert t(self.CFG, VECTOR_SPARSE) < t(self.CFG, PYTORCH_DENSE)

    def test_lower_precision_faster(self):
        assert t(self.CFG, MAGICUBE_4_4) <= t(self.CFG, MAGICUBE_8_8) <= t(
            self.CFG, MAGICUBE_16_8
        )

    def test_vectorsparse_speedup_in_paper_band(self):
        """1.43x-1.63x at sparsity 0.9, seq 4096, heads 4 (paper text)."""
        ratios = [
            t(self.CFG, VECTOR_SPARSE) / t(self.CFG, b)
            for b in (MAGICUBE_16_8, MAGICUBE_8_8, MAGICUBE_4_4)
        ]
        assert all(1.2 < r < 2.3 for r in ratios)

    def test_speedup_grows_with_sequence_length(self):
        """Paper: 1.62x-1.92x at seq 8192 > 1.43x-1.63x at 4096."""
        short = InferenceConfig(seq_len=4096, num_heads=4, batch=2, sparsity=0.9)
        long = InferenceConfig(seq_len=8192, num_heads=4, batch=2, sparsity=0.9)
        r_short = t(short, VECTOR_SPARSE) / t(short, MAGICUBE_16_8)
        r_long = t(long, VECTOR_SPARSE) / t(long, MAGICUBE_16_8)
        assert r_long > r_short


class TestScaling:
    def test_heads_double_runtime(self):
        """Paper: heads 4 -> 8 increases runtime ~2x for all schemes."""
        for backend in (PYTORCH_DENSE, VECTOR_SPARSE, MAGICUBE_8_8):
            a = t(InferenceConfig(4096, 4, 2, 0.9), backend)
            b = t(InferenceConfig(4096, 8, 2, 0.9), backend)
            assert 1.5 < b / a < 2.6

    def test_batch_scales(self):
        # 4x the batch -> more than 2x the latency (host dispatch is the
        # batch-independent floor)
        a = t(InferenceConfig(4096, 4, 2, 0.9), MAGICUBE_8_8)
        b = t(InferenceConfig(4096, 4, 8, 0.9), MAGICUBE_8_8)
        assert b > 2.0 * a

    def test_higher_sparsity_faster_sparse_only(self):
        lo = InferenceConfig(4096, 4, 2, 0.9)
        hi = InferenceConfig(4096, 4, 2, 0.95)
        assert t(hi, MAGICUBE_8_8) < t(lo, MAGICUBE_8_8)
        assert t(hi, VECTOR_SPARSE) < t(lo, VECTOR_SPARSE)
        assert t(hi, PYTORCH_DENSE) == pytest.approx(t(lo, PYTORCH_DENSE), rel=1e-6)


class TestOOM:
    """Paper Fig. 17: dense OOMs at seq 8192 with batch 8."""

    def test_dense_oom_seq8192_batch8(self):
        for heads in (4, 8):
            cfg = InferenceConfig(seq_len=8192, num_heads=heads, batch=8, sparsity=0.9)
            with pytest.raises(DenseOOM):
                estimate_latency(cfg, PYTORCH_DENSE)

    def test_dense_ok_smaller(self):
        for cfg in (
            InferenceConfig(8192, 4, 2, 0.9),
            InferenceConfig(4096, 8, 8, 0.9),
        ):
            estimate_latency(cfg, PYTORCH_DENSE)  # must not raise

    def test_sparse_never_oom(self):
        cfg = InferenceConfig(seq_len=8192, num_heads=8, batch=8, sparsity=0.9)
        for backend in (VECTOR_SPARSE, MAGICUBE_8_8, MAGICUBE_4_4):
            estimate_latency(cfg, backend)


class TestResultStructure:
    def test_components_present(self):
        res = estimate_latency(InferenceConfig(4096, 4, 2, 0.9), MAGICUBE_8_8)
        assert set(res.components) == {"projections+mlp", "attention", "host_dispatch"}
        assert res.total_s == pytest.approx(sum(res.components.values()))

    def test_host_dispatch_is_the_same_on_every_backend(self):
        """Every backend dispatches the same 11 kernels per layer."""
        cfg = InferenceConfig(4096, 4, 2, 0.9)
        dispatch = {
            estimate_latency(cfg, b).components["host_dispatch"]
            for b in ALL_BACKENDS
        }
        assert dispatch == {HOST_OVERHEAD_S * 11 * cfg.num_layers}

    def test_host_dispatch_scales_with_layers(self):
        one = InferenceConfig(4096, 4, 2, 0.9, num_layers=1)
        six = InferenceConfig(4096, 4, 2, 0.9, num_layers=6)
        d1 = estimate_latency(one, MAGICUBE_8_8).components["host_dispatch"]
        d6 = estimate_latency(six, MAGICUBE_8_8).components["host_dispatch"]
        assert d6 == pytest.approx(6 * d1)

    def test_all_backends_labelled(self):
        labels = {b.label for b in ALL_BACKENDS}
        assert "PyTorch (cuDNN, fp16)" in labels
        assert "Magicube (16b-8b)" in labels
        assert len(labels) == 6

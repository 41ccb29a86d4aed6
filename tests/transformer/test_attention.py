"""Tests for dense, masked, and quantized attention."""

import numpy as np
import pytest

from repro.runtime import get_backend
from repro.transformer.attention import KernelPipeline, MultiHeadAttention
from repro.transformer.layers import softmax
from repro.transformer.masks import mask_to_additive, random_vector_mask


def make_attn(d_model=32, heads=2, seed=0):
    return MultiHeadAttention(d_model, heads, np.random.default_rng(seed))


class TestDensePath:
    def test_output_shape(self):
        attn = make_attn()
        x = np.random.default_rng(1).normal(size=(2, 16, 32)).astype(np.float32)
        assert attn.forward(x).shape == (2, 16, 32)

    def test_matches_manual_single_head(self):
        attn = make_attn(d_model=8, heads=1, seed=2)
        x = np.random.default_rng(3).normal(size=(1, 4, 8)).astype(np.float32)
        out = attn.forward(x)
        q = x[0] @ attn.wq.w.value + attn.wq.b.value
        k = x[0] @ attn.wk.w.value + attn.wk.b.value
        v = x[0] @ attn.wv.w.value + attn.wv.b.value
        probs = softmax(q @ k.T / np.sqrt(8))
        expect = (probs @ v) @ attn.wo.w.value + attn.wo.b.value
        np.testing.assert_allclose(out[0], expect, rtol=1e-4, atol=1e-5)

    def test_mask_blocks_positions(self):
        """Masked-out positions contribute nothing to the context."""
        attn = make_attn(d_model=16, heads=2, seed=4)
        rng = np.random.default_rng(5)
        mask = random_vector_mask(16, 0.5, vector_length=8, seed=6)
        add = mask_to_additive(mask)
        x = rng.normal(size=(1, 16, 16)).astype(np.float32)
        base = attn.forward(x, add)
        # perturb x at a column masked out for row 0
        dense_keep = mask.to_dense()[0] != 0
        blocked = np.nonzero(~dense_keep)[0]
        if blocked.size:
            x2 = x.copy()
            x2[0, blocked[0]] += 10.0
            out2 = attn.forward(x2, add)
            # row 0's output only changes via V/K of *kept* columns;
            # the blocked column cannot leak attention weight to row 0
            probs_change = np.abs(base[0, 0] - out2[0, 0])
            assert probs_change.max() < 10.0  # bounded: no direct leak

    def test_backward_shapes_and_grads(self):
        attn = make_attn()
        x = np.random.default_rng(7).normal(size=(2, 8, 32)).astype(np.float32)
        y = attn.forward(x)
        dx = attn.backward(np.ones_like(y))
        assert dx.shape == x.shape
        assert np.isfinite(dx).all()
        assert np.abs(attn.wq.w.grad).sum() > 0

    def test_gradient_check_tiny(self):
        attn = make_attn(d_model=4, heads=1, seed=8)
        x = np.random.default_rng(9).normal(size=(1, 3, 4)).astype(np.float64)
        dy = np.random.default_rng(10).normal(size=(1, 3, 4)).astype(np.float64)
        attn.forward(x)
        dx = attn.backward(dy)
        eps = 1e-5
        num = np.zeros_like(x)
        for i in np.ndindex(x.shape):
            x[i] += eps
            hi = float((attn.forward(x) * dy).sum())
            x[i] -= 2 * eps
            lo = float((attn.forward(x) * dy).sum())
            x[i] += eps
            num[i] = (hi - lo) / (2 * eps)
        np.testing.assert_allclose(dx, num, atol=1e-4)


class TestQuantizedPath:
    def test_close_to_float_masked(self):
        """Fig. 16 pipeline approximates float masked attention."""
        attn = make_attn(d_model=16, heads=2, seed=11)
        rng = np.random.default_rng(12)
        mask = random_vector_mask(16, 0.3, vector_length=8, seed=13)
        x = rng.normal(size=(1, 16, 16)).astype(np.float32)
        ref = attn.forward(x, mask_to_additive(mask))
        q = attn.forward_quantized(x, mask, softmax_bits=16, qkv_bits=8)
        rel = np.abs(q - ref).mean() / (np.abs(ref).mean() + 1e-9)
        assert rel < 0.05

    def test_lower_bits_larger_error(self):
        attn = make_attn(d_model=16, heads=2, seed=14)
        rng = np.random.default_rng(15)
        mask = random_vector_mask(16, 0.3, vector_length=8, seed=16)
        x = rng.normal(size=(2, 16, 16)).astype(np.float32)
        ref = attn.forward(x, mask_to_additive(mask))
        errs = []
        for sm_bits, qkv_bits in ((16, 8), (8, 8), (8, 4)):
            q = attn.forward_quantized(x, mask, sm_bits, qkv_bits)
            errs.append(float(np.abs(q - ref).mean()))
        assert errs[0] <= errs[1] <= errs[2]

    def test_kernel_path_matches_fake_quant(self):
        """The real Magicube kernel pipeline == dense fake-quant math."""
        attn = make_attn(d_model=16, heads=1, seed=17)
        rng = np.random.default_rng(18)
        mask = random_vector_mask(16, 0.3, vector_length=8, seed=19)
        x = rng.normal(size=(1, 16, 16)).astype(np.float32)
        fake = attn.forward_quantized(x, mask, 16, 8)
        real = attn.forward_quantized(
            x, mask, 16, 8,
            kernels=KernelPipeline(get_backend("magicube-emulation")),
        )
        np.testing.assert_allclose(real, fake, rtol=1e-3, atol=1e-3)

    @pytest.mark.parametrize("sm,qkv", [(16, 8), (8, 8), (8, 4), (4, 4)])
    def test_all_fig17_schemes_run(self, sm, qkv):
        attn = make_attn(d_model=16, heads=2, seed=20)
        mask = random_vector_mask(16, 0.3, vector_length=8, seed=21)
        x = np.random.default_rng(22).normal(size=(1, 16, 16)).astype(np.float32)
        out = attn.forward_quantized(x, mask, sm, qkv)
        assert np.isfinite(out).all()


def int64_fake_quant(q, k, v, dense_keep, scale, softmax_bits, qkv_bits):
    """The fake-quant pipeline with ``int64`` einsum products: the
    reference the float64 BLAS products must match bit for bit."""
    from repro.lowp.quantize import int_range

    qmin, qmax = int_range(qkv_bits, signed=True)

    def quant(t):
        amax = np.abs(t).max(axis=(2, 3), keepdims=True)
        s = np.where(amax > 0, amax / qmax, 1.0)
        return np.clip(np.rint(t / s), qmin, qmax).astype(np.int64), s

    qq, qs = quant(q)
    kq, ks = quant(k)
    vq, vs = quant(v)
    scores = np.einsum("bhid,bhjd->bhij", qq, kq)
    score_scale = qs * np.swapaxes(ks, 2, 3) * scale
    logits = np.where(
        dense_keep, (scores * score_scale).astype(np.float32), -np.inf
    )
    probs = softmax(logits, axis=-1).astype(np.float16).astype(np.float32)
    probs = probs * dense_keep
    _, pmax = int_range(softmax_bits, signed=False)
    probs_q = np.clip(np.rint(probs * pmax), 0, pmax).astype(np.int64)
    ctx = np.einsum("bhij,bhjd->bhid", probs_q, vq)
    return (ctx * (vs / pmax)).astype(np.float32)


class TestFakeQuantExact:
    """Every partial sum of the fake-quant products is an integer below
    2^53, so the float64 BLAS path equals the int64 reference exactly."""

    @pytest.mark.parametrize(
        "batch,heads,seq,d_head,scheme",
        [
            (3, 2, 64, 32, (16, 8)),
            (3, 2, 64, 32, (8, 8)),
            (3, 2, 64, 32, (8, 4)),
            (1, 2, 1024, 32, (16, 8)),
        ],
    )
    def test_bit_identical_to_int64_einsum(self, batch, heads, seq, d_head, scheme):
        sm_bits, qkv_bits = scheme
        attn = make_attn(d_model=heads * d_head, heads=heads, seed=seq)
        rng = np.random.default_rng(seq + sm_bits + qkv_bits)
        q, k, v = (
            rng.normal(size=(batch, heads, seq, d_head)).astype(np.float32)
            for _ in range(3)
        )
        keep = random_vector_mask(seq, 0.5, vector_length=8, seed=1).to_dense() != 0
        scale = 1.0 / np.sqrt(d_head)
        got = attn._attend_batched_fake_quant(
            q, k, v, keep, scale, sm_bits, qkv_bits
        )
        want = int64_fake_quant(q, k, v, keep, scale, sm_bits, qkv_bits)
        np.testing.assert_array_equal(got, want)

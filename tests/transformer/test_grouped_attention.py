"""Grouped attention launches are bit-exact against the per-head pipeline.

``MultiHeadAttention`` runs the Fig. 16 kernels as one grouped launch
per op over all (batch, head) slices. The reference here is the
pipeline it replaced, written out per head on the emulation kernels:
quantize each slice, then SDDMM -> quantized softmax -> SR-BCRS
conversion -> SpMM. Every comparison is exact array equality.
"""

import numpy as np
import pytest

from repro import api
from repro.formats.convert import bcrs_to_srbcrs
from repro.kernels.sddmm import MagicubeSDDMM, SDDMMConfig
from repro.kernels.softmax import sparse_softmax_quantized
from repro.kernels.spmm import MagicubeSpMM, SpMMConfig
from repro.lowp.quantize import symmetric_quantize
from repro.runtime import DEFAULT_BACKEND, get_backend
from repro.transformer.attention import KernelPipeline, MultiHeadAttention
from repro.transformer.masks import MASK_ZOO, build_mask

VARIANTS = tuple(sorted(MASK_ZOO))
SCHEMES = ((16, 8), (8, 8))
SEQ = 32
D_MODEL = 64  # d_head 16 at 4 heads: the int8 SDDMM BSk


def per_head_reference(q, k, v, mask, scale, softmax_bits, qkv_bits):
    """One SDDMM -> softmax -> SpMM per (batch, head) slice."""
    ctx = np.empty_like(q)
    sddmm = MagicubeSDDMM(SDDMMConfig(l_bits=qkv_bits, r_bits=qkv_bits))
    spmm = MagicubeSpMM(SpMMConfig(
        l_bits=softmax_bits, r_bits=qkv_bits, l_signed=False, fuse_dequant=True
    ))
    for bi in range(q.shape[0]):
        for h in range(q.shape[1]):
            qq, qp = symmetric_quantize(q[bi, h], qkv_bits)
            kq, kp = symmetric_quantize(k[bi, h], qkv_bits)
            vq, vp = symmetric_quantize(v[bi, h], qkv_bits)
            scores = sddmm(qq, kq.T, mask).output
            sm = sparse_softmax_quantized(
                scores, scale=qp.scale * kp.scale * scale, out_bits=softmax_bits
            )
            probs = bcrs_to_srbcrs(sm.output, stride=spmm.required_stride)
            ctx[bi, h] = spmm(probs, vq, scale=sm.params.scale * vp.scale).dequantized
    return ctx


def pipeline(name: str) -> KernelPipeline:
    return KernelPipeline(get_backend(name))


def qkv(batch, heads, seed):
    rng = np.random.default_rng(seed)
    shape = (batch, heads, SEQ, D_MODEL // heads)
    return tuple(rng.normal(size=shape).astype(np.float32) for _ in range(3))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("batch", (1, 3))
@pytest.mark.parametrize("heads", (1, 2, 4))
def test_grouped_matches_per_head(variant, scheme, batch, heads):
    sm_bits, qkv_bits = scheme
    mask = build_mask(variant, SEQ, sparsity=0.6, seed=batch + heads)
    attn = MultiHeadAttention(D_MODEL, heads, np.random.default_rng(0))
    q, k, v = qkv(batch, heads, seed=heads * 10 + batch)
    scale = 1.0 / np.sqrt(attn.d_head)
    expected = per_head_reference(q, k, v, mask, scale, sm_bits, qkv_bits)
    for name in ("magicube-emulation", "fastpath-vectorized"):
        got = attn._attend_kernels(
            q, k, v, mask, scale, sm_bits, qkv_bits, pipeline(name)
        )
        np.testing.assert_array_equal(
            got, expected, err_msg=f"{name} {variant} {scheme}"
        )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_zero_and_subnormal_amax_slices(scheme):
    """An all-zero slice keeps scale 1.0 and a subnormal one the
    smallest-normal floor, slice by slice, inside the grouped launch."""
    sm_bits, qkv_bits = scheme
    mask = build_mask("strided", SEQ, sparsity=0.6, seed=1)
    attn = MultiHeadAttention(D_MODEL, 2, np.random.default_rng(1))
    q, k, v = (t.astype(np.float64) for t in qkv(2, 2, seed=5))
    q[0, 1] = 0.0
    k[1, 0] = 0.0
    v[1, 1] = 0.0
    q[1, 1] *= 1e-312  # subnormal amax
    v[0, 1] *= 1e-312
    scale = 1.0 / np.sqrt(attn.d_head)
    expected = per_head_reference(q, k, v, mask, scale, sm_bits, qkv_bits)
    for name in ("magicube-emulation", "fastpath-vectorized"):
        got = attn._attend_kernels(
            q, k, v, mask, scale, sm_bits, qkv_bits, pipeline(name)
        )
        np.testing.assert_array_equal(got, expected, err_msg=name)


def test_forward_quantized_matches_per_head_layer():
    mask = build_mask("banded", SEQ, sparsity=0.6, seed=2)
    attn = MultiHeadAttention(D_MODEL, 2, np.random.default_rng(2))
    x = np.random.default_rng(3).normal(size=(3, SEQ, D_MODEL)).astype(np.float32)
    q = attn._split_heads(attn.wq.forward(x))
    k = attn._split_heads(attn.wk.forward(x))
    v = attn._split_heads(attn.wv.forward(x))
    ctx = per_head_reference(q, k, v, mask, 1.0 / np.sqrt(attn.d_head), 16, 8)
    expected = attn.wo.forward(attn._merge_heads(ctx))
    got = attn.forward_quantized(
        x, mask, softmax_bits=16, qkv_bits=8,
        kernels=pipeline("fastpath-vectorized"),
    )
    np.testing.assert_array_equal(got, expected)


def test_one_grouped_launch_per_op_per_layer(monkeypatch):
    from repro.transformer.serving import TransformerSpec, prepare_transformer

    calls = []
    for cls in (MagicubeSDDMM, MagicubeSpMM):
        original = cls.__call__

        def counted(self, *args, _original=original, **kwargs):
            calls.append(type(self).__name__)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__call__", counted)
    prepared = prepare_transformer(TransformerSpec(
        seq_len=SEQ, d_model=32, num_heads=2, num_layers=2,
    ))
    ids = np.random.default_rng(0).integers(0, 16, size=(3, SEQ))
    prepared.forward(ids, backend=DEFAULT_BACKEND)
    assert len(calls) == prepared.launches_per_forward() == 4
    assert calls == ["FastpathSDDMM", "FastpathSpMM"] * 2


@pytest.mark.parametrize("scheme", SCHEMES)
def test_served_default_equals_emulation_and_strict(scheme):
    """served (default) == pinned emulation oracle == strict algebra."""
    ids = np.random.default_rng(4).integers(0, 16, size=(2, SEQ))

    def request(backend=None):
        return api.TransformerRequest(
            mode="lra-classify", ids=ids, seq_len=SEQ, d_model=32,
            num_heads=2, num_layers=1, scheme=scheme, backend=backend,
        )

    with api.open_engine(device="A100") as client:
        served = client.run(request())
    assert served.backend == DEFAULT_BACKEND
    emulation = api.run(request("magicube-emulation"))
    strict = api.run(request("magicube-strict"))
    assert strict.backend == "magicube-strict"
    np.testing.assert_array_equal(served.output, emulation.output)
    np.testing.assert_array_equal(strict.output, emulation.output)
    assert served.time_s == emulation.time_s  # one cost model

"""Property-based equivalence suite for the attention-mask variant zoo.

Three layers of guarantees over hypothesis-generated grids:

1. every zoo variant's quantized-sparse attention (the Fig. 16
   SDDMM -> quantized-softmax -> SpMM pipeline) approximates the
   masked-dense float reference within quantization tolerance;
2. the ``fastpath-vectorized`` kernel stack is *bit-exact* against
   ``magicube-emulation`` for every variant and scheme — an optimized
   backend may never change numerics;
3. a seeded ``TransformerRequest(mode="lra-classify")`` served through
   :func:`repro.api.open_engine` returns exactly the logits of the
   direct :class:`~repro.transformer.model.SparseTransformerClassifier`
   forward, for every mask variant in the zoo.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import get_backend
from repro.transformer.attention import KernelPipeline, MultiHeadAttention
from repro.transformer.masks import MASK_ZOO, build_mask, mask_to_additive

VARIANTS = tuple(sorted(MASK_ZOO))


def make_attn(d_model, heads, seed):
    return MultiHeadAttention(d_model, heads, np.random.default_rng(seed))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([16, 32, 64]),
    st.sampled_from([1, 2]),
    st.sampled_from(VARIANTS),
    st.sampled_from([(16, 8), (8, 8)]),
)
def test_quantized_sparse_close_to_masked_dense(seed, seq_len, heads, variant, scheme):
    """Quantized-sparse attention ~= masked-dense float attention.

    The quantization tolerance is generous relative to the measured
    worst case (~3% mean relative error at 8-bit softmax) but far
    tighter than what a wrong mask or a broken kernel path produces.
    """
    sm_bits, qkv_bits = scheme
    rng = np.random.default_rng(seed)
    attn = make_attn(16, heads, seed + 1)
    mask = build_mask(variant, seq_len, sparsity=0.5, seed=seed)
    x = rng.normal(size=(1, seq_len, 16)).astype(np.float32)
    ref = attn.forward(x, mask_to_additive(mask))
    quant = attn.forward_quantized(
        x, mask, softmax_bits=sm_bits, qkv_bits=qkv_bits
    )
    rel = np.abs(quant - ref).mean() / (np.abs(ref).mean() + 1e-9)
    assert rel < 0.08, f"{variant} {scheme}: relative error {rel:.4f}"


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([16, 32]),
    st.sampled_from(VARIANTS),
    st.sampled_from([(16, 8), (8, 8), (8, 4)]),
)
def test_fastpath_bit_exact_vs_emulation(seed, seq_len, variant, scheme):
    """fastpath-vectorized == magicube-emulation, bit for bit, per variant."""
    sm_bits, qkv_bits = scheme
    rng = np.random.default_rng(seed)
    # d_head = 32: covers every scheme's BSk tiling (32 for L4-R4)
    attn = make_attn(64, 2, seed + 1)
    mask = build_mask(variant, seq_len, sparsity=0.5, seed=seed)
    x = rng.normal(size=(1, seq_len, 64)).astype(np.float32)
    outs = {}
    for name in ("magicube-emulation", "fastpath-vectorized"):
        be = get_backend(name)
        pipe = KernelPipeline(
            sddmm_cls=be.sddmm_kernel, spmm_cls=be.spmm_kernel,
            softmax=be.softmax,
        )
        outs[name] = attn.forward_quantized(
            x, mask, softmax_bits=sm_bits, qkv_bits=qkv_bits, kernels=pipe
        )
    np.testing.assert_array_equal(
        outs["fastpath-vectorized"], outs["magicube-emulation"],
        err_msg=f"{variant} {scheme}: fastpath diverged from emulation",
    )


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(VARIANTS),
)
def test_zoo_masks_honor_vector_constraint(seed, variant):
    """Every built mask is V x 1 vector structured: all 8 rows of a
    strip share one column support (the 8x1 vector constraint), the
    realized sparsity is in (0, 1), no softmax row is empty, and each
    strip can still attend into its own diagonal block. (The full
    diagonal is *not* guaranteed: ``banded`` documents partial diagonal
    blocks when the nonzero budget runs out below V.)"""
    mask = build_mask(variant, 64, vector_length=8, sparsity=0.9, seed=seed)
    dense = mask.to_dense()
    assert dense.shape == (64, 64)
    strips = dense.reshape(8, 8, 64).any(axis=1)
    expanded = np.repeat(strips, 8, axis=0)
    np.testing.assert_array_equal(dense != 0, expanded)
    assert 0.0 < mask.sparsity < 1.0
    assert (dense.sum(axis=1) > 0).all(), "no row may mask out everything"
    blocks = dense.reshape(8, 8, 8, 8)  # (strip, row, col-strip, col)
    self_reach = blocks[np.arange(8), :, np.arange(8), :].any(axis=(1, 2))
    assert self_reach.all(), "every strip must reach its own block"


class TestServedLogitsExact:
    """The acceptance gate: engine-served lra-classify logits == the
    direct model forward, for every mask variant in the zoo."""

    SPEC = dict(seq_len=64, d_model=32, num_heads=2, num_layers=1)

    @pytest.fixture(scope="class")
    def client(self):
        from repro import api

        with api.open_engine(device="A100") as client:
            yield client

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_engine_matches_direct_model(self, client, variant):
        from repro import api
        from repro.transformer.model import make_quantized_kwargs
        from repro.transformer.serving import (
            TransformerSpec,
            prepare_transformer,
        )

        ids = np.random.default_rng(7).integers(0, 16, size=(2, 64))
        served = client.run(api.TransformerRequest(
            ids=ids, mask_variant=variant, session=f"zoo-{variant}",
            **self.SPEC,
        ))
        assert served.output.shape == (2, 2)
        # the direct path: same seeded model, same zoo mask, the
        # quantized kernel pipeline without any serving machinery
        prepared = prepare_transformer(
            TransformerSpec(mask_variant=variant, **self.SPEC)
        )
        quantized = make_quantized_kwargs(
            prepared.mask, 16, 8, use_kernels=True
        )
        direct = prepared.model.forward(ids, quantized=quantized)
        np.testing.assert_array_equal(
            served.output, direct,
            err_msg=f"served logits diverged from the model for {variant!r}",
        )
        # mask variants must be distinct plan-key dimensions: the plan
        # that routed this request carries the variant's realized
        # sparsity, not the 0.9 target
        assert served.plan is not None
        assert f"s={round(prepared.realized_sparsity, 3)}" in served.plan.key

    def test_variants_produce_distinct_plans(self, client):
        from repro import api

        ids = np.zeros((1, 64), dtype=np.int64)
        keys = set()
        for variant in VARIANTS:
            r = client.run(api.TransformerRequest(
                ids=ids, mask_variant=variant, session=f"zoo-{variant}",
                **self.SPEC,
            ))
            keys.add(r.plan.key)
        assert len(keys) == len(VARIANTS), (
            f"zoo variants collapsed onto {len(keys)} plan key(s): {keys}"
        )

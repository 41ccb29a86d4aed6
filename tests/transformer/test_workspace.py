"""The leased workspace of a served transformer forward.

A :class:`~repro.transformer.serving.PreparedTransformer` leases one
:class:`~repro.core.workspace.Workspace` per forward and stages every
activation and kernel operand in it. These tests pin what that may never
change: the workspace stops growing once warm, results never alias it,
no layer keeps backward state, the logits are the bits of a forward
with no workspace, and concurrent forwards never share one.
"""

import sys
import threading

import numpy as np
import pytest

from repro import api
from repro.core.workspace import Workspace, WorkspacePool
from repro.fastpath import FastpathSDDMM, FastpathSpMM
from repro.formats.convert import bcrs_to_srbcrs
from repro.kernels.sddmm import SDDMMConfig
from repro.kernels.spmm import SpMMConfig
from repro.transformer.attention import plan_pipeline
from repro.transformer.layers import LayerNorm, Linear, ReLU
from repro.transformer.masks import MASK_ZOO, build_mask
from repro.transformer.model import make_quantized_kwargs
from repro.transformer.serving import (
    PreparedTransformer,
    TransformerSpec,
    prepare_transformer,
)

VARIANTS = tuple(sorted(MASK_ZOO))
BACKENDS = ("magicube-emulation", "magicube-strict", "fastpath-vectorized")
SCHEMES = ((16, 8), (8, 8), (8, 4))
SEQ = 64


def ids_of(batch, seed):
    return np.random.default_rng(seed).integers(0, 16, size=(batch, SEQ))


def spoil(workspace):
    """Fill every buffer with NaN bit patterns: a read before a write
    then shows in the logits."""
    for buf in workspace.buffers():
        buf.fill(0xFF)


class TestWorkspace:
    def test_take_reuses_the_high_water_mark(self):
        ws = Workspace()
        big = ws.take("a", (4, 8), np.float64)
        small = ws.take("a", (2, 8), np.float32)
        assert small.shape == (2, 8) and small.dtype == np.float32
        assert small.flags.c_contiguous
        assert np.shares_memory(big, small)
        assert len(ws.buffers()) == 1 and ws.nbytes == 4 * 8 * 8
        ws.take("a", (5, 8), np.float64)
        assert len(ws.buffers()) == 1 and ws.nbytes == 5 * 8 * 8

    def test_pool_hands_one_workspace_per_concurrent_lease(self):
        pool = WorkspacePool()
        with pool.lease() as first:
            with pool.lease() as second:
                assert first is not second
        with pool.lease() as again:
            assert again in (first, second)
        assert len(pool) == 2

    def test_concurrent_leases_never_share_a_workspace(self):
        """More threads than cores, a short switch interval: a workspace
        leased twice at once would see its owner mark overwritten."""
        pool = WorkspacePool()
        owners: dict[int, int] = {}
        clashes = []
        threads_n = 6

        def worker(me):
            for _ in range(300):
                with pool.lease() as ws:
                    owners[id(ws)] = me
                    ws.take("x", (8,), np.int64)[:] = me
                    if owners[id(ws)] != me or (ws.take("x", (8,), np.int64) != me).any():
                        clashes.append(me)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert clashes == []
        assert 1 <= len(pool) <= threads_n


class TestSteadyState:
    SPEC = TransformerSpec(seq_len=SEQ, num_layers=2, num_heads=2)

    def test_warm_workspace_stops_growing(self):
        prepared = PreparedTransformer(self.SPEC)
        for batch in (4, 8):  # warm-up at both batch sizes
            prepared.forward(ids_of(batch, batch))
        (ws,) = prepared.workspaces.workspaces()
        buffers = [id(b) for b in ws.buffers()]
        nbytes = ws.nbytes
        for i, batch in enumerate((4, 8, 4, 4, 8, 4)):
            prepared.forward(ids_of(batch, 10 + i))
        assert [id(b) for b in ws.buffers()] == buffers
        assert ws.nbytes == nbytes
        assert len(prepared.workspaces) == 1

    def test_logits_never_alias_the_workspace(self):
        prepared = PreparedTransformer(self.SPEC)
        first, _ = prepared.forward(ids_of(4, 0))
        kept = first.copy()
        prepared.forward(ids_of(4, 1))
        np.testing.assert_array_equal(first, kept)
        (ws,) = prepared.workspaces.workspaces()
        assert ws.buffers()
        for buf in ws.buffers():
            assert not np.shares_memory(first, buf)

    def test_served_forward_keeps_no_backward_state(self):
        spec = dict(seq_len=SEQ, num_layers=2, num_heads=2, seed=1234)
        api.run(api.TransformerRequest(ids=ids_of(2, 0), **spec))
        model = prepare_transformer(TransformerSpec(**spec)).model
        layers = [model.head]
        for layer in model.layers:
            attn = layer.attn
            layers += [layer.ln1, layer.ln2, layer.ff1, layer.relu, layer.ff2]
            layers += [attn.wq, attn.wk, attn.wv, attn.wo]
            assert attn._cache is None
        for layer in layers:
            if isinstance(layer, Linear):
                assert layer._x is None
            elif isinstance(layer, LayerNorm):
                assert layer._cache is None
            elif isinstance(layer, ReLU):
                assert layer._mask is None
        assert model.embed._ids is None


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_leased_forward_is_exact_and_thread_safe(variant, backend, scheme):
    prepared = PreparedTransformer(TransformerSpec(
        seq_len=SEQ, num_layers=2, num_heads=2, mask_variant=variant,
    ))
    ids = ids_of(4, 3)
    # a workspace dirtied by another batch size and then spoiled
    prepared.forward(ids_of(8, 4), scheme=scheme, backend=backend)
    for ws in prepared.workspaces.workspaces():
        spoil(ws)
    leased, _ = prepared.forward(ids, scheme=scheme, backend=backend)

    # the same forward with no workspace
    pipeline, _ = plan_pipeline(
        backend, scheme, SEQ, prepared.spec.d_head, 8,
        prepared.realized_sparsity,
    )
    quantized = make_quantized_kwargs(prepared.mask, *scheme, kernels=pipeline)
    np.testing.assert_array_equal(
        leased, prepared.model.forward(ids, quantized=quantized)
    )
    # a row's logits do not depend on its batch mates
    row, _ = prepared.forward(ids[1:2], scheme=scheme, backend=backend)
    np.testing.assert_array_equal(row, leased[1:2])

    # two threads on one model: the serial results, never a shared workspace
    batches = [ids_of(4, 20 + i) for i in range(4)]
    serial = [prepared.forward(b, scheme=scheme, backend=backend)[0] for b in batches]
    got = [None] * len(batches)
    start = threading.Barrier(2)

    def worker(which):
        start.wait(timeout=60)
        for i in range(which, len(batches), 2):
            got[i] = prepared.forward(batches[i], scheme=scheme, backend=backend)[0]

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    for want, have in zip(serial, got):
        np.testing.assert_array_equal(have, want)
    assert len(prepared.workspaces) <= 2


@pytest.mark.parametrize("variant", VARIANTS)
def test_fastpath_staging_matches_fresh_allocation(variant):
    """The fastpath kernels with a (dirty) workspace == without one, and
    their outputs never alias it."""
    rng = np.random.default_rng(0)
    mask = build_mask(variant, SEQ, sparsity=0.7, seed=2)
    ws = Workspace()
    for slices, d in ((6, 32), (3, 16), (6, 32)):
        a = rng.integers(-127, 128, size=(slices, SEQ, d))
        b = rng.integers(-127, 128, size=(slices, d, SEQ))
        cfg = SDDMMConfig(l_bits=8, r_bits=8)
        fresh = FastpathSDDMM(cfg)(a, b, mask).output
        staged = FastpathSDDMM(cfg, workspace=ws)(a, b, mask).output
        np.testing.assert_array_equal(staged.values, fresh.values)

        lhs = bcrs_to_srbcrs(
            mask.with_values(rng.integers(0, 256, size=fresh.values.shape)),
            stride=16,
        )
        rhs = rng.integers(-127, 128, size=(slices, SEQ, d))
        cfg = SpMMConfig(l_bits=8, r_bits=8, l_signed=False)
        want = FastpathSpMM(cfg)(lhs, rhs, scale=np.full(slices, 0.5))
        got = FastpathSpMM(cfg, workspace=ws)(lhs, rhs, scale=np.full(slices, 0.5))
        np.testing.assert_array_equal(got.output, want.output)
        np.testing.assert_array_equal(got.dequantized, want.dequantized)
        for buf in ws.buffers():
            for out in (staged.values, got.output, got.dequantized):
                assert not np.shares_memory(out, buf)
        spoil(ws)

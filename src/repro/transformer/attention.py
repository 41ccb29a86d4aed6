"""Multi-head attention: dense, masked-sparse, and quantized (Fig. 16).

Three execution paths over the same weights:

- ``forward`` / ``backward`` — float32 masked attention for training
  (the additive-mask formulation of the sparse pattern).
- ``forward_quantized`` — the Fig. 16 inference pipeline functionally:
  Q/K/V quantized to ``qkv_bits``, integer SDDMM with fused dequantize,
  fp16 softmax with fused quantize to ``softmax_bits`` (unsigned),
  integer SpMM with fused dequantize. With no ``kernels`` it runs as
  dense fake-quant math (fast; used for the Table V accuracy study);
  given a :class:`KernelPipeline` it launches that backend's Magicube
  kernels (identical results up to fp16 rounding), one grouped launch
  per op over every (batch, head) slice: the slices share the mask, so
  its indices and SR-BCRS layout are derived once.

:func:`plan_pipeline` builds the pipeline for one attention topology —
the served forwards and the Fig. 17 latency model both take their
kernels from it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ShapeError
from repro.formats.bcrs import BCRSMatrix
from repro.formats.convert import bcrs_to_srbcrs
from repro.kernels.sddmm import MagicubeSDDMM, SDDMMConfig
from repro.kernels.spmm import MagicubeSpMM, SpMMConfig
from repro.lowp.quantize import int_range, symmetric_quantize_slices
from repro.transformer.layers import Layer, Linear, softmax, softmax_backward

if TYPE_CHECKING:  # pragma: no cover - runtime imports the kernels
    from repro.runtime.magicube import MagicubeEmulationBackend


@dataclass(frozen=True)
class KernelPipeline:
    """The Fig. 16 launch stack: a Magicube backend + plan configs.

    The backend's ``sddmm_kernel`` / ``spmm_kernel`` classes and its
    ``softmax`` run the launches; a plan's tile knobs ride in the
    configs. :meth:`sddmm` / :meth:`spmm` re-pin the bit-critical fields
    of each launch (bits, signedness, ``fuse_dequant``), so an injected
    plan config can never change the numerics.
    """

    backend: "MagicubeEmulationBackend"
    sddmm_config: SDDMMConfig | None = None
    spmm_config: SpMMConfig | None = None

    def sddmm(self, qkv_bits: int) -> MagicubeSDDMM:
        """The ``Q K^T`` launch: signed ``qkv_bits`` operands."""
        cfg = replace(
            self.sddmm_config or SDDMMConfig(),
            l_bits=qkv_bits, r_bits=qkv_bits, l_signed=True, r_signed=True,
        )
        return self.backend.sddmm_kernel(cfg)

    def spmm(self, softmax_bits: int, qkv_bits: int) -> MagicubeSpMM:
        """The ``P V`` launch: unsigned probabilities x signed V, fused
        dequantization."""
        cfg = replace(
            self.spmm_config or SpMMConfig(),
            l_bits=softmax_bits, r_bits=qkv_bits,
            l_signed=False, r_signed=True, fuse_dequant=True,
        )
        return self.backend.spmm_kernel(cfg)


def plan_pipeline(
    backend: str | None,
    scheme: tuple[int, int],
    seq_len: int,
    d_head: int,
    vector_length: int,
    sparsity: float,
    planner=None,
) -> tuple[KernelPipeline, tuple]:
    """The launch stack for one ``(seq_len, d_head)`` attention topology.

    ``backend`` names a Magicube runtime backend (default
    :data:`~repro.runtime.DEFAULT_BACKEND`); ``scheme`` is
    ``(softmax_bits, qkv_bits)``. With a ``planner`` both launches are
    priced through its cached search, pinned to that backend, and their
    tile knobs ride along. Returns ``(pipeline, plans)``; ``plans`` is
    the (sddmm, spmm) plan pair, empty without a planner.
    """
    from repro.runtime import DEFAULT_BACKEND, get_backend

    name = backend if backend is not None else DEFAULT_BACKEND
    resolved = get_backend(name)
    if planner is None:
        return KernelPipeline(resolved), ()
    from repro.serve.planner import Objective

    softmax_bits, qkv_bits = scheme
    shape = (seq_len, seq_len, d_head, vector_length, sparsity)
    sd = planner.plan_sddmm(
        *shape, Objective.fixed(qkv_bits, qkv_bits), backend=name
    )
    sp = planner.plan_spmm(
        *shape, Objective.fixed(softmax_bits, qkv_bits), backend=name
    )
    pipeline = KernelPipeline(resolved, sd.sddmm_config(), sp.spmm_config())
    return pipeline, (sd, sp)


class MultiHeadAttention(Layer):
    """Self-attention with an optional sparse mask."""

    def __init__(self, d_model: int, num_heads: int, rng: np.random.Generator) -> None:
        if d_model % num_heads != 0:
            raise ShapeError(f"d_model {d_model} not divisible by heads {num_heads}")
        self.d_model = d_model
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        self.wq = Linear(d_model, d_model, rng)
        self.wk = Linear(d_model, d_model, rng)
        self.wv = Linear(d_model, d_model, rng)
        self.wo = Linear(d_model, d_model, rng)
        self._cache: tuple | None = None

    # -- shared helpers --------------------------------------------------
    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        b, l, _ = x.shape
        return x.reshape(b, l, self.num_heads, self.d_head).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        b, h, l, d = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, l, h * d)

    # -- training path ---------------------------------------------------
    def forward(self, x: np.ndarray, additive_mask: np.ndarray | None = None) -> np.ndarray:
        """Float masked attention; ``additive_mask`` is (L, L) with 0/-inf."""
        q = self._split_heads(self.wq.forward(x))
        k = self._split_heads(self.wk.forward(x))
        v = self._split_heads(self.wv.forward(x))
        scale = 1.0 / np.sqrt(self.d_head)
        scores = np.einsum("bhid,bhjd->bhij", q, k) * scale
        if additive_mask is not None:
            scores = scores + additive_mask
        probs = softmax(scores, axis=-1)
        ctx = np.einsum("bhij,bhjd->bhid", probs, v)
        out = self.wo.forward(self._merge_heads(ctx))
        self._cache = (q, k, v, probs, scale)
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward before forward")
        q, k, v, probs, scale = self._cache
        dctx_merged = self.wo.backward(dy)
        b, l, _ = dctx_merged.shape
        dctx = self._split_heads(dctx_merged)
        dprobs = np.einsum("bhid,bhjd->bhij", dctx, v)
        dv = np.einsum("bhij,bhid->bhjd", probs, dctx)
        dscores = softmax_backward(probs, dprobs, axis=-1) * scale
        dq = np.einsum("bhij,bhjd->bhid", dscores, k)
        dk = np.einsum("bhij,bhid->bhjd", dscores, q)
        dx = self.wq.backward(self._merge_heads(dq))
        dx = dx + self.wk.backward(self._merge_heads(dk))
        dx = dx + self.wv.backward(self._merge_heads(dv))
        return dx

    # -- quantized inference path (Fig. 16) -------------------------------
    def forward_quantized(
        self,
        x: np.ndarray,
        mask: BCRSMatrix,
        softmax_bits: int = 16,
        qkv_bits: int = 8,
        kernels: KernelPipeline | None = None,
    ) -> np.ndarray:
        """Quantized sparse attention.

        ``mask`` is the (L, L) BCRS attention topology. ``softmax_bits``
        / ``qkv_bits`` are the Fig. 17 ``xb-yb`` knobs. ``kernels`` of
        ``None`` runs the dense fake-quant math; a pipeline launches its
        backend's kernels with its plan-derived configs.
        """
        l = x.shape[1]
        if mask.shape != (l, l):
            raise ShapeError(f"mask {mask.shape} does not match sequence {l}")
        q = self._split_heads(self.wq.forward(x))
        k = self._split_heads(self.wk.forward(x))
        v = self._split_heads(self.wv.forward(x))
        scale = 1.0 / np.sqrt(self.d_head)
        if kernels is not None:
            ctx = self._attend_kernels(
                q, k, v, mask, scale, softmax_bits, qkv_bits, kernels
            )
        else:
            ctx = self._attend_batched_fake_quant(
                q, k, v, mask.to_dense() != 0, scale, softmax_bits, qkv_bits
            )
        return self.wo.forward(self._merge_heads(ctx))

    def _attend_batched_fake_quant(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        dense_keep: np.ndarray,
        scale: float,
        softmax_bits: int,
        qkv_bits: int,
    ) -> np.ndarray:
        """Vectorized Fig. 16 pipeline over all (batch, head) pairs as
        dense fake-quant math, with per-(batch, head) symmetric scales
        as the kernels use — numerically identical to the kernel path
        up to the fp16 softmax rounding.

        The integer codes are held in float64 so both products run on
        BLAS: every partial sum is an integer below 2^53, hence exact in
        any summation order — the same bits as an ``int64`` product.
        """
        qmin, qmax = int_range(qkv_bits, signed=True)

        def quant(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            amax = np.abs(t).max(axis=(2, 3), keepdims=True)
            s = np.where(amax > 0, amax / qmax, 1.0)
            return np.clip(np.rint(t / s), qmin, qmax).astype(np.float64), s

        qq, qs = quant(q)
        kq, ks = quant(k)
        vq, vs = quant(v)
        scores = qq @ np.swapaxes(kq, 2, 3)
        score_scale = qs * np.swapaxes(ks, 2, 3) * scale  # (b,h,1,1)
        logits = np.where(
            dense_keep, (scores * score_scale).astype(np.float32), -np.inf
        )
        probs = softmax(logits, axis=-1).astype(np.float16).astype(np.float32)
        probs = probs * dense_keep
        _, pmax = int_range(softmax_bits, signed=False)
        probs_q = np.clip(np.rint(probs * pmax), 0, pmax).astype(np.float64)
        ctx = probs_q @ vq
        return (ctx * (vs / pmax)).astype(np.float32)

    def _attend_kernels(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        mask: BCRSMatrix,
        scale: float,
        softmax_bits: int,
        qkv_bits: int,
        kernels: KernelPipeline,
    ) -> np.ndarray:
        """The real kernel pipeline: SDDMM -> softmax -> SpMM, each one
        grouped launch over the G = batch x heads slices.

        Every slice keeps its own symmetric Q/K/V scales, so slice g is
        bit-identical to running the pipeline on (batch, head) g alone.
        """
        b, h, l, d = q.shape
        # quantize Q, K, V per slice (Fig. 16 top row)
        qq, q_scale = symmetric_quantize_slices(q.reshape(-1, l, d), qkv_bits)
        kq, k_scale = symmetric_quantize_slices(k.reshape(-1, l, d), qkv_bits)
        vq, v_scale = symmetric_quantize_slices(v.reshape(-1, l, d), qkv_bits)

        # BCRS of integer scores, one slice per (batch, head)
        scores = kernels.sddmm(qkv_bits)(qq, kq.transpose(0, 2, 1), mask).output
        sm = kernels.backend.softmax(scores, q_scale * k_scale * scale, softmax_bits)
        spmm = kernels.spmm(softmax_bits, qkv_bits)
        probs_sr = bcrs_to_srbcrs(sm.output, stride=spmm.required_stride)
        res = spmm(probs_sr, vq, scale=sm.params.scale * v_scale)
        return res.dequantized.reshape(b, h, l, d).astype(q.dtype, copy=False)

"""Multi-head attention: dense, masked-sparse, and quantized (Fig. 16).

Three execution paths over the same weights:

- ``forward`` / ``backward`` — float32 masked attention for training
  (the additive-mask formulation of the sparse pattern).
- ``forward_quantized`` — the Fig. 16 inference pipeline functionally:
  Q/K/V quantized to ``qkv_bits``, integer SDDMM with fused dequantize,
  fp16 softmax with fused quantize to ``softmax_bits`` (unsigned),
  integer SpMM with fused dequantize. Runs either as dense fake-quant
  math (fast; used for the Table V accuracy study) or through the real
  Magicube kernels (``use_kernels=True``; exercised by integration
  tests — identical results up to fp16 rounding). The kernel path makes
  one grouped launch per op over every (batch, head) slice: the slices
  share the mask, so its indices and SR-BCRS layout are derived once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.errors import ShapeError
from repro.formats.bcrs import BCRSMatrix
from repro.formats.convert import bcrs_to_srbcrs
from repro.kernels.sddmm import MagicubeSDDMM, SDDMMConfig
from repro.kernels.softmax import sparse_softmax_quantized
from repro.kernels.spmm import MagicubeSpMM, SpMMConfig
from repro.lowp.quantize import int_range, symmetric_quantize_slices
from repro.transformer.layers import Layer, Linear, softmax, softmax_backward


@dataclass(frozen=True)
class KernelPipeline:
    """Injected kernels + configs for the Fig. 16 launches.

    The serving layer resolves a backend (whose ``sddmm_kernel`` /
    ``spmm_kernel`` classes and ``softmax`` may be fastpath variants)
    and a plan (whose tile knobs ride in the configs); injecting them
    here makes the model's attention launches use exactly that stack.
    Tile knobs never change the integer numerics — the bit-critical
    fields are re-pinned per launch — so a planned forward stays
    bit-identical to the default pipeline. ``softmax`` of ``None`` is
    the emulation softmax; ``strict`` routes the SDDMM and SpMM through
    the digit-decomposition algebra (the ``magicube-strict`` oracle).
    """

    sddmm_cls: type[MagicubeSDDMM] = MagicubeSDDMM
    spmm_cls: type[MagicubeSpMM] = MagicubeSpMM
    sddmm_config: SDDMMConfig | None = None
    spmm_config: SpMMConfig | None = None
    softmax: Callable | None = None
    strict: bool = False


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
        use_kernels: bool = False,
        kernels: KernelPipeline | None = None,
    ) -> np.ndarray:
        """Quantized sparse attention.

        ``mask`` is the (L, L) BCRS attention topology. ``softmax_bits``
        / ``qkv_bits`` are the Fig. 17 ``xb-yb`` knobs. ``kernels``
        (implies ``use_kernels``) injects the kernel classes and
        plan-derived configs the launches should use.
        """
        if kernels is not None:
            use_kernels = True
        l = x.shape[1]
        if mask.shape != (l, l):
            raise ShapeError(f"mask {mask.shape} does not match sequence {l}")
        q = self._split_heads(self.wq.forward(x))
        k = self._split_heads(self.wk.forward(x))
        v = self._split_heads(self.wv.forward(x))
        scale = 1.0 / np.sqrt(self.d_head)
        if use_kernels:
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
        """
        qmin, qmax = int_range(qkv_bits, signed=True)

        def quant(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            amax = np.abs(t).max(axis=(2, 3), keepdims=True)
            s = np.where(amax > 0, amax / qmax, 1.0)
            return np.clip(np.rint(t / s), qmin, qmax).astype(np.int64), s

        qq, qs = quant(q)
        kq, ks = quant(k)
        vq, vs = quant(v)
        scores = np.einsum("bhid,bhjd->bhij", qq, kq)
        score_scale = qs * np.swapaxes(ks, 2, 3) * scale  # (b,h,1,1)
        logits = np.where(
            dense_keep, (scores * score_scale).astype(np.float32), -np.inf
        )
        probs = softmax(logits, axis=-1).astype(np.float16).astype(np.float32)
        probs = probs * dense_keep
        _, pmax = int_range(softmax_bits, signed=False)
        probs_q = np.clip(np.rint(probs * pmax), 0, pmax).astype(np.int64)
        ctx = np.einsum("bhij,bhjd->bhid", probs_q, vq)
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
        kernels: KernelPipeline | None = None,
    ) -> np.ndarray:
        """The real kernel pipeline: SDDMM -> softmax -> SpMM, each one
        grouped launch over the G = batch x heads slices.

        Every slice keeps its own symmetric Q/K/V scales, so slice g is
        bit-identical to running the pipeline on (batch, head) g alone.
        """
        pipe = kernels or KernelPipeline()
        b, h, l, d = q.shape
        # quantize Q, K, V per slice (Fig. 16 top row)
        qq, q_scale = symmetric_quantize_slices(q.reshape(-1, l, d), qkv_bits)
        kq, k_scale = symmetric_quantize_slices(k.reshape(-1, l, d), qkv_bits)
        vq, v_scale = symmetric_quantize_slices(v.reshape(-1, l, d), qkv_bits)

        sddmm_cfg = pipe.sddmm_config or SDDMMConfig()
        # tile knobs ride along; the bit-critical fields are re-pinned
        # so an injected plan config can never change the numerics
        sddmm_cfg = replace(sddmm_cfg, l_bits=qkv_bits, r_bits=qkv_bits)
        sddmm = pipe.sddmm_cls(sddmm_cfg)
        # BCRS of integer scores, one slice per (batch, head)
        scores = sddmm(qq, kq.transpose(0, 2, 1), mask, strict=pipe.strict).output
        softmax_fn = pipe.softmax or sparse_softmax_quantized
        sm = softmax_fn(scores, q_scale * k_scale * scale, softmax_bits)
        spmm_cfg = pipe.spmm_config or SpMMConfig()
        spmm_cfg = replace(
            spmm_cfg,
            l_bits=softmax_bits,
            r_bits=qkv_bits,
            l_signed=False,
            fuse_dequant=True,
        )
        spmm = pipe.spmm_cls(spmm_cfg)
        probs_sr = bcrs_to_srbcrs(sm.output, stride=spmm.required_stride)
        res = spmm(
            probs_sr, vq, scale=sm.params.scale * v_scale, strict=pipe.strict
        )
        return res.dequantized.reshape(b, h, l, d).astype(q.dtype, copy=False)

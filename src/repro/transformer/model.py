"""Transformer encoder and sequence classifier (the LRA model shape).

Pre-LN encoder layers (attention + 2-layer MLP, residuals), mean
pooling, linear head — matching the paper's 4-encoder-layer LRA setup
structurally, scaled down for NumPy training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, MaskError, ShapeError
from repro.formats.bcrs import BCRSMatrix
from repro.transformer.attention import MultiHeadAttention
from repro.transformer.masks import MASK_ZOO, build_mask
from repro.transformer.layers import (
    Adam,
    Embedding,
    Layer,
    LayerNorm,
    Linear,
    Parameter,
    ReLU,
)


@dataclass(frozen=True)
class TransformerConfig:
    """Model hyper-parameters."""

    vocab: int = 16
    seq_len: int = 128
    d_model: int = 64
    num_heads: int = 2
    num_layers: int = 2
    d_ff: int = 128
    num_classes: int = 2
    #: named attention pattern from the :data:`repro.transformer.masks.MASK_ZOO`
    mask_variant: str = "strided"

    def __post_init__(self) -> None:
        if self.d_model % self.num_heads != 0:
            raise ConfigError("d_model must divide by num_heads")
        if self.mask_variant not in MASK_ZOO:
            raise MaskError(
                f"unknown mask variant {self.mask_variant!r}; "
                f"zoo has {tuple(sorted(MASK_ZOO))}"
            )

    def attention_mask(
        self, *, sparsity: float = 0.9, vector_length: int = 8, seed: int = 0
    ) -> BCRSMatrix:
        """The config's zoo mask at a density target (see :func:`build_mask`)."""
        return build_mask(
            self.mask_variant,
            self.seq_len,
            vector_length=vector_length,
            sparsity=sparsity,
            seed=seed,
        )


class EncoderLayer(Layer):
    """Pre-LN: x + Attn(LN(x)); x + FFN(LN(x))."""

    def __init__(self, cfg: TransformerConfig, rng: np.random.Generator) -> None:
        self.ln1 = LayerNorm(cfg.d_model)
        self.attn = MultiHeadAttention(cfg.d_model, cfg.num_heads, rng)
        self.ln2 = LayerNorm(cfg.d_model)
        self.ff1 = Linear(cfg.d_model, cfg.d_ff, rng)
        self.relu = ReLU()
        self.ff2 = Linear(cfg.d_ff, cfg.d_model, rng)

    def forward(
        self,
        x: np.ndarray,
        additive_mask: np.ndarray | None,
        quantized: dict | None = None,
    ) -> np.ndarray:
        h = self.ln1.forward(x)
        if quantized is None:
            a = self.attn.forward(h, additive_mask)
        else:
            a = self.attn.forward_quantized(h, **quantized)
        x = x + a
        h2 = self.ln2.forward(x)
        f = self.ff2.forward(self.relu.forward(self.ff1.forward(h2)))
        return x + f

    def backward(self, dy: np.ndarray) -> np.ndarray:
        df = self.ff1.backward(self.relu.backward(self.ff2.backward(dy)))
        dx = dy + self.ln2.backward(df)
        da = self.attn.backward(dx)
        return dx + self.ln1.backward(da)


class SparseTransformerClassifier(Layer):
    """Embedding -> N encoder layers -> mean pool -> linear head."""

    def __init__(self, cfg: TransformerConfig, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.embed = Embedding(cfg.vocab, cfg.d_model, rng)
        self.pos = Parameter(rng.normal(0.0, 0.02, size=(cfg.seq_len, cfg.d_model)))
        self.layers = [EncoderLayer(cfg, rng) for _ in range(cfg.num_layers)]
        self.head = Linear(cfg.d_model, cfg.num_classes, rng)
        self._seq_cache: int | None = None

    def forward(
        self,
        ids: np.ndarray,
        additive_mask: np.ndarray | None = None,
        quantized: dict | None = None,
    ) -> np.ndarray:
        """Logits for a batch of token-id sequences (B, L).

        ``quantized`` switches attention to the Fig. 16 path: a dict of
        ``forward_quantized`` kwargs (mask, softmax_bits, qkv_bits,
        kernels) — see :func:`make_quantized_kwargs`.
        """
        ids = np.asarray(ids)
        if ids.ndim != 2 or ids.shape[1] != self.cfg.seq_len:
            raise ShapeError(f"ids must be (B, {self.cfg.seq_len}), got {ids.shape}")
        x = self.embed.forward(ids) + self.pos.value
        for layer in self.layers:
            x = layer.forward(x, additive_mask, quantized)
        self._seq_cache = x.shape[1]
        pooled = x.mean(axis=1)
        # one (1, d) @ (d, C) product per row: a 2-D (B, d) matmul rounds
        # a row differently at B == 1 than at B > 1, and a served row's
        # logits must not depend on which riders share its launch
        return self.head.forward(pooled[:, None, :])[:, 0]

    def backward(self, dlogits: np.ndarray) -> None:
        l = self._seq_cache
        if l is None:
            raise ShapeError("backward before forward")
        dpooled = self.head.backward(dlogits)
        dx = np.repeat(dpooled[:, None, :], l, axis=1) / l
        for layer in reversed(self.layers):
            dx = layer.backward(dx)
        self.pos.grad += dx.sum(axis=0)
        self.embed.backward(dx)

    def optimizer(self, lr: float = 1e-3) -> Adam:
        return Adam(self.parameters(), lr=lr)

    def predict(self, ids: np.ndarray, **forward_kwargs) -> np.ndarray:
        return np.argmax(self.forward(ids, **forward_kwargs), axis=-1)


def make_quantized_kwargs(
    mask: BCRSMatrix,
    softmax_bits: int,
    qkv_bits: int,
    kernels=None,
) -> dict:
    """The ``quantized=`` dict for one Fig. 17 precision scheme.

    ``kernels`` of ``None`` evaluates as fake-quant math; a
    :class:`~repro.transformer.attention.KernelPipeline` launches its
    backend's kernels with its plan-derived configs.
    """
    return {
        "mask": mask,
        "softmax_bits": softmax_bits,
        "qkv_bits": qkv_bits,
        "kernels": kernels,
    }

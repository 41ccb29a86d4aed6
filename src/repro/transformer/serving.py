"""Whole-model serving support for ``TransformerRequest``.

:class:`PreparedTransformer` memoizes the seeded LRA classifier and its
zoo attention mask for one request topology, and runs ``lra-classify``
forwards through the real quantized kernel pipeline — one model forward
is, per layer, one grouped SDDMM -> quantized-softmax -> SpMM launch
sequence over every (batch, head) slice, whose kernels come from the
resolved runtime backend (``fastpath-vectorized`` by default) and whose
tile configs come from the execution planner's cached plans. Every layer
shares one (sddmm, spmm) plan pair, so a layer-N launch is a plan-cache
hit for layer-0's key; the plan keys carry the mask variant's
*realized* sparsity, which is what makes mask patterns distinct,
priceable plan-key dimensions.

The ``prefill`` / ``decode`` request modes reuse the Fig. 17 latency
model (:mod:`repro.transformer.inference`) at the same realized
sparsity, so the modelled times an engine reports are consistent with
what the planner priced.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields

import numpy as np

from repro.errors import ConfigError
from repro.transformer.attention import plan_pipeline
from repro.transformer.inference import (
    Backend,
    InferenceConfig,
    LatencyResult,
    estimate_decode_latency,
    estimate_latency,
)
from repro.transformer.model import (
    SparseTransformerClassifier,
    TransformerConfig,
    make_quantized_kwargs,
)

#: request modes the serving layer understands
TRANSFORMER_MODES = ("lra-classify", "prefill", "decode")


@dataclass(frozen=True)
class TransformerSpec:
    """Everything that determines the memoized model + mask."""

    seq_len: int = 128
    d_model: int = 64
    num_heads: int = 2
    num_layers: int = 2
    d_ff: int = 128
    vocab: int = 16
    num_classes: int = 2
    mask_variant: str = "strided"
    sparsity: float = 0.9
    vector_length: int = 8
    seed: int = 0

    @classmethod
    def of(cls, request) -> "TransformerSpec":
        """The spec a :class:`~repro.api.TransformerRequest` serves."""
        return cls(**{f.name: getattr(request, f.name) for f in fields(cls)})

    def model_config(self) -> TransformerConfig:
        return TransformerConfig(
            vocab=self.vocab,
            seq_len=self.seq_len,
            d_model=self.d_model,
            num_heads=self.num_heads,
            num_layers=self.num_layers,
            d_ff=self.d_ff,
            num_classes=self.num_classes,
            mask_variant=self.mask_variant,
        )

    @property
    def d_head(self) -> int:
        return self.d_model // self.num_heads

    def latency_config(
        self, batch: int, device: str, sparsity: float | None = None
    ) -> InferenceConfig:
        """The Fig. 17 accounting point for this topology."""
        return InferenceConfig(
            seq_len=self.seq_len,
            num_heads=self.num_heads,
            batch=batch,
            sparsity=self.sparsity if sparsity is None else sparsity,
            num_layers=self.num_layers,
            d_head=self.d_head,
            vector_length=self.vector_length,
            device=device,
        )


class PreparedTransformer:
    """A seeded model + zoo mask, ready to serve forwards."""

    def __init__(self, spec: TransformerSpec) -> None:
        self.spec = spec
        self.config = spec.model_config()
        self.model = SparseTransformerClassifier(self.config, seed=spec.seed)
        self.mask = self.config.attention_mask(
            sparsity=spec.sparsity,
            vector_length=spec.vector_length,
            seed=spec.seed,
        )

    @property
    def realized_sparsity(self) -> float:
        """The mask's actual sparsity (what plans are priced at)."""
        return self.mask.sparsity

    def launches_per_forward(self) -> int:
        """Kernel launches one forward dispatches: one grouped SDDMM and
        one grouped SpMM per layer, whatever the batch and head count."""
        return 2 * self.spec.num_layers

    def forward(
        self,
        ids: np.ndarray,
        scheme: tuple[int, int] = (16, 8),
        backend: str | None = None,
        planner=None,
    ) -> tuple[np.ndarray, tuple]:
        """Logits for ``ids`` via the planned quantized kernel path.

        Returns ``(logits, plans)``; ``plans`` is the (sddmm, spmm) plan
        pair when a planner priced the launches, else empty. Bit-identical
        to ``SparseTransformerClassifier.forward`` with an unplanned
        pipeline on the same backend, mask and scheme: the plan configs
        only carry tile knobs, never numerics.
        """
        spec = self.spec
        pipeline, plans = plan_pipeline(
            backend, scheme, spec.seq_len, spec.d_head, spec.vector_length,
            self.realized_sparsity, planner,
        )
        quantized = make_quantized_kwargs(
            self.mask, scheme[0], scheme[1], kernels=pipeline
        )
        logits = self.model.forward(np.asarray(ids), quantized=quantized)
        return logits, plans


# ----------------------------------------------------------------------
# memoized preparation: model builds are the expensive part of a
# transformer request class, so the spec -> prepared map is shared by
# one-shot resolution and engine sessions alike

_CACHE: OrderedDict[TransformerSpec, PreparedTransformer] = OrderedDict()
_CACHE_CAPACITY = 8


def prepare_transformer(spec: TransformerSpec) -> PreparedTransformer:
    """Memoized :class:`PreparedTransformer` for one topology."""
    got = _CACHE.get(spec)
    if got is None:
        got = PreparedTransformer(spec)
        _CACHE[spec] = got
        while len(_CACHE) > _CACHE_CAPACITY:
            _CACHE.popitem(last=False)
    else:
        _CACHE.move_to_end(spec)
    return got


def modelled_latency(
    prepared: PreparedTransformer,
    mode: str,
    batch: int,
    scheme: tuple[int, int],
    device: str,
    planner=None,
    plan_backend: str | None = None,
) -> LatencyResult:
    """The Fig. 17 latency model at the mask's realized sparsity."""
    if mode not in TRANSFORMER_MODES:
        raise ConfigError(
            f"unknown transformer mode {mode!r}; expected one of "
            f"{TRANSFORMER_MODES}"
        )
    cfg = prepared.spec.latency_config(
        batch, device, sparsity=round(prepared.realized_sparsity, 3)
    )
    backend = Backend("magicube", scheme[0], scheme[1])
    estimator = estimate_decode_latency if mode == "decode" else estimate_latency
    return estimator(cfg, backend, planner=planner, plan_backend=plan_backend)

"""Sparse Transformer application (paper Sec. V-C, Figs. 16-17, Table V).

End-to-end use of the Magicube kernels: a Transformer encoder whose
self-attention is sparsified by a 1-D-block attention mask and quantized
per Fig. 16 (int SDDMM -> fp16 softmax -> int SpMM with fused
(de)quantization).

- :mod:`repro.transformer.masks` — sparse attention masks with the 8x1
  vector constraint (strided/local patterns after Child et al.), plus
  the named :data:`~repro.transformer.masks.MASK_ZOO` variant zoo
  (``local``, ``strided``, ``blocked-random``, ``global-local``,
  ``banded``) behind :func:`~repro.transformer.masks.build_mask`.
- :mod:`repro.transformer.layers` — NumPy layers with manual backprop.
- :mod:`repro.transformer.attention` — dense, masked-sparse, and
  quantized sparse multi-head attention;
  :func:`~repro.transformer.attention.plan_pipeline` builds the
  :class:`~repro.transformer.attention.KernelPipeline` (a Magicube
  backend + planned tile configs) that served forwards launch and the
  Fig. 17 latency model prices.
- :mod:`repro.transformer.model` — encoder + classifier.
- :mod:`repro.transformer.training` — training loop and post-training
  quantization for the Table V accuracy study.
- :mod:`repro.transformer.lra` — the synthetic long-range classification
  task standing in for LRA text classification.
- :mod:`repro.transformer.inference` — the Fig. 17 end-to-end latency
  model (PyTorch-dense vs vectorSparse vs Magicube, incl. dense OOM),
  plus :func:`~repro.transformer.inference.estimate_decode_latency`
  for single-step decode pricing.
- :mod:`repro.transformer.serving` — whole-model serving support for
  ``TransformerRequest`` (memoized prepared models, planned kernel
  pipelines, modelled prefill/decode latency).
"""

from repro.transformer.masks import (
    MASK_ZOO,
    build_mask,
    global_local_vector_mask,
    local_vector_mask,
    mask_variants,
    random_vector_mask,
    strided_vector_mask,
)
from repro.transformer.model import SparseTransformerClassifier, TransformerConfig
from repro.transformer.inference import (
    InferenceConfig,
    estimate_decode_latency,
    estimate_latency,
    Backend,
    DenseOOM,
)

__all__ = [
    "MASK_ZOO",
    "build_mask",
    "global_local_vector_mask",
    "local_vector_mask",
    "mask_variants",
    "strided_vector_mask",
    "random_vector_mask",
    "SparseTransformerClassifier",
    "TransformerConfig",
    "InferenceConfig",
    "estimate_decode_latency",
    "estimate_latency",
    "Backend",
    "DenseOOM",
]

"""Quantized sparse-Transformer attention, end to end (paper Fig. 16-17).

Part 1 runs one quantized attention layer through the *real* Magicube
kernel pipeline (int8 SDDMM -> fp16 softmax with fused quantization ->
int8 SpMM with fused dequantization) on a small sequence and compares it
against float masked attention.

Part 2 regenerates a Fig. 17 panel: full-model latency at production
scale (seq 4096/8192) for the dense baseline, vectorSparse, and the
Magicube precision schemes — including the dense OOM.

Run:  python examples/sparse_transformer_inference.py
"""

import numpy as np

from repro.runtime import get_backend
from repro.transformer.attention import KernelPipeline, MultiHeadAttention
from repro.transformer.inference import (
    ALL_BACKENDS,
    DenseOOM,
    InferenceConfig,
    estimate_latency,
)
from repro.transformer.masks import mask_statistics, mask_to_additive, strided_vector_mask

# --- Part 1: one quantized attention layer via the real kernels ---------
seq_len, d_model, heads = 64, 64, 2
rng = np.random.default_rng(0)
attn = MultiHeadAttention(d_model, heads, rng)
mask = strided_vector_mask(seq_len, vector_length=8, local_window=16, stride=32)
print("attention mask:", mask_statistics(mask))

x = rng.normal(size=(1, seq_len, d_model)).astype(np.float32)
ref = attn.forward(x, mask_to_additive(mask))
# the pipeline names the backend whose kernels run the launches
kernels = KernelPipeline(get_backend("magicube-emulation"))
quant = attn.forward_quantized(x, mask, softmax_bits=16, qkv_bits=8, kernels=kernels)
rel_err = float(np.abs(quant - ref).mean() / np.abs(ref).mean())
print(f"kernel pipeline vs float attention: mean relative error {rel_err:.4f}")
assert rel_err < 0.05

# --- Part 2: Fig. 17-style latency panel ---------------------------------
print("\nEnd-to-end latency, 4 encoder layers, d_head=64, sparsity=0.9:")
header = f"{'config':<28}" + "".join(f"{b.label.split(' ')[0][:9]:>11}" for b in ALL_BACKENDS)
print(header)
for seq in (4096, 8192):
    for batch in (2, 8):
        cfg = InferenceConfig(seq_len=seq, num_heads=4, batch=batch, sparsity=0.9)
        cells = []
        for backend in ALL_BACKENDS:
            try:
                cells.append(f"{estimate_latency(cfg, backend).total_ms:9.2f}ms")
            except DenseOOM:
                cells.append(f"{'OOM':>11}")
        print(f"seq={seq} batch={batch:<14}" + "".join(f"{c:>11}" for c in cells))

print("\nNote the dense OOM at seq 8192 / batch 8 and the growing Magicube")
print("advantage with sequence length — the paper's Fig. 17 shapes.")

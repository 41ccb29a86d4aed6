"""Sparse softmax in fp16 with fused (de)quantization (Fig. 16).

In the quantized attention layer the SDDMM's integer scores are
dequantized to fp16, softmax runs per row over the *nonzero* entries of
the sparse attention matrix, and the result is re-quantized to unsigned
integers for the following SpMM — all fused into one kernel in the
paper. The softmax output is non-negative, so the quantization is
scale-only unsigned; the paper evaluates 16-bit and 8-bit softmax
outputs (Fig. 17's ``16b-8b`` / ``8b-8b`` labels are
``softmax-bits`` - ``QKV-bits``).

fp16 arithmetic is modelled by rounding through ``np.float16`` at the
points where the real kernel stores halves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.formats.bcrs import BCRSMatrix
from repro.gpu.memory import TrafficCounter
from repro.gpu.timing import KernelStats
from repro.gpu.warp import LaunchGrid, ThreadBlock, ceil_div
from repro.lowp.quantize import QuantParams, int_range


@dataclass
class SoftmaxResult:
    """Sparse softmax output: quantized codes + the scale to undo them."""

    output: BCRSMatrix
    params: QuantParams
    stats: KernelStats


def sparse_softmax_quantized(
    scores: BCRSMatrix,
    scale: "float | np.ndarray",
    out_bits: int = 8,
) -> SoftmaxResult:
    """Row-wise fp16 softmax over a sparse score matrix, fused quantize.

    ``scores`` holds integer attention scores (SDDMM output in BCRS);
    ``scale`` dequantizes them to real logits. Rows with no stored
    entries are left empty (their attention contributes nothing).
    Returns unsigned ``out_bits`` codes with a fixed scale of
    ``1 / qmax`` — softmax outputs are in [0, 1], so calibration is
    static, which is what lets the paper fuse quantization into the
    softmax kernel without a second pass.

    Grouped ``scores`` (S slices over one mask) take one ``scale`` per
    slice and run as one launch; this oracle computes slice by slice.
    """
    if out_bits not in (8, 16):
        raise ShapeError(f"softmax output must be 8 or 16 bits, got {out_bits}")
    if scores.slices is not None:
        scales = np.broadcast_to(np.asarray(scale, dtype=np.float64), (scores.slices,))
        parts = [
            sparse_softmax_quantized(scores.slice(g), float(scales[g]), out_bits)
            for g in range(scores.slices)
        ]
        return SoftmaxResult(
            output=scores.with_values(np.stack([p.output.values for p in parts])),
            params=parts[0].params,
            stats=_account(scores, out_bits).repeated(scores.slices),
        )
    _, qmax = int_range(out_bits, signed=False)
    params = QuantParams(scale=1.0 / qmax, bits=out_bits, signed=False)

    # dequantize scores to fp16 logits
    logits = np.float16(np.asarray(scores.values, dtype=np.float32) * np.float32(scale))
    out_values = np.zeros_like(scores.values, dtype=np.int64)

    # softmax runs per *row* of the matrix; a strip holds V rows whose
    # entries share column positions (vector-major storage), so each of
    # the V lanes is an independent row softmax over the strip's vectors
    for r in range(scores.num_strips):
        lo, hi = int(scores.row_ptrs[r]), int(scores.row_ptrs[r + 1])
        if hi == lo:
            continue
        row_logits = logits[lo:hi].astype(np.float32)  # (nvec, V)
        mx = row_logits.max(axis=0, keepdims=True)
        ex = np.exp(row_logits - mx)
        sm = np.float16(ex / ex.sum(axis=0, keepdims=True))  # fp16 storage
        out_values[lo:hi] = np.clip(
            np.rint(sm.astype(np.float32) / params.scale), 0, qmax
        ).astype(np.int64)

    return SoftmaxResult(
        output=scores.with_values(out_values),
        params=params,
        stats=_account(scores, out_bits),
    )


def _account(scores: BCRSMatrix, out_bits: int) -> KernelStats:
    """Cost of the fused softmax kernel: one streaming pass, fp32 exp on
    CUDA cores (modelled as epilogue cycles)."""
    stats = KernelStats(name=f"softmax-fp16-q{out_bits}")
    t = TrafficCounter()
    in_bytes = scores.nnz * 2 + scores.num_vectors * 4
    t.read("scores", in_bytes)
    t.write("probs", scores.nnz * out_bits // 8)
    stats.traffic = t
    # ~4 instructions per element (exp, sub, div, quant) over 32 lanes
    stats.epilogue_cycles = ceil_div(scores.nnz * 4, 32)
    stats.useful_ops = scores.nnz * 4
    stats.prefetch = True  # pure streaming kernel
    stats.grid = LaunchGrid(
        blocks=max(scores.num_strips, 1), block=ThreadBlock(warps=2)
    )
    return stats

"""Vectorized sparse softmax, bucketed by segment length.

The emulated :func:`~repro.kernels.softmax.sparse_softmax_quantized`
loops strips (and the slices of grouped scores) in Python. Strips
cannot be batched naively — segments have ragged lengths and the fp16
modelling makes the reduction order observable — but strips *of the
same length* can be stacked into one ``(S, B, L, V)`` slab and reduced
along the ``L`` axis, which NumPy evaluates in the same order as the
per-strip ``sum(axis=0)``. Bucketing by length therefore keeps the
result bit-exact while collapsing both loops to ``O(distinct lengths)``
iterations (uniform attention topologies have one or two). The
segments come from the scores' memoized
:class:`~repro.fastpath.plans.BcrsStripPlan` — the one their SDDMM
already built for the mask.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.fastpath.plans import bcrs_plan
from repro.formats.bcrs import BCRSMatrix
from repro.kernels.softmax import SoftmaxResult, _account
from repro.lowp.quantize import QuantParams, int_range

__all__ = ["sparse_softmax_quantized_fast"]


def sparse_softmax_quantized_fast(
    scores: BCRSMatrix,
    scale: "float | np.ndarray",
    out_bits: int = 8,
) -> SoftmaxResult:
    """Bit-exact, batched variant of
    :func:`repro.kernels.softmax.sparse_softmax_quantized`.

    Same contract (grouped scores included), same fp16 rounding points,
    same quantization — the per-slice and per-strip loops are replaced
    by one pass per distinct segment length.
    """
    if out_bits not in (8, 16):
        raise ShapeError(f"softmax output must be 8 or 16 bits, got {out_bits}")
    _, qmax = int_range(out_bits, signed=False)
    params = QuantParams(scale=1.0 / qmax, bits=out_bits, signed=False)

    values = np.asarray(scores.values, dtype=np.float32)
    lead = values.shape[:-2]
    per_slice = np.asarray(scale, dtype=np.float32).reshape(
        lead + (1, 1) if np.ndim(scale) else ()
    )
    logits = np.float16(values * per_slice)
    out_values = np.zeros(values.shape, dtype=np.int64)
    for positions in bcrs_plan(scores).segments:
        batch = logits[..., positions, :].astype(np.float32)  # (S, B, L, V)
        mx = batch.max(axis=-2, keepdims=True)
        ex = np.exp(batch - mx)
        sm = np.float16(ex / ex.sum(axis=-2, keepdims=True))
        out_values[..., positions, :] = np.clip(
            np.rint(sm.astype(np.float32) / params.scale), 0, qmax
        ).astype(np.int64)

    stats = _account(scores, out_bits)
    if scores.slices is not None:
        stats = stats.repeated(scores.slices)
    return SoftmaxResult(
        output=scores.with_values(out_values), params=params, stats=stats
    )

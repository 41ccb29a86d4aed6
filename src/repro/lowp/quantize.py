"""Quantization of real-valued tensors to low-precision integers.

The end-to-end Transformer path (Fig. 16 of the paper) quantizes Q, K, V
symmetrically to signed int8/int4 before the integer kernels, and the
softmax output — which is non-negative — to *unsigned* integers. Both
schemes are per-tensor scale-only (symmetric), as in the integer
quantization literature the paper cites (Wu et al. 2020; Nagel et al.
2021).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.workspace import scratch
from repro.errors import QuantizationError


def int_range(bits: int, signed: bool = True) -> tuple[int, int]:
    """Representable (min, max) for a ``bits``-wide integer."""
    if bits < 1 or bits > 32:
        raise QuantizationError(f"unsupported bit width {bits}")
    if signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


@dataclass(frozen=True)
class QuantParams:
    """Scale-only quantization parameters.

    ``real = scale * quantized`` (symmetric, zero-point 0). ``signed``
    records which integer grid the values live on; ``bits`` the width.
    """

    scale: float
    bits: int
    signed: bool = True

    def __post_init__(self) -> None:
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise QuantizationError(f"scale must be finite and positive, got {self.scale}")
        int_range(self.bits, self.signed)  # validates bits

    @property
    def qmin(self) -> int:
        return int_range(self.bits, self.signed)[0]

    @property
    def qmax(self) -> int:
        return int_range(self.bits, self.signed)[1]


def symmetric_quantize(x: np.ndarray, bits: int) -> tuple[np.ndarray, QuantParams]:
    """Quantize to signed integers with a symmetric per-tensor scale.

    The scale maps ``max(|x|)`` to the largest positive code so that the
    grid is symmetric about zero (the convention for weights and Q/K/V
    activations in the paper's pipeline). Returns ``(q, params)`` with
    ``q`` of dtype int32 (values fit the requested width).
    """
    x = np.asarray(x, dtype=np.float64)
    qmin, qmax = int_range(bits, signed=True)
    amax = float(np.max(np.abs(x))) if x.size else 0.0
    # the smallest-normal floor keeps a subnormal amax from underflowing
    # the division to scale == 0 (which QuantParams rightly rejects)
    scale = max(amax / qmax, float(np.finfo(np.float64).tiny)) if amax > 0 else 1.0
    q = np.clip(np.rint(x / scale), qmin, qmax).astype(np.int32)
    return q, QuantParams(scale=scale, bits=bits, signed=True)


def _code_dtype(bits: int) -> np.dtype:
    """The narrowest signed integer dtype holding ``bits``-wide codes."""
    return np.dtype(np.int8 if bits <= 8 else np.int16 if bits <= 16 else np.int32)


def symmetric_quantize_slices(
    x: np.ndarray, bits: int, workspace=None
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`symmetric_quantize` of every slice along ``x``'s leading
    axis at once, each with its own scale.

    Returns ``(q, scales)``: codes shaped like ``x`` in the narrowest
    signed integer dtype (int8 up to 8 bits) and the float64 per-slice
    scales. Slice ``i`` holds the same codes and scale as
    ``symmetric_quantize(x[i], bits)``, including the 1.0 scale of an
    all-zero slice and the smallest-normal floor of a subnormal amax.

    One float64 staging buffer takes ``|x|`` (the amax pass), then the
    quotient, rounded and clipped in place. With a
    :class:`~repro.core.workspace.Workspace` the staging buffer and the
    codes are its ``quantize.*`` buffers — the codes are then scratch,
    valid until the workspace's next quantize; without one both are
    fresh arrays.
    """
    x = np.asarray(x)
    qmin, qmax = int_range(bits, signed=True)
    staged = scratch(workspace, "quantize.staging", x.shape, np.float64)
    q = scratch(workspace, "quantize.codes", x.shape, _code_dtype(bits))
    # |x| in float64 for every input dtype: an integer abs would wrap
    # (int8 |-128| is -128) and understate the amax
    amax = np.abs(x, out=staged, dtype=np.float64).max(
        axis=tuple(range(1, x.ndim)), initial=0.0
    )
    scales = np.where(
        amax > 0, np.maximum(amax / qmax, np.finfo(np.float64).tiny), 1.0
    )
    per_slice = scales.reshape((-1,) + (1,) * (x.ndim - 1))
    np.divide(x, per_slice, out=staged)
    np.rint(staged, out=staged)
    np.clip(staged, qmin, qmax, out=staged)
    np.copyto(q, staged, casting="unsafe")
    return q, scales


def unsigned_quantize(x: np.ndarray, bits: int) -> tuple[np.ndarray, QuantParams]:
    """Quantize non-negative values to unsigned integers (scale-only).

    Used for the softmax output, which lies in [0, 1]. Negative inputs
    are rejected — they would need a zero-point, which the integer
    kernels do not model.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size and float(x.min()) < 0:
        raise QuantizationError("unsigned_quantize requires non-negative input")
    _, qmax = int_range(bits, signed=False)
    amax = float(x.max()) if x.size else 0.0
    scale = amax / qmax if amax > 0 else 1.0
    q = np.clip(np.rint(x / scale), 0, qmax).astype(np.int32)
    return q, QuantParams(scale=scale, bits=bits, signed=False)


def quantize_with(x: np.ndarray, params: QuantParams) -> np.ndarray:
    """Quantize using pre-computed parameters (e.g. calibrated offline)."""
    x = np.asarray(x, dtype=np.float64)
    return np.clip(np.rint(x / params.scale), params.qmin, params.qmax).astype(np.int32)


def dequantize(q: np.ndarray, params: QuantParams) -> np.ndarray:
    """Map integer codes back to real values: ``scale * q`` (float32)."""
    return (np.asarray(q, dtype=np.float64) * params.scale).astype(np.float32)

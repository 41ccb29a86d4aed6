"""Low-precision integer toolkit.

This subpackage provides the bit-level machinery that the CUDA kernels of
the paper rely on and that plain NumPy lacks:

- :mod:`repro.lowp.pack` — packing/unpacking of int4/int8/int16 values
  into/out of 32-bit register words (CUDA has no 4-bit type, so int4 data
  always lives packed inside ``uint32`` registers).
- :mod:`repro.lowp.bitops` — vectorized mask/shift/or helpers used by the
  online-transpose tricks (Fig. 5 and Fig. 7 of the paper).
- :mod:`repro.lowp.decompose` — two's-complement digit decomposition used
  by the mixed-precision emulation (Sec. IV-D): a signed integer splits
  into a *signed* top digit and *unsigned* lower digits.
- :mod:`repro.lowp.quantize` — symmetric quantization to signed integers
  and affine quantization to unsigned integers, with dequantization.
"""

from repro.lowp.pack import (
    pack_int4,
    unpack_int4,
    pack_uint4,
    unpack_uint4,
    pack_int8,
    unpack_int8,
    pack_int16,
    unpack_int16,
    pack_rows,
    unpack_rows,
)
from repro.lowp.decompose import (
    split_signed,
    split_unsigned,
    recombine,
    decompose_matrix,
    digit_weights,
)
from repro.lowp.quantize import (
    QuantParams,
    symmetric_quantize,
    symmetric_quantize_slices,
    unsigned_quantize,
    dequantize,
    quantize_with,
    int_range,
)

__all__ = [
    "pack_int4",
    "unpack_int4",
    "pack_uint4",
    "unpack_uint4",
    "pack_int8",
    "unpack_int8",
    "pack_int16",
    "unpack_int16",
    "pack_rows",
    "unpack_rows",
    "split_signed",
    "split_unsigned",
    "recombine",
    "decompose_matrix",
    "digit_weights",
    "QuantParams",
    "symmetric_quantize",
    "symmetric_quantize_slices",
    "unsigned_quantize",
    "dequantize",
    "quantize_with",
    "int_range",
]

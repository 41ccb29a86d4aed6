"""Magicube kernels: SpMM, SDDMM, online transpose, precision emulation.

- :mod:`repro.kernels.transpose` — the online-transpose strategies: the
  int8 register transpose (Figs. 4-6) and the int4 transpose via column
  index shuffling (Fig. 7), executed bit-exactly on packed words.
- :mod:`repro.kernels.emulation` — mixed-precision emulation plans
  (Table IV) and the mma-stacking utilization optimization (Fig. 10).
- :mod:`repro.kernels.spmm` — Magicube SpMM (Sec. IV-B).
- :mod:`repro.kernels.sddmm` — Magicube SDDMM (Sec. IV-C).
- :mod:`repro.kernels.softmax` — fp16 softmax with fused (de)quantization
  for the end-to-end attention layer (Fig. 16).

Both kernels compute strip by strip; ``StrictSpMM`` / ``StrictSDDMM``
override only the per-strip product with the digit-decomposition
algebra (:func:`emulated_matmul`) — the ``magicube-strict`` kernels.
"""

from repro.kernels.emulation import (
    EmulationPlan,
    plan_for,
    emulated_matmul,
    stack_factor,
    supported_pairs,
)
from repro.kernels.spmm import MagicubeSpMM, SpMMConfig, SpMMResult, StrictSpMM
from repro.kernels.sddmm import MagicubeSDDMM, SDDMMConfig, SDDMMResult, StrictSDDMM
from repro.kernels.transpose import (
    online_transpose_int8,
    online_transpose_int4,
    transpose_bitop_cost,
)

__all__ = [
    "EmulationPlan",
    "plan_for",
    "emulated_matmul",
    "stack_factor",
    "supported_pairs",
    "MagicubeSpMM",
    "SpMMConfig",
    "SpMMResult",
    "StrictSpMM",
    "MagicubeSDDMM",
    "SDDMMConfig",
    "SDDMMResult",
    "StrictSDDMM",
    "online_transpose_int8",
    "online_transpose_int4",
    "transpose_bitop_cost",
]

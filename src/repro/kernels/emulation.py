"""Mixed-precision emulation and MMA stacking (Sec. IV-D, Fig. 10).

Tensor cores natively multiply int8 x int8 and int4 x int4. Magicube
emulates higher/mixed precisions by digit decomposition: an x-bit LHS
value splits into ``x/w`` w-bit digits (top digit signed, rest unsigned,
see :mod:`repro.lowp.decompose`), each digit matrix multiplies the RHS
with a native MMA, and the int32 partial products recombine as
``C = sum_{i,j} 2^(w*(i+j)) * (L_i @ R_j)``.

Supported pairs (paper Table IV)::

    SpMM   emulated: L16-R16, L16-R8, L16-R4, L12-R4, L8-R4
           native:   L8-R8, L4-R4
    SDDMM  emulated: L16-R16
           native:   L8-R8, L4-R4

**MMA stacking** (Fig. 10b): with vector length V < 8 the MMA's m dim is
underutilized; during emulation the digit matrices A_0, A_1 can be
stacked along m into a single MMA, recovering utilization. The stacked
partial results land in different accumulator rows and are exchanged
with warp shuffles, then scaled and summed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PrecisionError
from repro.gpu.warp import maximum, minimum
from repro.lowp.decompose import decompose_matrix, digit_weights


@dataclass(frozen=True)
class EmulationPlan:
    """How one ``Lx-Ry`` precision pair maps onto native MMAs.

    ``native_bits`` is the MMA operand width (8 or 4); ``l_digits`` /
    ``r_digits`` how many digit matrices each side splits into. The
    total native products per logical MMA is ``l_digits * r_digits``.
    """

    l_bits: int
    r_bits: int
    native_bits: int

    @property
    def l_digits(self) -> int:
        return self.l_bits // self.native_bits

    @property
    def r_digits(self) -> int:
        return self.r_bits // self.native_bits

    @property
    def products(self) -> int:
        return self.l_digits * self.r_digits

    @property
    def is_native(self) -> bool:
        return self.products == 1

    @property
    def name(self) -> str:
        return f"L{self.l_bits}-R{self.r_bits}"

    def weights(self) -> list[tuple[int, int, int]]:
        """(scale, l_digit, r_digit) triples for recombination."""
        wl = digit_weights(self.l_bits, self.native_bits)
        wr = digit_weights(self.r_bits, self.native_bits)
        return [
            (wl[i] * wr[j], i, j)
            for i in range(self.l_digits)
            for j in range(self.r_digits)
        ]


#: Table IV, SpMM row: precision pairs -> native MMA width
_SPMM_PLANS = {
    (16, 16): 8,
    (16, 8): 8,
    (8, 8): 8,
    (16, 4): 4,
    (12, 4): 4,
    (8, 4): 4,
    (4, 4): 4,
}
#: Table IV, SDDMM row
_SDDMM_PLANS = {
    (16, 16): 8,
    (8, 8): 8,
    (4, 4): 4,
}


def supported_pairs(op: str = "spmm") -> list[tuple[int, int]]:
    """All (l_bits, r_bits) pairs of Table IV for the given operation."""
    table = _SPMM_PLANS if op == "spmm" else _SDDMM_PLANS
    return sorted(table, reverse=True)


def plan_for(l_bits: int, r_bits: int, op: str = "spmm") -> EmulationPlan:
    """Emulation plan for an ``Lx-Ry`` pair; PrecisionError if outside
    Table IV."""
    if op not in ("spmm", "sddmm"):
        raise PrecisionError(f"unknown operation {op!r}")
    table = _SPMM_PLANS if op == "spmm" else _SDDMM_PLANS
    native = table.get((l_bits, r_bits))
    if native is None:
        raise PrecisionError(
            f"L{l_bits}-R{r_bits} is not supported for {op} (Table IV)"
        )
    return EmulationPlan(l_bits=l_bits, r_bits=r_bits, native_bits=native)


def stack_factor(vector_length: int, products: int) -> int:
    """How many digit products stack into one MMA (Fig. 10b).

    With V rows used of the MMA's m=8, up to ``8 // V`` digit matrices
    fit stacked; never more than there are products. Native precision
    (1 product) cannot stack.
    """
    if vector_length < 1 or vector_length > 8:
        raise PrecisionError(f"vector length must be in [1, 8], got {vector_length}")
    return maximum(1, minimum(8 // vector_length, products))


def mma_count_per_tile(plan: EmulationPlan, vector_length: int) -> int:
    """Native MMA instructions per logical (8 x k) x (k x 8) tile product.

    Emulation multiplies the count by ``products``; stacking divides it
    back by the stack factor (ceil — a partial stack still costs one).
    ``plan.products`` may be an array (a grid of pairs).
    """
    s = stack_factor(vector_length, plan.products)
    return -(-plan.products // s)


def emulated_matmul(
    a: np.ndarray,
    b: np.ndarray,
    plan: EmulationPlan,
    a_signed: bool = True,
    b_signed: bool = True,
) -> np.ndarray:
    """Exact integer matmul via the digit-decomposition algebra.

    Splits both operands into native-width digits, multiplies every
    digit pair with int32-accumulating native-width products, and
    recombines with the 2^(w(i+j)) scales — precisely what the GPU
    kernel does across its MMA calls. Output dtype int64 (the final
    scaled sum can exceed int32 for L16-R16; the hardware kernel
    accumulates those in 64-bit or fp32 epilogues).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    l_digits = decompose_matrix(a, plan.l_bits, plan.native_bits, signed=a_signed)
    r_digits = decompose_matrix(b.T, plan.r_bits, plan.native_bits, signed=b_signed)
    r_digits = [d.T for d in r_digits]
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for scale, i, j in plan.weights():
        part = l_digits[i].astype(np.int64) @ r_digits[j].astype(np.int64)
        acc += scale * part
    return acc


def stacked_lhs(digit_tiles: list[np.ndarray], vector_length: int) -> list[np.ndarray]:
    """Stack digit LHS tiles along the m dimension (Fig. 10b).

    Each input tile is ``(V, k)``; the output tiles are ``(V * s, k)``
    with ``s`` digits stacked (the last stack may be partial, padded
    with zero rows to keep the MMA shape).
    """
    if not digit_tiles:
        return []
    v = vector_length
    k = digit_tiles[0].shape[1]
    s = stack_factor(v, len(digit_tiles))
    out = []
    for base in range(0, len(digit_tiles), s):
        chunk = digit_tiles[base : base + s]
        tile = np.zeros((v * s, k), dtype=np.int64)
        for idx, d in enumerate(chunk):
            tile[idx * v : (idx + 1) * v] = d
        out.append(tile)
    return out

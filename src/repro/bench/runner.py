"""Shared workload builders and per-library executors for the benches."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.calibration import cost_model_for
from repro.baselines.cublas import CublasGemm
from repro.baselines.cusparse import CusparseBlockedEllSpMM
from repro.baselines.vector_sparse import VectorSparseSDDMM, VectorSparseSpMM
from repro.dlmc.generator import MatrixSpec, generate_blocked_ell, generate_matrix
from repro.formats.bcrs import BCRSMatrix
from repro.formats.convert import (
    dense_to_bcrs,
    dense_to_blocked_ell,
    dense_to_srbcrs,
)
from repro.gpu.timing import KernelStats
from repro.kernels.sddmm import MagicubeSDDMM, SDDMMConfig
from repro.kernels.spmm import MagicubeSpMM, SpMMConfig


def geomean(values) -> float:
    """Geometric mean (the paper's averaging convention)."""
    v = np.asarray(list(values), dtype=np.float64)
    if v.size == 0:
        return float("nan")
    return float(np.exp(np.log(v).mean()))


@dataclass
class SpmmWorkload:
    """All operand views one SpMM comparison point needs."""

    spec: MatrixSpec
    vector_length: int
    dense8: np.ndarray  # int8-valued LHS
    dense4: np.ndarray  # int4-valued LHS (same pattern)
    srbcrs16: object  # stride-16 layout (int8-path kernels)
    srbcrs32: object  # stride-32 layout (int4-path kernels)
    bcrs: BCRSMatrix
    bell_dense: np.ndarray  # same-sparsity blocked matrix for cuSPARSE
    rhs8: np.ndarray
    rhs4: np.ndarray

    @property
    def n(self) -> int:
        return self.rhs8.shape[1]


def build_spmm_workload(spec: MatrixSpec, v: int, n: int) -> SpmmWorkload:
    """Materialize every format/operand for one (matrix, V, N) point."""
    dense8 = generate_matrix(spec, v, bits=8)
    dense4 = generate_matrix(spec, v, bits=4)
    rng = np.random.default_rng(spec.seed + 99)
    return SpmmWorkload(
        spec=spec,
        vector_length=v,
        dense8=dense8,
        dense4=dense4,
        srbcrs16=dense_to_srbcrs(dense8, v, 16),
        srbcrs32=dense_to_srbcrs(dense4, v, 32),
        bcrs=dense_to_bcrs(dense8, v),
        bell_dense=generate_blocked_ell(spec, block_size=8),
        rhs8=rng.integers(-128, 128, size=(spec.cols, n)),
        rhs4=rng.integers(-8, 8, size=(spec.cols, n)),
    )


# ---------------------------------------------------------------------------
# per-library timed runs (seconds on the modelled A100)


def magicube_spmm_stats(
    w: SpmmWorkload, l_bits: int, r_bits: int, **cfg
) -> KernelStats:
    """The Magicube SpMM's accounting on ``w``, priced without running
    the product (the stats depend only on the operands' shapes and
    layout, which are validated as a launch would)."""
    kern = MagicubeSpMM(SpMMConfig(l_bits=l_bits, r_bits=r_bits, **cfg))
    lhs = w.srbcrs16 if kern.required_stride == 16 else w.srbcrs32
    rhs = w.rhs8 if r_bits >= 8 else w.rhs4
    kern._validate(lhs, rhs)
    return kern._stats(lhs, rhs.shape[1])


def time_magicube_spmm(
    w: SpmmWorkload, l_bits: int, r_bits: int, device: str = "A100", **cfg
) -> float:
    stats = magicube_spmm_stats(w, l_bits, r_bits, **cfg)
    return cost_model_for("magicube", device).time(stats)


def tops_magicube_spmm(
    w: SpmmWorkload, l_bits: int, r_bits: int, device: str = "A100", **cfg
) -> float:
    stats = magicube_spmm_stats(w, l_bits, r_bits, **cfg)
    return cost_model_for("magicube", device).tops(stats)


def time_cublas(w: SpmmWorkload, precision: str, device: str = "A100") -> float:
    gemm = CublasGemm(precision)
    a = w.dense8.astype(np.float32) if precision == "fp16" else w.dense8
    b = w.rhs8.astype(np.float32) if precision == "fp16" else w.rhs8
    stats = gemm(a, b).stats
    return cost_model_for(gemm.library_profile, device).time(stats)


def time_cusparse_bell(w: SpmmWorkload, precision: str, device: str = "A100") -> float:
    ell = dense_to_blocked_ell(w.bell_dense, 8)
    kern = CusparseBlockedEllSpMM(precision)
    rhs = w.rhs8.astype(np.float32) if precision == "fp16" else w.rhs8
    stats = kern(ell, rhs).stats
    return cost_model_for(kern.library_profile, device).time(stats)


def time_vectorsparse_spmm(w: SpmmWorkload, device: str = "A100") -> float:
    kern = VectorSparseSpMM()
    stats = kern(w.bcrs, w.rhs8.astype(np.float32)).stats
    return cost_model_for(kern.library_profile, device).time(stats)


# ---------------------------------------------------------------------------
# SDDMM workloads


@dataclass
class SddmmWorkload:
    """Operands for one SDDMM comparison point."""

    spec: MatrixSpec
    vector_length: int
    a8: np.ndarray
    b8: np.ndarray
    a16: np.ndarray
    b16: np.ndarray
    a4: np.ndarray
    b4: np.ndarray
    mask: BCRSMatrix

    @property
    def k(self) -> int:
        return self.a8.shape[1]


def build_sddmm_workload(spec: MatrixSpec, v: int, k: int) -> SddmmWorkload:
    """SDDMM point: dense A (M x K), B (K x N), mask from the spec."""
    pattern = generate_matrix(spec, v, bits=2)
    mask = dense_to_bcrs((pattern != 0).astype(np.int32), v)
    rng = np.random.default_rng(spec.seed + 7)
    m, n = spec.rows, spec.cols
    return SddmmWorkload(
        spec=spec,
        vector_length=v,
        a8=rng.integers(-128, 128, size=(m, k)),
        b8=rng.integers(-128, 128, size=(k, n)),
        a16=rng.integers(-(1 << 15), 1 << 15, size=(m, k)),
        b16=rng.integers(-(1 << 15), 1 << 15, size=(k, n)),
        a4=rng.integers(-8, 8, size=(m, k)),
        b4=rng.integers(-8, 8, size=(k, n)),
        mask=mask,
    )


def magicube_sddmm_stats(
    w: SddmmWorkload, l_bits: int, r_bits: int, **cfg
) -> KernelStats:
    """The Magicube SDDMM's accounting on ``w``, priced without running
    the sampled product (validated as a launch would)."""
    kern = MagicubeSDDMM(SDDMMConfig(l_bits=l_bits, r_bits=r_bits, **cfg))
    a, b = {16: (w.a16, w.b16), 8: (w.a8, w.b8), 4: (w.a4, w.b4)}[l_bits]
    kern._validate(a, b, w.mask)
    return kern._stats(a.shape, b.shape, w.mask)


def time_magicube_sddmm(
    w: SddmmWorkload, l_bits: int, r_bits: int, device: str = "A100", **cfg
) -> float:
    stats = magicube_sddmm_stats(w, l_bits, r_bits, **cfg)
    return cost_model_for("magicube", device).time(stats)


def tops_magicube_sddmm(
    w: SddmmWorkload, l_bits: int, r_bits: int, device: str = "A100", **cfg
) -> float:
    stats = magicube_sddmm_stats(w, l_bits, r_bits, **cfg)
    return cost_model_for("magicube", device).tops(stats)


def time_cublas_sddmm_dense(w: SddmmWorkload, precision: str, device: str = "A100") -> float:
    """Dense baseline for SDDMM: the full A @ B GEMM."""
    gemm = CublasGemm(precision)
    stats = gemm._account(w.a8.shape, w.b8.shape)
    return cost_model_for(gemm.library_profile, device).time(stats)


def time_vectorsparse_sddmm(w: SddmmWorkload, device: str = "A100") -> float:
    kern = VectorSparseSDDMM()
    stats = kern(
        w.a8.astype(np.float32), w.b8.astype(np.float32), w.mask
    ).stats
    return cost_model_for(kern.library_profile, device).time(stats)

"""Comparator libraries exposed as registered execution backends.

Each backend wraps one :mod:`repro.baselines` kernel family behind the
:class:`~repro.runtime.backend.Backend` protocol, carrying its Table I
capability row and its calibrated cost model. Fallback priorities
follow the paper's performance ordering at the evaluation shapes, so
the registry's resolution chain degrades sensibly: a device without
integer Tensor cores (V100) falls back from Magicube to vectorSparse,
a precision no sparse library carries falls back to dense cuBLAS.

The fp16-path backends that have a synthetic-topology accounting
(vectorSparse, Sputnik, scalar CSR, dense cuBLAS) also implement the
planning hook, which lets the serving planner's cross-backend search
discover e.g. that dense GEMM beats every sparse kernel below the
paper's ~0.7 sparsity crossover.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.cublas import CublasGemm
from repro.baselines.cusparse import CusparseBlockedEllSpMM, CusparseCsrSpMM
from repro.baselines.cusparselt import CusparseLt24Gemm
from repro.baselines.sputnik import SputnikSpMM
from repro.baselines.vector_sparse import VectorSparseSDDMM, VectorSparseSpMM
from repro.errors import ConfigError
from repro.runtime.backend import (
    Backend,
    BackendCapabilities,
    Candidate,
    ExecutionResult,
    Problem,
)
from repro.runtime.device import Device


def _dense_of(operand) -> np.ndarray:
    """Dense view of an operand (SparseMatrix / format object / array)."""
    if hasattr(operand, "to_dense"):
        return operand.to_dense()
    return np.asarray(operand)


def _bcrs_of(operand):
    """BCRS view of a SparseMatrix-like operand, or the operand itself."""
    return operand.bcrs if hasattr(operand, "bcrs") else operand


class _BaselineBackend(Backend):
    """Shared glue: result assembly against the calibrated cost model."""

    def _result(self, device: Device, res) -> ExecutionResult:
        cm = self.cost(device)
        return ExecutionResult(
            output=res.output,
            stats=res.stats,
            time_s=cm.time(res.stats),
            tops=cm.tops(res.stats),
        )

    def _reject_op(self, op: str):
        raise ConfigError(f"backend {self.name!r} has no op {op!r}")


class VectorSparseBackend(_BaselineBackend):
    """vectorSparse (SC'21): BCRS fp16 SpMM/SDDMM on Tensor cores."""

    name = "vector-sparse"
    priority = 40
    library_profile = "vector_sparse"

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            ops=("spmm", "sddmm"),
            precisions=("fp16",),
            granularity="1-D block",
            dl_friendly=True,
            tensor_cores=True,
        )

    def prepare(self, operand, op="spmm", config=None):
        return _bcrs_of(operand)

    def execute(self, op, device, config=None, **operands) -> ExecutionResult:
        dev = Device.resolve(device)
        if op == "spmm":
            lhs = self.prepare(operands["lhs"], op)
            return self._result(dev, VectorSparseSpMM()(lhs, operands["rhs"]))
        if op == "sddmm":
            mask = self.prepare(operands["mask"], op)
            res = VectorSparseSDDMM()(operands["a"], operands["b"], mask)
            return self._result(dev, res)
        self._reject_op(op)

    def plan_candidates(self, problem: Problem, device, admits=None):
        from repro.serve.topology import UniformBCRSMask

        if admits is not None and not admits(16, 16):
            return []
        dev = Device.resolve(device)
        cm = self.cost(dev)
        mask = UniformBCRSMask(
            problem.rows, problem.cols, problem.vector_length, problem.sparsity
        )
        if problem.op == "spmm":
            stats = VectorSparseSpMM()._account(mask, problem.inner)
        else:
            stats = VectorSparseSDDMM()._account(
                (problem.rows, problem.inner),
                (problem.inner, problem.cols),
                mask,
            )
        return [Candidate("fp16", 16, 16, {}, cm.time(stats))]


class _CsrBackend(_BaselineBackend):
    """Shared body of the scalar-CSR SpMM libraries on CUDA cores.

    Subclasses name their ``kernel`` class; conversion, execution and
    the planning hook (whose candidate carries the kernel's precision)
    are identical.
    """

    kernel: type

    def prepare(self, operand, op="spmm", config=None):
        from repro.formats.csr import CSRMatrix

        if isinstance(operand, CSRMatrix):
            return operand
        return CSRMatrix.from_dense(_dense_of(operand))

    def execute(self, op, device, config=None, **operands) -> ExecutionResult:
        if op != "spmm":
            self._reject_op(op)
        dev = Device.resolve(device)
        lhs = self.prepare(operands["lhs"], op)
        return self._result(dev, self.kernel()(lhs, operands["rhs"]))

    def plan_candidates(self, problem: Problem, device, admits=None):
        from repro.serve.topology import UniformBCRSMask

        if problem.op != "spmm" or (admits is not None and not admits(16, 16)):
            return []
        dev = Device.resolve(device)
        topo = UniformBCRSMask(
            problem.rows, problem.cols, problem.vector_length, problem.sparsity
        )
        kern = self.kernel()
        stats = kern._account(topo, problem.inner)
        return [Candidate(kern.precision, 16, 16, {}, self.cost(dev).time(stats))]


class SputnikBackend(_CsrBackend):
    """Sputnik (SC'20): fine-grained CSR SpMM on CUDA cores."""

    name = "sputnik"
    priority = 75
    library_profile = "sputnik"
    kernel = SputnikSpMM

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            ops=("spmm",),
            precisions=("fp32_cuda", "fp16_cuda"),
            granularity="fine-grained",
            dl_friendly=True,
            tensor_cores=False,
        )


class CusparseCsrBackend(_CsrBackend):
    """cuSPARSE scalar-CSR SpMM (CUDA cores, fp16 storage)."""

    name = "cusparse-csr"
    priority = 80
    library_profile = "cusparse_csr"
    kernel = CusparseCsrSpMM

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            ops=("spmm",),
            precisions=("fp16_cuda",),
            granularity="fine-grained",
            dl_friendly=False,
            tensor_cores=False,
        )


class CusparseBlockedEllBackend(_BaselineBackend):
    """cuSPARSE Blocked-ELL SpMM on Tensor cores (fp16/int8)."""

    name = "cusparse-blocked-ell"
    priority = 70
    library_profile = "cusparse_blocked_ell"

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            ops=("spmm",),
            precisions=("fp16", "int8"),
            granularity="block",
            dl_friendly=False,
            tensor_cores=True,
        )

    def execute(self, op, device, config=None, **operands) -> ExecutionResult:
        if op != "spmm":
            self._reject_op(op)
        dev = Device.resolve(device)
        precision = operands.get("precision", "fp16")
        kern = CusparseBlockedEllSpMM(precision)
        return self._result(dev, kern(operands["lhs"], operands["rhs"]))


class CublasFp16Backend(_BaselineBackend):
    """Dense cublasHgemm — the paper's normalization baseline.

    Dense GEMM ignores sparsity entirely, which is exactly why its plan
    candidate wins below the sparsity crossover: the planner's
    cross-backend search reproduces the paper's "sparse beats dense
    above ~0.7" boundary per shape.
    """

    name = "cublas-fp16"
    priority = 60
    library_profile = "cublas_fp16"
    precision = "fp16"
    fidelity = (16, 16)

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            ops=("spmm",),
            precisions=(self.precision,),
            granularity="dense",
            dl_friendly=True,
            tensor_cores=True,
        )

    def prepare(self, operand, op="spmm", config=None):
        return _dense_of(operand)

    def execute(self, op, device, config=None, **operands) -> ExecutionResult:
        if op != "spmm":
            self._reject_op(op)
        dev = Device.resolve(device)
        gemm = CublasGemm(self.precision)
        return self._result(dev, gemm(self.prepare(operands["lhs"]), operands["rhs"]))

    def plan_candidates(self, problem: Problem, device, admits=None):
        l_bits, r_bits = self.fidelity
        if problem.op != "spmm" or (
            admits is not None and not admits(l_bits, r_bits)
        ):
            return []
        dev = Device.resolve(device)
        stats = CublasGemm(self.precision)._account(
            (problem.rows, problem.cols), (problem.cols, problem.inner)
        )
        return [
            Candidate(
                self.precision, l_bits, r_bits, {}, self.cost(dev).time(stats)
            )
        ]


class CublasInt8Backend(CublasFp16Backend):
    """Dense int8 IMMA GEMM (the paper's "worse than fp16" baseline)."""

    name = "cublas-int8"
    priority = 61
    library_profile = "cublas_int8"
    precision = "int8"
    fidelity = (8, 8)


class CusparseLtBackend(_BaselineBackend):
    """cuSPARSELt 2:4 structured-sparsity GEMM.

    Not plannable: its fixed 50% 2:4 pattern does not apply to the
    planner's V x 1 block topologies.
    """

    name = "cusparselt"
    priority = 50
    library_profile = "cusparselt"

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            ops=("spmm",),
            precisions=("fp16", "int8", "int4"),
            granularity="2:4 structured",
            dl_friendly=True,
            tensor_cores=True,
        )

    def execute(self, op, device, config=None, **operands) -> ExecutionResult:
        if op != "spmm":
            self._reject_op(op)
        dev = Device.resolve(device)
        precision = operands.get("precision", "fp16")
        kern = CusparseLt24Gemm(precision)
        res = kern(_dense_of(operands["lhs"]), operands["rhs"])
        return self._result(dev, res)

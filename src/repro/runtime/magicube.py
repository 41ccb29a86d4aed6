"""Magicube execution backends: emulation (oracle) and strict (bit-level).

Both wrap the :mod:`repro.kernels` SpMM/SDDMM implementations behind the
:class:`~repro.runtime.backend.Backend` protocol, and a backend's kernel
classes are the only switch on how a launch computes.
``magicube-emulation`` runs ``MagicubeSpMM`` / ``MagicubeSDDMM``, strip
by strip with integer matmuls (the oracle the default
``fastpath-vectorized`` backend is tested against); ``magicube-strict``
runs ``StrictSpMM`` / ``StrictSDDMM``, which route every strip through
the digit-decomposition algebra (orders of magnitude slower; the ground
truth the fast path is tested against). Their *cost accounting is
identical* — both model the same CUDA kernel — so the strict backend
shares the emulation backend's planning hook.

Device admission follows Table II: an ``Lx-Ry`` pair is admissible only
where the device has a peak rate for the pair's native MMA width
(``int8`` / ``int4``) — e.g. L4-R4 plans exist on A100 but not on H100
or MI250X, which lack int4 Tensor-core paths.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.formats.bcrs import BCRSMatrix
from repro.formats.srbcrs import SRBCRSMatrix
from repro.kernels.emulation import plan_for, supported_pairs
from repro.kernels.sddmm import MagicubeSDDMM, SDDMMConfig, StrictSDDMM
from repro.kernels.softmax import SoftmaxResult, sparse_softmax_quantized
from repro.kernels.spmm import MagicubeSpMM, SpMMConfig, StrictSpMM
from repro.runtime.backend import (
    Backend,
    BackendCapabilities,
    Candidate,
    ExecutionResult,
    Problem,
)
from repro.runtime.device import Device

#: SpMM RHS tile widths searched by the planning hook (SpMMConfig range)
BSN_CANDIDATES = (32, 64, 96, 128)
#: SDDMM warps-per-block searched (each warp owns 8 output columns)
WARP_CANDIDATES = (2, 4, 8)
#: tensor-parallel widths the planning hook prices alongside the
#: single-device point (1 = unsharded). The sharded variants split the
#: contraction dimension and pay a ring all-reduce on the output
#: (:func:`repro.transformer.distributed.allreduce_time`), so the 12 us
#: collective floor keeps small problems on one device and only
#: genuinely bandwidth-bound shapes elect a ``{"tp": g}`` plan.
TP_CANDIDATES = (1, 2, 4)


def _pair_labels() -> tuple[str, ...]:
    labels = {f"L{l}-R{r}" for op in ("spmm", "sddmm") for l, r in supported_pairs(op)}
    return tuple(sorted(labels))


class MagicubeEmulationBackend(Backend):
    """The Magicube kernels with vectorized (emulated) strip execution.

    ``spmm_kernel`` / ``sddmm_kernel`` are class attributes (and
    :meth:`softmax` a method) so subclasses (``magicube-strict``, the
    :mod:`repro.fastpath` backend) swap the arithmetic implementation
    while inheriting the whole protocol surface — capabilities, device
    admission, cost accounting and the planning hook stay identical by
    construction.
    """

    name = "magicube-emulation"
    priority = 10
    library_profile = "magicube"
    spmm_kernel: type[MagicubeSpMM] = MagicubeSpMM
    sddmm_kernel: type[MagicubeSDDMM] = MagicubeSDDMM

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            ops=("spmm", "sddmm"),
            precisions=("int8", "int4"),
            pairs=_pair_labels(),
            granularity="1-D block",
            mixed_precision=True,
            dl_friendly=True,
            tensor_cores=True,
        )

    def _supports_pair(self, device: Device, pair: str, op: str | None) -> bool:
        l_bits, r_bits = (int(p[1:]) for p in pair.split("-"))
        for table_op in (op,) if op else ("spmm", "sddmm"):
            if (l_bits, r_bits) in supported_pairs(table_op):
                plan = plan_for(l_bits, r_bits, op=table_op)
                if device.supports(f"int{plan.native_bits}"):
                    return True
        return False

    # -- execution ------------------------------------------------------
    def softmax(self, scores, scale, out_bits: int = 8) -> SoftmaxResult:
        """The fused quantized softmax between this backend's SDDMM and
        SpMM in the Fig. 16 attention pipeline (grouped scores too)."""
        return sparse_softmax_quantized(scores, scale, out_bits)

    def prepare(
        self, operand: object, op: str = "spmm", config: object | None = None
    ) -> object:
        """SR-BCRS at the config's stride for SpMM; BCRS for SDDMM."""
        if op == "spmm":
            cfg = config if isinstance(config, SpMMConfig) else SpMMConfig()
            stride = self.spmm_kernel(cfg).required_stride
            if hasattr(operand, "srbcrs_for"):
                return operand.srbcrs_for(stride)
            return operand
        if hasattr(operand, "bcrs"):
            return operand.bcrs
        return operand

    def execute(
        self,
        op: str,
        device: Device | str,
        config: object | None = None,
        **operands,
    ) -> ExecutionResult:
        dev = Device.resolve(device)
        if op == "spmm":
            return self._execute_spmm(dev, config, **operands)
        if op == "sddmm":
            return self._execute_sddmm(dev, config, **operands)
        raise ConfigError(f"backend {self.name!r} has no op {op!r}")

    def _execute_spmm(
        self,
        device: Device,
        config: SpMMConfig | None,
        lhs=None,
        rhs=None,
        scale=None,
        **_,
    ) -> ExecutionResult:
        kern = self.spmm_kernel(config if config is not None else SpMMConfig())
        prepared = self.prepare(lhs, op="spmm", config=kern.config)
        if not isinstance(prepared, SRBCRSMatrix) and not hasattr(prepared, "stride"):
            raise ShapeError("spmm lhs must be a SparseMatrix or SRBCRSMatrix")
        res = kern(prepared, rhs, scale=scale)
        cm = self.cost(device, op="spmm")
        output = res.dequantized if res.dequantized is not None else res.output
        return ExecutionResult(
            output=output,
            stats=res.stats,
            time_s=cm.time(res.stats),
            tops=cm.tops(res.stats),
        )

    def _execute_sddmm(
        self,
        device: Device,
        config: SDDMMConfig | None,
        a=None,
        b=None,
        mask=None,
        **_,
    ) -> ExecutionResult:
        kern = self.sddmm_kernel(config if config is not None else SDDMMConfig())
        topo = self.prepare(mask, op="sddmm", config=kern.config)
        if not isinstance(topo, BCRSMatrix):
            raise ShapeError("sddmm mask must be a SparseMatrix or BCRSMatrix")
        res = kern(np.asarray(a), np.asarray(b), topo)
        cm = self.cost(device, op="sddmm")
        return ExecutionResult(
            output=res.output,
            stats=res.stats,
            time_s=cm.time(res.stats),
            tops=cm.tops(res.stats),
        )

    # -- planning hook --------------------------------------------------
    def plan_candidates(
        self, problem: Problem, device: Device | str, admits=None
    ) -> list[Candidate]:
        # imported here: repro.serve.topology is a leaf module shared
        # with the Fig. 17 latency model, and transformer.distributed
        # would cycle back through the registry at module import time
        from repro.serve.topology import UniformBCRSMask, UniformSRBCRS
        from repro.transformer.distributed import (
            NVLINK_BANDWIDTH_GBS,
            allreduce_time,
        )

        dev = Device.resolve(device)
        cm = self.cost(dev, op=problem.op)
        candidates: list[Candidate] = []
        for l_bits, r_bits in supported_pairs(problem.op):
            if admits is not None and not admits(l_bits, r_bits):
                continue
            plan = plan_for(l_bits, r_bits, op=problem.op)
            if not dev.supports(f"int{plan.native_bits}"):
                continue
            if problem.op == "spmm":
                best = None
                for bsn in BSN_CANDIDATES:
                    kern = self.spmm_kernel(
                        SpMMConfig(l_bits=l_bits, r_bits=r_bits, bsn=bsn)
                    )
                    for tp in TP_CANDIDATES:
                        # row-parallel shard: the sparse operand's
                        # columns (the contraction dim) split g ways,
                        # partial outputs all-reduce back together
                        if tp > 1 and problem.cols % (tp * problem.vector_length):
                            continue
                        sr = UniformSRBCRS(
                            problem.rows,
                            problem.cols // tp,
                            problem.vector_length,
                            problem.sparsity,
                            kern.required_stride,
                        )
                        t = cm.time(kern._account(sr, problem.inner))
                        if tp > 1:
                            out_bytes = problem.rows * problem.inner * 2
                            t += allreduce_time(
                                out_bytes, tp, NVLINK_BANDWIDTH_GBS
                            )
                        if best is None or t < best.time_s:
                            config = {"bsn": bsn}
                            if tp > 1:
                                config["tp"] = tp
                            best = Candidate(
                                f"L{l_bits}-R{r_bits}", l_bits, r_bits,
                                config, t,
                            )
                candidates.append(best)
            else:
                mask = UniformBCRSMask(
                    problem.rows,
                    problem.cols,
                    problem.vector_length,
                    problem.sparsity,
                )
                # the sampled output is sparse: only the surviving
                # entries cross NVLink in the sharded variants
                nnz = problem.rows * problem.cols * (1.0 - problem.sparsity)
                best = None
                for warps in WARP_CANDIDATES:
                    kern = self.sddmm_kernel(
                        SDDMMConfig(l_bits=l_bits, r_bits=r_bits, warps=warps)
                    )
                    for tp in TP_CANDIDATES:
                        # shard the dense contraction dim; partial
                        # sampled products all-reduce at the mask
                        if tp > 1 and problem.inner % tp:
                            continue
                        stats = kern._account(
                            (problem.rows, problem.inner // tp),
                            (problem.inner // tp, problem.cols),
                            mask,
                        )
                        t = cm.time(stats)
                        if tp > 1:
                            t += allreduce_time(
                                int(nnz * 2), tp, NVLINK_BANDWIDTH_GBS
                            )
                        if best is None or t < best.time_s:
                            config = {"warps": warps}
                            if tp > 1:
                                config["tp"] = tp
                            best = Candidate(
                                f"L{l_bits}-R{r_bits}", l_bits, r_bits,
                                config, t,
                            )
                candidates.append(best)
        return candidates


class MagicubeStrictBackend(MagicubeEmulationBackend):
    """Digit-decomposition execution (verification path).

    Same accounting, same plans — its kernels compute every strip
    through the digit-decomposition algebra instead of a direct matmul.
    Registered at low priority so it is only chosen when pinned.
    """

    name = "magicube-strict"
    priority = 90
    spmm_kernel = StrictSpMM
    sddmm_kernel = StrictSDDMM

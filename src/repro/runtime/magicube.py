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

from functools import lru_cache
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.formats.bcrs import BCRSMatrix
from repro.formats.srbcrs import SRBCRSMatrix
from repro.gpu.mma import mma_shape_for
from repro.kernels.emulation import EmulationPlan, plan_for, supported_pairs
from repro.kernels.sddmm import MagicubeSDDMM, SDDMMConfig, StrictSDDMM, sddmm_counts
from repro.kernels.softmax import SoftmaxResult, sparse_softmax_quantized
from repro.kernels.spmm import MagicubeSpMM, SpMMConfig, StrictSpMM, spmm_counts
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


#: what every Magicube backend implements (built once: ``supports`` reads
#: it on every request's backend resolution)
CAPABILITIES = BackendCapabilities(
    ops=("spmm", "sddmm"),
    precisions=("int8", "int4"),
    pairs=tuple(sorted({
        f"L{l}-R{r}" for op in ("spmm", "sddmm") for l, r in supported_pairs(op)
    })),
    granularity="1-D block",
    mixed_precision=True,
    dl_friendly=True,
    tensor_cores=True,
)


class CandidateGrid(NamedTuple):
    """Modelled seconds of every (pair x knob) launch for one problem."""

    #: the admitted Table-IV pairs, in ``supported_pairs`` order
    plans: tuple[EmulationPlan, ...]
    #: the tile knob (``"bsn"`` or ``"warps"``) and the values searched
    knob: str
    values: tuple[int, ...]
    #: ``(len(plans), len(values))`` float64 seconds
    times: np.ndarray


def _frozen(values) -> np.ndarray:
    """A read-only array: grid axes are shared by every pricing call."""
    array = np.array(values)
    array.flags.writeable = False
    return array


#: the knob axis of each op's candidate grid: the knob, its values, and
#: the default kernel config with that knob as a ``(K,)`` array
_KNOB_AXES = {
    "spmm": ("bsn", BSN_CANDIDATES, SimpleNamespace(
        **{**vars(SpMMConfig()), "bsn": _frozen(BSN_CANDIDATES)}
    )),
    "sddmm": ("warps", WARP_CANDIDATES, SimpleNamespace(
        **{**vars(SDDMMConfig()), "warps": _frozen(WARP_CANDIDATES)}
    )),
}


def _columns(items, *names) -> SimpleNamespace:
    """One read-only ``(len(items), 1)`` array per attribute."""
    return SimpleNamespace(**{
        name: _frozen([[getattr(item, name)] for item in items]) for name in names
    })


#: ``rows x cols x inner`` below which every count of a candidate grid
#: fits int64 (the largest, MMA ops, stays under 2^18 times it)
_INT64_EXACT_BELOW = 2**44


def _as_objects(columns: SimpleNamespace) -> SimpleNamespace:
    """``columns`` with every array as Python ints (``dtype=object``)."""
    return SimpleNamespace(**{
        name: value.astype(object) if isinstance(value, np.ndarray) else value
        for name, value in vars(columns).items()
    })


@lru_cache(maxsize=None)
def _pair_axis(plans: tuple) -> tuple[SimpleNamespace, SimpleNamespace]:
    """The pair axis of a candidate grid: the plans' attributes and their
    MMA shapes as ``(P, 1)`` columns (a handful of distinct pair sets)."""
    return (
        _columns(plans, "l_bits", "r_bits", "native_bits", "products"),
        _columns([mma_shape_for(plan.native_bits) for plan in plans], "k", "ops"),
    )


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
        return CAPABILITIES

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
    def price_grid(
        self, problem: Problem, device: Device | str, admits=None
    ) -> CandidateGrid:
        """Modelled time of every admitted (Table-IV pair x knob) launch.

        The knob is ``BSn`` for SpMM and warps per block for SDDMM. The
        whole grid is counted and priced in one NumPy pass through the
        same :func:`~repro.kernels.spmm.spmm_counts` /
        :func:`~repro.kernels.sddmm.sddmm_counts` and cost formulas a
        launch's accounting runs, so ``times[i, j]`` equals
        ``cost.time(kernel._account(...))`` of that launch to the bit.
        """
        # imported here: repro.serve.topology is a leaf module shared
        # with the Fig. 17 latency model
        from repro.serve.topology import UniformBCRSMask, UniformSRBCRS

        dev = Device.resolve(device)
        knob, values, knobs = _KNOB_AXES[problem.op]
        admitted = []
        for l_bits, r_bits in supported_pairs(problem.op):
            if admits is not None and not admits(l_bits, r_bits):
                continue
            plan = plan_for(l_bits, r_bits, op=problem.op)
            if dev.supports(f"int{plan.native_bits}"):
                admitted.append(plan)
        plans = tuple(admitted)
        if not plans:
            return CandidateGrid(plans, knob, values, np.empty((0, len(values))))
        pairs, shapes = _pair_axis(plans)
        rows, cols, v = problem.rows, problem.cols, problem.vector_length
        if rows * cols * problem.inner >= _INT64_EXACT_BELOW:
            # counts reach ~2^18 x rows x cols x inner: past int64, count
            # on Python ints (object arrays) — slower, still exact
            pairs, shapes, knobs = map(_as_objects, (pairs, shapes, knobs))
        if problem.op == "spmm":
            topology = UniformSRBCRS(rows, cols, v, problem.sparsity, shapes.k)
            counts = spmm_counts(knobs, pairs, shapes, topology, problem.inner)
        else:
            mask = UniformBCRSMask(rows, cols, v, problem.sparsity)
            counts = sddmm_counts(
                knobs, pairs, shapes, (rows, problem.inner), (problem.inner, cols), mask
            )
        times = self.cost(dev, op=problem.op).launch_time(counts)
        return CandidateGrid(plans, knob, values, times)

    def plan_candidates(
        self, problem: Problem, device: Device | str, admits=None
    ) -> list[Candidate]:
        """One candidate per admitted pair of :meth:`price_grid`, at the
        first knob of minimal time."""
        grid = self.price_grid(problem, device, admits)
        knob, values, times = grid.knob, grid.values, grid.times
        return [
            Candidate(
                plan.name, plan.l_bits, plan.r_bits, {knob: values[j]}, float(times[i, j])
            )
            for i, (plan, j) in enumerate(zip(grid.plans, times.argmin(axis=1)))
        ]


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

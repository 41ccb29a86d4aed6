"""The fastpath backend on the runtime registry: default, priority, protocol."""

import itertools

import numpy as np
import pytest

from repro.dlmc.generator import MatrixSpec, generate_matrix
from repro.core.matrix import SparseMatrix
from repro.kernels.spmm import SpMMConfig
from repro.runtime import (
    DEFAULT_BACKEND,
    Problem,
    REGISTRY,
    get_backend,
    resolve_backend,
)


@pytest.fixture(scope="module")
def spmm_operands():
    spec = MatrixSpec("transformer", 64, 64, sparsity=0.8, seed=4)
    dense = generate_matrix(spec, vector_length=4, bits=8)
    lhs = SparseMatrix.from_dense(dense, vector_length=4, precision="L8-R8")
    rng = np.random.default_rng(4)
    return lhs, rng.integers(-128, 128, size=(64, 32), dtype=np.int64)


class TestRegistration:
    def test_fastpath_vectorized_is_registered(self):
        be = get_backend("fastpath-vectorized")
        assert be.name == "fastpath-vectorized"
        assert be.priority == 15

    def test_default_backend_is_fastpath(self):
        # the default is named, not chosen by priority: resolving with
        # no backend serves on the fastpath
        assert DEFAULT_BACKEND == "fastpath-vectorized"
        assert resolve_backend(None, op="spmm").name == "fastpath-vectorized"
        assert resolve_backend(None, op="sddmm").name == "fastpath-vectorized"

    def test_priority_order(self):
        # the emulation oracle still leads the fallback chain
        names = [b.name for b in REGISTRY.backends()]
        assert names.index("magicube-emulation") < names.index(
            "fastpath-vectorized"
        )


class TestProtocolSurface:
    def test_capabilities_match_emulation(self):
        emu = get_backend("magicube-emulation").capabilities()
        fast = get_backend("fastpath-vectorized").capabilities()
        assert emu == fast

    def test_plan_candidates_match_emulation(self):
        problem = Problem(
            op="spmm", rows=128, cols=256, inner=64, vector_length=4,
            sparsity=0.9,
        )
        emu = get_backend("magicube-emulation").plan_candidates(problem, "A100")
        fast = get_backend("fastpath-vectorized").plan_candidates(
            problem, "A100"
        )
        assert [(c.precision, c.config, c.time_s) for c in emu] == [
            (c.precision, c.config, c.time_s) for c in fast
        ]

    def test_execute_matches_emulation(self, spmm_operands):
        lhs, rhs = spmm_operands
        cfg = SpMMConfig(l_bits=8, r_bits=8)
        emu = get_backend("magicube-emulation").execute(
            "spmm", "A100", config=cfg, lhs=lhs, rhs=rhs
        )
        fast = get_backend("fastpath-vectorized").execute(
            "spmm", "A100", config=cfg, lhs=lhs, rhs=rhs
        )
        np.testing.assert_array_equal(emu.output, fast.output)
        # identical accounting -> identical modelled time
        assert emu.time_s == fast.time_s

    def test_cost_model_memoized_per_device(self):
        be = get_backend("fastpath-vectorized")
        assert be.cost("A100") is be.cost("A100")
        assert be.cost("A100") is not be.cost("H100")


#: (rows, cols) x V x sparsity, with SpMM N / SDDMM K per shape; the
#: SpMM N values are not all multiples of BSn (48 < 64, 100)
GRID_SHAPES = ((64, 128, 48, 32), (256, 512, 100, 64), (512, 256, 128, 128))
GRID_VS = (2, 4, 8)
GRID_SPARSITIES = (0.0, 0.5, 0.9, 1.0)


def _launch_time(backend, device, op, l_bits, r_bits, knob, problem):
    """One launch's modelled time the way a served launch accounts it."""
    from repro.kernels.sddmm import SDDMMConfig
    from repro.serve.topology import UniformBCRSMask, UniformSRBCRS

    cm = backend.cost(device, op=op)
    rows, cols, v, s = (
        problem.rows, problem.cols, problem.vector_length, problem.sparsity
    )
    if op == "spmm":
        kern = backend.spmm_kernel(SpMMConfig(l_bits=l_bits, r_bits=r_bits, bsn=knob))
        topo = UniformSRBCRS(rows, cols, v, s, kern.required_stride)
        return cm.time(kern._account(topo, problem.inner))
    kern = backend.sddmm_kernel(
        SDDMMConfig(l_bits=l_bits, r_bits=r_bits, warps=knob)
    )
    mask = UniformBCRSMask(rows, cols, v, s)
    return cm.time(kern._account(
        (rows, problem.inner), (problem.inner, cols), mask
    ))


class TestGridPricing:
    """The planner prices a class's whole (pair x knob) grid in one pass;
    every entry must equal the per-launch accounting, to the bit."""

    @pytest.mark.parametrize("device", ["A100", "H100"])
    @pytest.mark.parametrize("op", ["spmm", "sddmm"])
    @pytest.mark.parametrize(
        "name", ["magicube-emulation", "magicube-strict", "fastpath-vectorized"]
    )
    def test_every_launch_priced_exactly(self, name, op, device):
        from repro.kernels.emulation import plan_for, supported_pairs
        from repro.runtime.magicube import BSN_CANDIDATES, WARP_CANDIDATES

        backend = get_backend(name)
        knobs = BSN_CANDIDATES if op == "spmm" else WARP_CANDIDATES
        # Table II: H100 has no int4 tensor-core path
        admitted = [
            (l, r) for l, r in supported_pairs(op)
            if device == "A100" or plan_for(l, r, op=op).native_bits == 8
        ]
        for (rows, cols, n, k), v, s in itertools.product(
            GRID_SHAPES, GRID_VS, GRID_SPARSITIES
        ):
            problem = Problem(op, rows, cols, n if op == "spmm" else k, v, s)
            grid = backend.price_grid(problem, device)
            assert [(p.l_bits, p.r_bits) for p in grid.plans] == admitted
            assert grid.values == knobs
            assert grid.times.shape == (len(admitted), len(knobs))
            candidates = backend.plan_candidates(problem, device)
            assert len(candidates) == len(admitted)
            for i, ((l_bits, r_bits), cand) in enumerate(zip(admitted, candidates)):
                times = {
                    knob: _launch_time(backend, device, op, l_bits, r_bits, knob, problem)
                    for knob in knobs
                }
                assert list(grid.times[i]) == list(times.values()), (problem, l_bits, r_bits)
                best = min(times, key=times.get)  # the first minimum
                assert (cand.precision, cand.l_bits, cand.r_bits) == (
                    f"L{l_bits}-R{r_bits}", l_bits, r_bits
                )
                assert cand.config == {grid.knob: best}
                assert cand.time_s == times[best]
                assert type(cand.time_s) is float

    @pytest.mark.parametrize("op", ["spmm", "sddmm"])
    def test_class_past_int64_counts_exactly(self, op):
        """MMA op counts of a 4K x 64M x 64M class overflow int64; the grid
        counts it on Python ints like a launch's accounting does."""
        backend = get_backend("magicube-emulation")
        problem = Problem(op, 2**12, 2**26, 2**26, 1, 0.0)
        grid = backend.price_grid(problem, "A100")
        for plan, row in zip(grid.plans, grid.times):
            assert list(row) == [
                _launch_time(
                    backend, "A100", op, plan.l_bits, plan.r_bits, knob, problem
                )
                for knob in grid.values
            ]

    def test_admits_filters_the_pair_axis(self):
        backend = get_backend("fastpath-vectorized")
        problem = Problem("spmm", 256, 256, 64, 8, 0.9)
        every = backend.plan_candidates(problem, "A100")
        wide = backend.plan_candidates(
            problem, "A100", admits=lambda l_bits, r_bits: r_bits >= 8
        )
        assert wide == [c for c in every if c.r_bits >= 8]
        assert backend.plan_candidates(
            problem, "A100", admits=lambda l_bits, r_bits: False
        ) == []

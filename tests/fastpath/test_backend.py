"""The fastpath backend on the runtime registry: default, priority, protocol."""

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

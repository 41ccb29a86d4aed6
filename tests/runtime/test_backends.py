"""Backend protocol conformance and execution parity."""

import numpy as np
import pytest

from repro import api
from repro.core.matrix import SparseMatrix
from repro.errors import ConfigError
from repro.gpu.timing import CostModel
from repro.kernels.spmm import SpMMConfig
from repro.runtime import Device, Problem, REGISTRY, get_backend
from tests.conftest import make_structured_sparse


@pytest.fixture
def weights(rng):
    return make_structured_sparse(rng, 64, 128, 8, 0.7, bits=8)


@pytest.fixture
def matrix(weights):
    return SparseMatrix.from_dense(weights, vector_length=8)


class TestProtocol:
    def test_every_builtin_answers_the_protocol(self):
        dev = Device.resolve("A100")
        for backend in REGISTRY.backends():
            caps = backend.capabilities()
            assert caps.ops and caps.precisions
            assert isinstance(backend.supports(dev, op=caps.ops[0]), bool)
            assert isinstance(backend.cost(dev, op=caps.ops[0]), CostModel)

    def test_capability_flags(self):
        caps = get_backend("magicube-emulation").capabilities()
        assert caps.int8 and caps.int4 and not caps.fp16
        assert caps.mixed_precision and caps.tensor_cores
        assert "L16-R4" in caps.pairs
        sput = get_backend("sputnik").capabilities()
        assert sput.fp16 and not sput.tensor_cores

    def test_plannable_flags(self):
        assert get_backend("magicube-emulation").plannable
        assert get_backend("vector-sparse").plannable
        assert get_backend("cublas-fp16").plannable
        assert not get_backend("cusparselt").plannable
        assert not get_backend("cusparse-blocked-ell").plannable

    def test_unknown_op_rejected(self, matrix, rng):
        with pytest.raises(ConfigError):
            get_backend("magicube-emulation").execute("conv", "A100")


class TestMagicubeExecution:
    def test_emulation_matches_reference(self, weights, matrix, rng):
        rhs = rng.integers(-128, 128, size=(128, 32))
        res = get_backend("magicube-emulation").execute(
            "spmm", "A100", config=SpMMConfig(l_bits=8, r_bits=8),
            lhs=matrix, rhs=rhs,
        )
        np.testing.assert_array_equal(res.output, weights.astype(np.int64) @ rhs)
        assert res.time_s > 0 and res.tops > 0

    def test_strict_matches_emulation(self, weights, matrix, rng):
        rhs = rng.integers(-8, 8, size=(128, 8))
        cfg = SpMMConfig(l_bits=8, r_bits=8)
        fast = get_backend("magicube-emulation").execute(
            "spmm", "A100", config=cfg, lhs=matrix, rhs=rhs
        )
        strict = get_backend("magicube-strict").execute(
            "spmm", "A100", config=cfg, lhs=matrix, rhs=rhs
        )
        np.testing.assert_array_equal(fast.output, strict.output)
        # identical accounting: both model the same CUDA kernel
        assert fast.time_s == strict.time_s

    def test_api_backend_kwarg_routes_strict(self, weights, matrix, rng):
        rhs = rng.integers(-8, 8, size=(128, 8))
        via_api = api.run(
            api.SpmmRequest(lhs=matrix, rhs=rhs, precision="L8-R8",
                            backend="magicube-strict")
        )
        np.testing.assert_array_equal(
            via_api.output, weights.astype(np.int64) @ rhs
        )

    def test_prepare_converts_to_required_stride(self, matrix):
        cfg = SpMMConfig(l_bits=4, r_bits=4)
        prepared = get_backend("magicube-emulation").prepare(
            matrix, op="spmm", config=cfg
        )
        assert prepared.stride == 32  # int4 MMA k dim


class TestBaselineExecution:
    def test_cublas_fp16(self, weights, rng):
        rhs = rng.integers(-4, 4, size=(128, 16))
        res = get_backend("cublas-fp16").execute(
            "spmm", "A100", lhs=weights, rhs=rhs
        )
        np.testing.assert_allclose(
            res.output, (weights @ rhs).astype(np.float32), rtol=1e-2
        )

    def test_vector_sparse_accepts_sparse_matrix(self, weights, matrix, rng):
        rhs = rng.integers(-4, 4, size=(128, 16))
        res = get_backend("vector-sparse").execute(
            "spmm", "A100", lhs=matrix, rhs=rhs
        )
        np.testing.assert_allclose(
            res.output, (weights @ rhs).astype(np.float32), rtol=1e-2
        )

    def test_sputnik_prepares_csr(self, weights, matrix, rng):
        rhs = rng.integers(-4, 4, size=(128, 16))
        res = get_backend("sputnik").execute("spmm", "A100", lhs=matrix, rhs=rhs)
        np.testing.assert_allclose(
            res.output, (weights @ rhs).astype(np.float32), rtol=1e-2
        )

    def test_csr_backends_run_and_price_their_own_kernel(self, matrix, rng):
        """Sputnik and cuSPARSE CSR share one body keyed by ``kernel``."""
        rhs = rng.integers(-4, 4, size=(128, 16))
        problem = Problem("spmm", 256, 512, 128, 8, 0.9)
        times = {}
        for name, precision in (("sputnik", "fp32"), ("cusparse-csr", "fp16")):
            be = get_backend(name)
            kern = be.kernel()
            res = be.execute("spmm", "A100", lhs=matrix, rhs=rhs)
            direct = kern(be.prepare(matrix), rhs)
            np.testing.assert_array_equal(res.output, direct.output)
            (cand,) = be.plan_candidates(problem, "A100")
            assert cand.precision == kern.precision == precision
            times[name] = cand.time_s
        assert times["sputnik"] != times["cusparse-csr"]

    def test_costs_differ_between_devices(self):
        problem = Problem("spmm", 256, 512, 128, 8, 0.9)
        be = get_backend("vector-sparse")
        a100 = be.plan_candidates(problem, "A100")[0].time_s
        h100 = be.plan_candidates(problem, "H100")[0].time_s
        assert h100 < a100  # H100's fp16 peak and bandwidth dominate

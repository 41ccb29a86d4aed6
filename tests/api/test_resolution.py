"""The shared resolution pipeline: requests in, Resolutions out."""

import numpy as np
import pytest

from repro import api
from repro.errors import ConfigError, DeviceError, ShapeError
from repro.kernels.sddmm import SDDMMConfig
from repro.kernels.spmm import SpMMConfig
from repro.runtime import DEFAULT_BACKEND
from repro.serve.planner import ExecutionPlanner, Objective
from tests.conftest import make_structured_sparse


@pytest.fixture
def matrix(rng):
    from repro.core.matrix import SparseMatrix

    return SparseMatrix.from_dense(
        make_structured_sparse(rng, 32, 64, 8, 0.7), vector_length=8
    )


class TestNormalize:
    def test_dense_lhs_is_prepared(self, rng):
        d = make_structured_sparse(rng, 32, 64, 8, 0.7)
        req = api.normalize(api.SpmmRequest(lhs=d, rhs=np.zeros((64, 8))))
        from repro.core.matrix import SparseMatrix

        assert isinstance(req.lhs, SparseMatrix)
        np.testing.assert_array_equal(req.lhs.to_dense(), d)

    def test_prepared_lhs_passes_through(self, matrix):
        req = api.normalize(api.SpmmRequest(lhs=matrix, rhs=np.zeros((64, 8))))
        assert req.lhs is matrix

    def test_rhs_shape_checked(self, matrix):
        with pytest.raises(ShapeError, match=r"RHS must be \(64, N\)"):
            api.normalize(api.SpmmRequest(lhs=matrix, rhs=np.zeros((8, 64))))

    def test_mask_type_checked(self):
        with pytest.raises(ShapeError, match="mask must be"):
            api.normalize(
                api.SddmmRequest(a=np.zeros((8, 8)), b=np.zeros((8, 8)),
                                 mask=np.zeros((8, 8)))
            )

    def test_attention_batch_checked(self):
        with pytest.raises(ConfigError, match="batch must be >= 1"):
            api.normalize(api.AttentionRequest(seq_len=128, batch=0))

    def test_prepare_only_request_allows_missing_rhs(self, matrix):
        req = api.normalize(api.SpmmRequest(lhs=matrix))
        assert req.rhs is None


class TestLayoutConversion:
    """SR-BCRS layouts convert lazily, only at the stride a plan uses."""

    @pytest.fixture
    def conversions(self, monkeypatch):
        import repro.core.matrix as matrix_mod

        strides = []
        real = matrix_mod.bcrs_to_srbcrs

        def counting(bcrs, stride):
            strides.append(stride)
            return real(bcrs, stride=stride)

        monkeypatch.setattr(matrix_mod, "bcrs_to_srbcrs", counting)
        return strides

    def test_sddmm_request_converts_nothing(self, rng, conversions):
        from repro.core.matrix import SparseMatrix

        keep = make_structured_sparse(rng, 32, 64, 8, 0.7) != 0
        mask = SparseMatrix.from_dense(keep.astype(np.int8), vector_length=8)
        a = rng.integers(-8, 8, size=(32, 32))
        b = rng.integers(-8, 8, size=(32, 64))
        r = api.run(api.SddmmRequest(mask=mask, a=a, b=b))
        np.testing.assert_array_equal(
            r.output.to_dense(), np.where(keep, a @ b, 0)
        )
        assert conversions == []

    def test_spmm_converts_once_at_planned_stride(self, rng, conversions):
        d = make_structured_sparse(rng, 32, 64, 8, 0.7, bits=4)
        rhs = rng.integers(-8, 8, size=(64, 16))
        planner = ExecutionPlanner(device="A100")
        r = api.run(api.SpmmRequest(lhs=d, rhs=rhs), planner=planner)
        assert r.precision == "L4-R4"  # int4 operands plan the int4 path
        np.testing.assert_array_equal(r.output, d @ rhs)
        assert conversions == [32]


class TestOneShotResolve:
    def test_default_resolution(self, matrix):
        res = api.resolve(api.SpmmRequest(lhs=matrix, rhs=np.zeros((64, 8))))
        assert res.op == "spmm"
        assert res.device.name == "A100"
        assert res.backend == DEFAULT_BACKEND
        assert res.precision == "L8-R8"
        assert res.plan is None
        assert isinstance(res.config, SpMMConfig)

    def test_precision_parses_into_config(self, matrix):
        res = api.resolve(
            api.SpmmRequest(lhs=matrix, rhs=np.zeros((64, 8)), precision="L16-R8")
        )
        assert (res.config.l_bits, res.config.r_bits) == (16, 8)
        assert res.precision == "L16-R8"

    def test_backend_pin(self, matrix):
        res = api.resolve(
            api.SpmmRequest(lhs=matrix, rhs=np.zeros((64, 8)),
                            backend="magicube-strict")
        )
        assert res.backend == "magicube-strict"

    def test_unknown_device_is_typed(self, matrix):
        with pytest.raises(DeviceError):
            api.resolve(
                api.SpmmRequest(lhs=matrix, rhs=np.zeros((64, 8))),
                device="TPU-v9",
            )

    def test_config_clash_spmm(self, matrix):
        rhs = np.zeros((64, 8))
        with pytest.raises(ConfigError, match="ambiguous"):
            api.resolve(api.SpmmRequest(lhs=matrix, rhs=rhs,
                                        config=SpMMConfig(), precision="L8-R8"))
        with pytest.raises(ConfigError, match="ambiguous"):
            api.resolve(api.SpmmRequest(lhs=matrix, rhs=rhs,
                                        config=SpMMConfig(), l_signed=False))
        with pytest.raises(ConfigError, match="ambiguous"):
            api.resolve(api.SpmmRequest(lhs=matrix, rhs=rhs,
                                        config=SpMMConfig(), knobs={"bsn": 32}))

    def test_config_clash_sddmm(self, matrix):
        a, b = np.zeros((32, 16)), np.zeros((16, 64))
        with pytest.raises(ConfigError, match="ambiguous"):
            api.resolve(api.SddmmRequest(a=a, b=b, mask=matrix,
                                         config=SDDMMConfig(),
                                         output_format="srbcrs"))

    def test_attention_requires_magicube_backend(self):
        with pytest.raises(ConfigError, match="cannot plan it"):
            api.resolve(api.AttentionRequest(seq_len=128, backend="sputnik"))

    def test_attention_default_backend(self):
        res = api.resolve(api.AttentionRequest(seq_len=128))
        assert res.backend == DEFAULT_BACKEND
        assert res.precision == "L8-R8"
        # a non-magicube engine default falls back rather than erroring
        res = api.resolve(api.AttentionRequest(seq_len=128), backend="sputnik")
        assert res.backend == DEFAULT_BACKEND


class TestPlannerResolve:
    def test_plan_lookup_memoizes(self, rng, matrix):
        planner = ExecutionPlanner(device="A100")
        rhs = rng.integers(-128, 128, size=(64, 16))
        req = api.SpmmRequest(lhs=matrix, rhs=rhs)
        res = api.resolve(req, planner=planner)
        assert res.plan is not None
        assert res.plan.key in planner.cache.keys()
        assert res.backend == res.plan.backend
        # second resolve hits the cache, same plan
        before = dict(planner.cache.stats())
        res2 = api.resolve(req, planner=planner)
        assert res2.plan.key == res.plan.key
        assert planner.cache.stats()["hits"] == before["hits"] + 1

    def test_operand_widths_bound_the_search(self, rng, matrix):
        planner = ExecutionPlanner(device="A100")
        rhs = rng.integers(-8, 8, size=(64, 16))  # int4-range RHS
        res = api.resolve(
            api.SpmmRequest(lhs=matrix, rhs=rhs), planner=planner
        )
        # weights are int8: the plan can never underflow them
        assert res.plan.l_bits >= 8

    def test_precision_pins_the_plan(self, rng, matrix):
        planner = ExecutionPlanner(device="A100")
        rhs = rng.integers(-128, 128, size=(64, 16))
        res = api.resolve(
            api.SpmmRequest(lhs=matrix, rhs=rhs, precision="L16-R8"),
            planner=planner,
        )
        assert (res.plan.l_bits, res.plan.r_bits) == (16, 8)

    def test_injected_config_bypasses_planner(self, rng, matrix):
        planner = ExecutionPlanner(device="A100")
        rhs = rng.integers(-128, 128, size=(64, 16))
        res = api.resolve(
            api.SpmmRequest(lhs=matrix, rhs=rhs, config=SpMMConfig()),
            planner=planner,
        )
        assert res.plan is None
        assert len(planner.cache) == 0

    def test_missing_rhs_is_typed(self, matrix):
        planner = ExecutionPlanner(device="A100")
        with pytest.raises(ConfigError, match="rhs is required"):
            api.resolve(api.SpmmRequest(lhs=matrix), planner=planner)

    def test_request_for_another_device_is_refused(self, rng, matrix):
        """A planner prices plans on its own device only."""
        planner = ExecutionPlanner(device="A100")
        rhs = rng.integers(-128, 128, size=(64, 16))
        request = api.SpmmRequest(lhs=matrix, rhs=rhs, device="H100")
        with pytest.raises(ConfigError, match="'H100'.*'A100'"):
            api.run(request, planner=planner)
        assert len(planner.cache) == 0

    def test_planner_device_is_the_default(self, rng, matrix):
        """Unnamed, the device is the planner's: planned and priced there."""
        planner = ExecutionPlanner(device="H100")
        rhs = rng.integers(-128, 128, size=(64, 16))
        response = api.run(api.SpmmRequest(lhs=matrix, rhs=rhs), planner=planner)
        named = api.run(
            api.SpmmRequest(lhs=matrix, rhs=rhs, device="H100"), planner=planner
        )
        assert response.device == response.plan.device == "H100"
        assert response.time_s == named.time_s

    def test_sddmm_plan(self, rng, matrix):
        planner = ExecutionPlanner(device="A100")
        a = rng.integers(-128, 128, size=(32, 48))
        b = rng.integers(-128, 128, size=(48, 64))
        res = api.resolve(
            api.SddmmRequest(a=a, b=b, mask=matrix), planner=planner
        )
        assert res.op == "sddmm"
        assert res.plan is not None
        assert res.plan.op == "sddmm"


class TestRun:
    def test_spmm_exact(self, rng):
        d = make_structured_sparse(rng, 32, 64, 8, 0.7)
        from repro.core.matrix import SparseMatrix

        a = SparseMatrix.from_dense(d, 8)
        rhs = rng.integers(-128, 128, size=(64, 32))
        r = api.run(api.SpmmRequest(lhs=a, rhs=rhs, precision="L8-R8"))
        np.testing.assert_array_equal(r.output, d.astype(np.int64) @ rhs)
        assert r.time_s > 0 and r.tops > 0
        assert r.backend == DEFAULT_BACKEND
        assert r.device == "A100"
        assert r.request_time_s == r.time_s  # one-shot: no amortization

    def test_sddmm_exact(self, rng):
        from repro.core.matrix import SparseMatrix

        mask_d = (make_structured_sparse(rng, 16, 32, 8, 0.5) != 0).astype(np.int32)
        mask = SparseMatrix.from_dense(mask_d, 8)
        a = rng.integers(-128, 128, size=(16, 64))
        b = rng.integers(-128, 128, size=(64, 32))
        r = api.run(api.SddmmRequest(a=a, b=b, mask=mask, precision="L8-R8"))
        full = a.astype(np.int64) @ b
        got = r.output.to_dense()
        keep = got != 0
        np.testing.assert_array_equal(got[keep], full[keep])

    def test_attention_latency_model(self):
        r = api.run(api.AttentionRequest(seq_len=256, num_heads=2))
        assert r.output is None
        assert r.time_s > 0
        assert r.stats is not None and r.stats.total_s == r.time_s

    def test_device_steers_cost(self, rng, matrix):
        rhs = rng.integers(-128, 128, size=(64, 16))
        t_a100 = api.run(api.SpmmRequest(lhs=matrix, rhs=rhs), device="A100").time_s
        t_h100 = api.run(api.SpmmRequest(lhs=matrix, rhs=rhs), device="H100").time_s
        assert t_h100 < t_a100


class TestBitsRequired:
    def test_reexported_and_correct(self):
        assert api.bits_required(np.array([-8, 7])) == 4
        assert api.bits_required(np.array([300])) == 12
        with pytest.raises(ConfigError):
            api.bits_required(np.array([1 << 20]))

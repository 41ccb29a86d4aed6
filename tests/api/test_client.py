"""The open_engine / Client facade: three verbs, every request type."""

import numpy as np
import pytest

import repro
from repro import api
from repro.errors import AdmissionError, ConfigError, EngineClosedError
from repro.runtime import DEFAULT_BACKEND
from repro.serve.batcher import BatchPolicy
from repro.serve.cache import PlanCache
from repro.serve.planner import ExecutionPlanner
from repro.serve.telemetry import Telemetry
from tests.conftest import make_structured_sparse


@pytest.fixture
def matrix(rng):
    return repro.SparseMatrix.from_dense(
        make_structured_sparse(rng, 32, 64, 8, 0.7), vector_length=8
    )


@pytest.fixture
def rhs(rng):
    return rng.integers(-128, 128, size=(64, 16))


class TestVerbs:
    def test_run_matches_one_shot(self, matrix, rhs):
        with repro.open_engine() as client:
            served = client.run(api.SpmmRequest(lhs=matrix, rhs=rhs))
        direct = api.run(
            api.SpmmRequest(lhs=matrix, rhs=rhs, precision=served.plan.precision)
        )
        np.testing.assert_array_equal(served.output, direct.output)

    def test_submit_returns_future(self, matrix, rhs):
        with repro.open_engine() as client:
            fut = client.submit(api.SpmmRequest(lhs=matrix, rhs=rhs))
            client.flush()
            r = fut.result(timeout=10)
        assert r.plan is not None and r.batch_size >= 1

    def test_submit_async_ticket(self, matrix, rhs):
        with repro.open_engine() as client:
            handle = client.submit_async(api.SpmmRequest(lhs=matrix, rhs=rhs))
            client.flush()
            r = client.result(handle, timeout=10)
        assert r.output is not None

    def test_attention_request(self):
        with repro.open_engine() as client:
            r = client.run(api.AttentionRequest(seq_len=256, num_heads=2))
        assert r.output is None and r.time_s > 0

    def test_sddmm_request(self, rng, matrix):
        a = rng.integers(-128, 128, size=(32, 48))
        b = rng.integers(-128, 128, size=(48, 64))
        with repro.open_engine() as client:
            served = client.run(api.SddmmRequest(a=a, b=b, mask=matrix))
        direct = api.run(
            api.SddmmRequest(a=a, b=b, mask=matrix,
                             precision=served.plan.precision)
        )
        np.testing.assert_array_equal(
            served.output.to_dense(), direct.output.to_dense()
        )

    def test_scale_applies_and_groups(self, matrix, rhs):
        with repro.open_engine() as client:
            plain = client.run(api.SpmmRequest(lhs=matrix, rhs=rhs))
            scaled = client.run(api.SpmmRequest(lhs=matrix, rhs=rhs, scale=0.5))
        np.testing.assert_allclose(scaled.output, plain.output * 0.5)


class TestSessions:
    def test_same_operand_reuses_session(self, matrix, rhs):
        with repro.open_engine() as client:
            s1 = client.prepare(api.SpmmRequest(lhs=matrix, rhs=rhs))
            s2 = client.prepare(api.SpmmRequest(lhs=matrix, rhs=rhs))
            assert s1 is s2
            client.run(api.SpmmRequest(lhs=matrix, rhs=rhs))
            assert client.telemetry.sessions() == [s1.name]

    def test_named_session(self, matrix, rhs):
        with repro.open_engine() as client:
            client.run(api.SpmmRequest(lhs=matrix, rhs=rhs, session="ffn"))
            assert client.telemetry.sessions() == ["ffn"]

    def test_attention_topology_is_the_key(self):
        with repro.open_engine() as client:
            s1 = client.prepare(api.AttentionRequest(seq_len=256))
            s2 = client.prepare(api.AttentionRequest(seq_len=256, batch=3))
            s3 = client.prepare(api.AttentionRequest(seq_len=512))
            assert s1 is s2
            assert s3 is not s1

    def test_precision_pins_serving_plan(self, matrix, rhs):
        with repro.open_engine() as client:
            r = client.run(
                api.SpmmRequest(lhs=matrix, rhs=rhs, precision="L16-R8")
            )
        assert r.precision == "L16-R8"
        assert (r.plan.l_bits, r.plan.r_bits) == (16, 8)

    def test_injected_config_served(self, matrix, rhs):
        from repro.kernels.spmm import SpMMConfig

        with repro.open_engine() as client:
            r = client.run(
                api.SpmmRequest(lhs=matrix, rhs=rhs,
                                config=SpMMConfig(l_bits=8, r_bits=8))
            )
        assert r.plan is None
        direct = api.run(api.SpmmRequest(lhs=matrix, rhs=rhs, precision="L8-R8"))
        np.testing.assert_array_equal(r.output, direct.output)

    def test_backend_pin(self, matrix, rhs):
        with repro.open_engine() as client:
            r = client.run(
                api.SpmmRequest(lhs=matrix, rhs=rhs, backend="magicube-strict")
            )
        assert r.backend == "magicube-strict"

    def test_named_session_rejects_swapped_operand(self, rng, matrix, rhs):
        other = repro.SparseMatrix.from_dense(
            make_structured_sparse(rng, 32, 64, 8, 0.5), vector_length=8
        )
        with repro.open_engine() as client:
            client.run(api.SpmmRequest(lhs=matrix, rhs=rhs, session="s"))
            with pytest.raises(ConfigError, match="different lhs"):
                client.run(api.SpmmRequest(lhs=other, rhs=rhs, session="s"))

    def test_named_session_rejects_swapped_mask(self, rng, matrix):
        a = rng.integers(-128, 128, size=(32, 48))
        b = rng.integers(-128, 128, size=(48, 64))
        other = repro.SparseMatrix.from_dense(
            make_structured_sparse(rng, 32, 64, 8, 0.5), vector_length=8
        )
        with repro.open_engine() as client:
            client.run(api.SddmmRequest(a=a, b=b, mask=matrix, session="s"))
            with pytest.raises(ConfigError, match="different mask"):
                client.run(api.SddmmRequest(a=a, b=b, mask=other, session="s"))

    def test_mixed_backends_never_coalesce(self, matrix, rhs):
        with repro.open_engine(
            policy=BatchPolicy(max_batch_size=8, max_wait_s=60.0)
        ) as client:
            fast = client.submit(
                api.SpmmRequest(lhs=matrix, rhs=rhs, session="w")
            )
            strict = client.submit(
                api.SpmmRequest(lhs=matrix, rhs=rhs, session="w",
                                backend="magicube-strict")
            )
            client.flush()
            r_fast, r_strict = fast.result(10), strict.result(10)
        assert r_fast.backend == DEFAULT_BACKEND
        assert r_strict.backend == "magicube-strict"
        # two resolutions, two launches — never one contaminated batch
        assert r_fast.batch_size == 1 and r_strict.batch_size == 1
        np.testing.assert_array_equal(r_fast.output, r_strict.output)


class TestConstructorThreading:
    def test_policy_admission(self, matrix, rhs):
        with repro.open_engine(
            policy=BatchPolicy(max_batch_size=2, max_wait_s=60.0,
                               max_queue_depth=1)
        ) as client:
            client.submit(api.SpmmRequest(lhs=matrix, rhs=rhs, session="w"))
            with pytest.raises(AdmissionError):
                client.submit(api.SpmmRequest(lhs=matrix, rhs=rhs, session="w"))
            assert client.telemetry.rejections() == 1
            client.flush()

    def test_telemetry_injection(self, matrix, rhs):
        telemetry = Telemetry()
        with repro.open_engine(telemetry=telemetry) as client:
            assert client.telemetry is telemetry
            client.run(api.SpmmRequest(lhs=matrix, rhs=rhs, session="w"))
        assert telemetry.sessions() == ["w"]

    def test_cache_injection(self):
        cache = PlanCache()
        with repro.open_engine(cache=cache) as client:
            assert client.planner.cache is cache

    def test_planner_and_cache_conflict(self):
        with pytest.raises(ConfigError):
            repro.open_engine(planner=ExecutionPlanner(), cache=PlanCache())

    def test_warm_start_preloads(self, tmp_path, matrix):
        from repro.autotune.artifact import write_artifact

        planner = ExecutionPlanner(device="A100")
        planner.plan_spmm(32, 64, 16, 8, matrix.sparsity)
        plans, _ = write_artifact(tmp_path / "plans.json", planner.cache)
        with repro.open_engine(warm_start=plans) as client:
            assert len(client.planner.cache) == len(planner.cache)

    def test_device_and_backend(self):
        with repro.open_engine(device="H100") as client:
            assert client.device == "H100"
            assert client.backend == DEFAULT_BACKEND


class TestClose:
    def test_close_is_idempotent(self):
        client = repro.open_engine()
        client.close()
        client.close()
        assert client.closed

    def test_submit_after_close_is_typed(self, matrix, rhs):
        client = repro.open_engine()
        client.close()
        with pytest.raises(EngineClosedError):
            client.submit(api.SpmmRequest(lhs=matrix, rhs=rhs))

    def test_engine_submit_after_close_is_typed(self, matrix, rhs):
        client = repro.open_engine()
        session = client.prepare(api.SpmmRequest(lhs=matrix, session="w"))
        client.close()
        with pytest.raises(EngineClosedError):
            session.submit_async(api.SpmmRequest(lhs=matrix, rhs=rhs))

    def test_unknown_ticket_after_close_is_typed(self):
        client = repro.open_engine()
        client.close()
        with pytest.raises(EngineClosedError):
            client.result(123456)

    def test_unknown_ticket_before_close_is_config_error(self):
        with repro.open_engine() as client:
            with pytest.raises(ConfigError):
                client.result(123456)

    def test_resolved_tickets_survive_close(self, matrix, rhs):
        client = repro.open_engine()
        handle = client.submit_async(api.SpmmRequest(lhs=matrix, rhs=rhs))
        client.flush()
        handle.result(timeout=10)
        client.close()
        assert client.result(handle).output is not None

    def test_error_family(self):
        assert issubclass(EngineClosedError, repro.ReproError)
        assert issubclass(EngineClosedError, RuntimeError)

"""Gateway behaviour: round-trip equivalence, failover, admission.

These tests boot real worker processes (multiprocessing spawn), so the
suite keeps the gateway count small: one shared 2-worker fleet for the
routing/equivalence cases, plus dedicated fleets for the chaos and
saturation paths.
"""

import threading
import time

import numpy as np
import pytest

import repro
from repro.api import (
    AttentionRequest,
    SddmmRequest,
    SpmmRequest,
    TransformerRequest,
)
from repro.core.matrix import SparseMatrix
from repro.errors import AdmissionError, ConfigError, FleetError
from repro.fleet import FleetConfig, PlacementRing, open_fleet
from repro.serve.batcher import BatchPolicy

from tests.conftest import make_structured_sparse


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(11)
    lhs = SparseMatrix.from_dense(
        make_structured_sparse(rng, 64, 64, 8, 0.7, bits=8), vector_length=8
    )
    rhs = rng.integers(-8, 8, size=(64, 16), dtype=np.int8)
    mask = SparseMatrix.from_dense(
        make_structured_sparse(rng, 64, 64, 8, 0.9, bits=8), vector_length=8
    )
    a = rng.integers(-8, 8, size=(64, 32), dtype=np.int8)
    b = rng.integers(-8, 8, size=(32, 64), dtype=np.int8)
    return {"lhs": lhs, "rhs": rhs, "mask": mask, "a": a, "b": b}


@pytest.fixture(scope="module")
def gateway():
    with open_fleet(FleetConfig(workers=2)) as gw:
        yield gw


class TestRoundTripEquivalence:
    """A request through the fleet returns exactly what a direct
    in-process engine returns — same outputs, same modelled times."""

    def test_spmm(self, gateway, operands):
        req = SpmmRequest(
            lhs=operands["lhs"], rhs=operands["rhs"], session="rt-spmm"
        )
        fleet = gateway.run(req)
        with repro.open_engine() as client:
            direct = client.run(req)
        assert np.array_equal(fleet.output, direct.output)
        assert fleet.time_s == direct.time_s
        assert fleet.backend == direct.backend

    def test_sddmm(self, gateway, operands):
        req = SddmmRequest(
            mask=operands["mask"], a=operands["a"], b=operands["b"],
            session="rt-sddmm",
        )
        fleet = gateway.run(req)
        with repro.open_engine() as client:
            direct = client.run(req)
        # the sampled output is a BCRS matrix: compare structure + values
        assert np.array_equal(fleet.output.row_ptrs, direct.output.row_ptrs)
        assert np.array_equal(
            fleet.output.col_indices, direct.output.col_indices
        )
        assert np.array_equal(fleet.output.values, direct.output.values)
        assert fleet.time_s == direct.time_s

    def test_attention(self, gateway):
        req = AttentionRequest(seq_len=128, num_heads=4, session="rt-attn")
        fleet = gateway.run(req)
        with repro.open_engine() as client:
            direct = client.run(req)
        assert fleet.output is None and direct.output is None
        assert fleet.time_s == direct.time_s
        assert fleet.precision == direct.precision

    def test_transformer(self, gateway):
        """A whole-model lra-classify forward through the fleet is
        byte-identical to the direct in-process engine."""
        ids = np.random.default_rng(23).integers(0, 16, size=(2, 64))
        req = TransformerRequest(
            ids=ids, seq_len=64, d_model=32, num_heads=2, num_layers=1,
            mask_variant="local", session="rt-xf",
        )
        fleet = gateway.run(req)
        with repro.open_engine() as client:
            direct = client.run(req)
        assert fleet.output.tobytes() == direct.output.tobytes()
        assert fleet.time_s == direct.time_s
        assert fleet.backend == direct.backend
        assert fleet.plan.key == direct.plan.key


class TestRouting:
    def test_placement_is_the_consistent_hash_ring(self, gateway, operands):
        """The gateway's session->worker map is exactly what anyone can
        recompute from the worker names - deterministic across runs."""
        placement = gateway.status()["placement"]
        ring = PlacementRing(["w0", "w1"])
        for session, worker in placement.items():
            assert worker == ring.lookup(session)

    def test_submit_future_is_awaitable(self, gateway, operands):
        """The gateway's submit Future is the request's one handle;
        asyncio code awaits it through the stdlib."""
        import asyncio

        req = SpmmRequest(
            lhs=operands["lhs"], rhs=operands["rhs"], session="rt-spmm"
        )

        async def serve():
            future = gateway.submit(req)
            gateway.flush()
            return await asyncio.wait_for(asyncio.wrap_future(future), 30.0)

        r = asyncio.run(serve())
        assert r.output is not None

    def test_submitted_request_cannot_be_cancelled(self, gateway, operands):
        """A request is on its worker once submit returns: cancel() is
        refused, the reply resolves the future, and the worker's
        receive loop keeps serving."""
        req = SpmmRequest(
            lhs=operands["lhs"], rhs=operands["rhs"], session="rt-spmm"
        )
        future = gateway.submit(req)
        assert not future.cancel()
        gateway.flush()
        assert future.result(timeout=30.0).output is not None
        assert gateway.run(req).output is not None

    def test_operand_swap_rejected(self, gateway, operands):
        """Same identity contract as the direct Client: a named session
        serves the operand it was prepared with."""
        rng = np.random.default_rng(5)
        other = SparseMatrix.from_dense(
            make_structured_sparse(rng, 64, 64, 8, 0.7, bits=8),
            vector_length=8,
        )
        with pytest.raises(ConfigError, match="prepared with a different"):
            gateway.run(
                SpmmRequest(lhs=other, rhs=operands["rhs"], session="rt-spmm")
            )

    def test_fleet_metrics_aggregate(self, gateway):
        doc = gateway.metrics_snapshot().to_dict()
        assert "repro_fleet_requests_total" in doc
        routed = sum(
            s["value"] for s in doc["repro_fleet_requests_total"]["samples"]
        )
        assert routed >= 4  # everything the tests above sent

    def test_worker_stats_carry_one_metrics_payload(self, gateway):
        """Each worker reports its registry once; there is no separate
        telemetry copy of the same measurements."""
        for stats in gateway.worker_stats().values():
            assert set(stats) == {"name", "summary", "metrics", "sessions"}


class TestFailover:
    def test_killed_worker_respawns_and_session_recovers(self, operands):
        with open_fleet(FleetConfig(workers=2, heartbeat_s=0.1)) as gw:
            req = SpmmRequest(
                lhs=operands["lhs"], rhs=operands["rhs"], session="chaos"
            )
            before = gw.run(req)
            victim = gw.status()["placement"]["chaos"]
            gw.kill_worker(victim)
            time.sleep(0.3)  # let the monitor notice the death
            after = gw.run(req)  # reroutes or waits out the respawn
            assert np.array_equal(after.output, before.output)
            deadline = time.time() + 10.0
            while time.time() < deadline:
                status = gw.status()["workers"][victim]
                if status["alive"] and status["restarts"] == 1:
                    break
                time.sleep(0.1)
            status = gw.status()["workers"][victim]
            assert status["alive"] and not status["dead"]
            assert status["restarts"] == 1

    def test_inflight_requests_retry_once(self, operands):
        """Requests lost mid-flight to a SIGKILL complete anyway, via
        the retry-once path, and the retry counter records them."""
        with open_fleet(FleetConfig(workers=2, heartbeat_s=0.1)) as gw:
            req = SpmmRequest(
                lhs=operands["lhs"], rhs=operands["rhs"], session="retry"
            )
            expected = gw.run(req)
            victim = gw.status()["placement"]["retry"]
            futures = [gw.submit(req) for _ in range(8)]
            gw.kill_worker(victim)
            gw.flush()
            for f in futures:
                r = f.result(timeout=60.0)
                assert np.array_equal(r.output, expected.output)
            doc = gw.metrics.to_dict()
            retried = sum(
                s["value"]
                for s in doc.get("repro_fleet_retries_total", {}).get(
                    "samples", ()
                )
            )
            assert retried >= 0  # kill may land before or after dispatch

    def test_control_call_retry_waits_for_a_fresh_pipe(self):
        """A control call lost on a dead pipe is re-issued only once the
        slot carries a new connection. The window is held open: the
        handle keeps the dead pipe while the process still looks alive,
        as between a SIGKILL and the monitor noticing it."""

        class DeadPipe:
            def send(self, message):
                raise BrokenPipeError("worker end closed")

        with open_fleet(FleetConfig(workers=1, heartbeat_s=0.1)) as gw:
            handle = gw.pool.handle("w0")
            live = handle.conn
            handle.conn = DeadPipe()
            respawn = threading.Timer(0.3, setattr, (handle, "conn", live))
            respawn.start()
            try:
                gw.flush()  # retried on the fresh pipe, not the dead one
            finally:
                respawn.join()
            assert handle.conn is live

    def test_transformer_inflight_retry_once(self):
        """Chaos: SIGKILL the worker serving a stream of whole-model
        TransformerRequests — the kill lands between the layer launches
        of in-flight forwards. Every request must complete via the
        retry-exactly-once path with logits byte-identical to the
        pre-kill forward, and no request may be answered twice."""
        ids = np.random.default_rng(31).integers(0, 16, size=(1, 64))
        with open_fleet(FleetConfig(workers=2, heartbeat_s=0.1)) as gw:
            req = TransformerRequest(
                ids=ids, seq_len=64, d_model=32, num_heads=2, num_layers=2,
                mask_variant="global-local", session="chaos-xf",
            )
            expected = gw.run(req)
            victim = gw.status()["placement"]["chaos-xf"]
            futures = [gw.submit(req) for _ in range(6)]
            gw.kill_worker(victim)  # mid-stream: forwards are in flight
            gw.flush()
            results = [f.result(timeout=60.0) for f in futures]
            for r in results:
                # retried requests may coalesce into different batch
                # shapes than the reference forward; BLAS summation
                # order then differs by a couple of ulps, so correctness
                # here is tight closeness, not byte equality (the
                # same-composition byte-exact check runs below)
                np.testing.assert_allclose(
                    r.output, expected.output, rtol=1e-4, atol=1e-6
                )
            # exactly-once: one response per submitted request, and the
            # respawned worker rebuilt the session rather than serving
            # from a stale process
            assert len(results) == 6
            deadline = time.time() + 10.0
            while time.time() < deadline:
                status = gw.status()["workers"][victim]
                if status["alive"] and status["restarts"] >= 1:
                    break
                time.sleep(0.1)
            assert gw.status()["workers"][victim]["restarts"] >= 1
            after = gw.run(req)  # the recovered session still serves
            assert after.output.tobytes() == expected.output.tobytes()


class TestAdmission:
    def test_saturated_worker_sheds_with_typed_error(self, operands):
        """max_inflight=1 and a long batch window: the first request
        parks in the worker's batcher, the second is shed."""
        policy = BatchPolicy(max_batch_size=64, max_wait_s=5.0)
        config = FleetConfig(workers=1, max_inflight=1, policy=policy)
        with open_fleet(config) as gw:
            req = SpmmRequest(
                lhs=operands["lhs"], rhs=operands["rhs"], session="sat"
            )
            first = gw.submit(req)  # parks in the 5 s batch window
            with pytest.raises(AdmissionError):
                gw.submit(req)
            doc = gw.metrics.to_dict()
            shed = sum(
                s["value"]
                for s in doc["repro_fleet_shed_total"]["samples"]
            )
            assert shed == 1
            gw.flush()
            assert first.result(timeout=30.0).output is not None

    def test_closed_gateway_refuses(self, operands):
        gw = open_fleet(FleetConfig(workers=1))
        gw.close()
        from repro.errors import EngineClosedError

        with pytest.raises(EngineClosedError):
            gw.submit(
                SpmmRequest(lhs=operands["lhs"], rhs=operands["rhs"])
            )


class TestConfig:
    def test_bad_pack_fails_boot(self, tmp_path):
        (tmp_path / "pack.json").write_text("{}")
        with pytest.raises(FleetError):
            open_fleet(FleetConfig(workers=1, pack=tmp_path))

"""MicroBatcher: coalescing, policy limits, admission, error propagation."""

import sys
import threading
import time
from concurrent.futures import Future, wait

import pytest

from repro.errors import AdmissionError
from repro.serve.batcher import BatchItem, BatchPolicy, MicroBatcher, _Group, _Pending


class Recorder:
    """Execute function that logs every batch it gets."""

    def __init__(self, fail_on=None):
        self.batches = []
        self.lock = threading.Lock()
        self.fail_on = fail_on

    def __call__(self, key, items):
        with self.lock:
            self.batches.append((key, [i.payload for i in items]))
        if self.fail_on is not None and key == self.fail_on:
            raise RuntimeError(f"boom on {key}")
        return [f"{key}:{i.payload}" for i in items]


class TestCoalescing:
    def test_same_key_requests_share_a_batch(self):
        rec = Recorder()
        with MicroBatcher(rec, BatchPolicy(max_batch_size=16, max_wait_s=5.0)) as mb:
            futures = [mb.submit("k", i) for i in range(6)]
            mb.flush()
            results = [f.result(timeout=5) for f in futures]
        assert results == [f"k:{i}" for i in range(6)]
        assert len(rec.batches) == 1
        assert rec.batches[0] == ("k", list(range(6)))

    def test_full_batch_dispatches_without_flush(self):
        rec = Recorder()
        with MicroBatcher(rec, BatchPolicy(max_batch_size=4, max_wait_s=60.0)) as mb:
            futures = [mb.submit("k", i) for i in range(4)]
            results = [f.result(timeout=5) for f in futures]
        assert results == [f"k:{i}" for i in range(4)]

    def test_max_batch_size_chunks(self):
        rec = Recorder()
        with MicroBatcher(rec, BatchPolicy(max_batch_size=8, max_wait_s=5.0)) as mb:
            futures = [mb.submit("k", i) for i in range(10)]
            mb.flush()
            [f.result(timeout=5) for f in futures]
        sizes = sorted(len(b) for _, b in rec.batches)
        assert sizes == [2, 8]

    def test_different_keys_never_mix(self):
        rec = Recorder()
        with MicroBatcher(rec, BatchPolicy(max_batch_size=16, max_wait_s=5.0)) as mb:
            fa = [mb.submit("a", i) for i in range(3)]
            fb = [mb.submit("b", i) for i in range(2)]
            mb.flush()
            assert [f.result(timeout=5) for f in fa] == ["a:0", "a:1", "a:2"]
            assert [f.result(timeout=5) for f in fb] == ["b:0", "b:1"]
        keys = {k for k, _ in rec.batches}
        assert keys == {"a", "b"}
        assert len(rec.batches) == 2

    def test_max_wait_flushes_automatically(self):
        rec = Recorder()
        with MicroBatcher(rec, BatchPolicy(max_batch_size=64, max_wait_s=0.01)) as mb:
            future = mb.submit("k", 1)
            assert future.result(timeout=5) == "k:1"  # no flush() call

    def test_queue_wait_is_reported(self):
        seen = []

        def execute(key, items):
            seen.extend(items)
            return [i.payload for i in items]

        with MicroBatcher(execute, BatchPolicy(max_batch_size=4, max_wait_s=0.01)) as mb:
            mb.submit("k", 0).result(timeout=5)
        assert all(isinstance(i, BatchItem) and i.queue_wait_s >= 0 for i in seen)


def _enqueue(mb, key, payload, enqueued_at):
    """Queue one request at a chosen arrival time (call with mb._lock held)."""
    group = mb._groups.setdefault(key, _Group())
    group.pending.append(_Pending(payload, Future(), enqueued_at))


class TestWorkConservingDispatch:
    """The dispatch rule: a ready group leaves the moment a worker is
    idle; requests wait only while every worker is busy."""

    def test_idle_worker_takes_lone_request_at_arrival(self):
        rec = Recorder()
        with MicroBatcher(rec, BatchPolicy()) as mb:
            with mb._lock:
                now = time.monotonic()
                _enqueue(mb, "k", 0, now)
                batches = mb._take_batches()
            mb._dispatch(batches)
        assert [(key, len(p)) for key, p in batches] == [("k", 1)]
        assert rec.batches == [("k", [0])]

    def test_busy_workers_hold_lone_request(self):
        rec = Recorder()
        with MicroBatcher(rec, BatchPolicy(), max_workers=2) as mb:
            with mb._lock:
                mb._in_flight = 2  # every worker busy
                _enqueue(mb, "k", 0, time.monotonic())
                assert mb._take_batches() == []
                mb._in_flight = 0
        # close() still forces the held request out
        assert rec.batches == [("k", [0])]

    def test_oldest_group_head_dispatched_first(self):
        rec = Recorder()
        with MicroBatcher(rec, BatchPolicy(), max_workers=2) as mb:
            with mb._lock:
                now = time.monotonic()
                # insertion order is the reverse of arrival order
                _enqueue(mb, "young", 0, now - 0.001)
                _enqueue(mb, "middle", 0, now - 0.005)
                _enqueue(mb, "old", 0, now - 0.010)
                batches = mb._take_batches()
            mb._dispatch(batches)
            assert [key for key, _ in batches] == ["old", "middle"]
        assert {key for key, _ in rec.batches} == {"old", "middle", "young"}

    def test_backlog_behind_busy_worker_leaves_as_one_batch(self):
        rec = Recorder()
        gate, started = threading.Event(), threading.Event()

        def execute(key, items):
            if key == "gate":
                started.set()
                gate.wait(timeout=5)
            return rec(key, items)

        with MicroBatcher(execute, BatchPolicy(), max_workers=1) as mb:
            blocker = mb.submit("gate", 0)
            assert started.wait(timeout=5)
            futures = []
            for i in range(6):
                futures.append(mb.submit("k", i))
                time.sleep(0.005)  # arrivals spread out, not a burst
            gate.set()
            assert blocker.result(timeout=5) == "gate:0"
            assert [f.result(timeout=5) for f in futures] == [
                f"k:{i}" for i in range(6)
            ]
        assert rec.batches == [("gate", [0]), ("k", list(range(6)))]

    def test_in_flight_batches_never_exceed_workers(self):
        """Stress: more workers than cores and a short switch interval;
        the pool never holds more batches than workers, and the busy
        count returns to zero (a lost update would leave it off)."""
        lock = threading.Lock()
        outstanding = peak = 0

        def execute(key, items):
            nonlocal outstanding
            time.sleep(0.0005)
            with lock:
                outstanding -= 1
            return [i.payload for i in items]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            mb = MicroBatcher(execute, BatchPolicy(max_batch_size=2), max_workers=4)
            pool_submit = mb._pool.submit

            def counting_submit(*args):
                nonlocal outstanding, peak
                with lock:
                    outstanding += 1
                    peak = max(peak, outstanding)
                return pool_submit(*args)

            mb._pool.submit = counting_submit
            futures = [mb.submit(f"k{i % 7}", i) for i in range(300)]
            assert [f.result(timeout=10) for f in futures] == list(range(300))
            mb.close()
        finally:
            sys.setswitchinterval(interval)
        assert 1 <= peak <= 4
        assert mb._in_flight == 0


class TestLifecycleAndErrors:
    def test_execute_error_propagates_to_all_futures(self):
        rec = Recorder(fail_on="bad")
        with MicroBatcher(rec, BatchPolicy(max_batch_size=8, max_wait_s=5.0)) as mb:
            futures = [mb.submit("bad", i) for i in range(3)]
            good = mb.submit("good", 7)
            mb.flush()
            for f in futures:
                with pytest.raises(RuntimeError, match="boom"):
                    f.result(timeout=5)
            assert good.result(timeout=5) == "good:7"

    def test_wrong_result_count_is_an_error(self):
        def execute(key, items):
            return []  # wrong arity

        with MicroBatcher(execute, BatchPolicy(max_batch_size=2, max_wait_s=5.0)) as mb:
            f = mb.submit("k", 1)
            mb.flush()
            with pytest.raises(RuntimeError, match="results"):
                f.result(timeout=5)

    def test_request_cancelled_before_dispatch_never_executes(self):
        rec = Recorder()
        with MicroBatcher(rec, BatchPolicy(max_batch_size=8, max_wait_s=60.0)) as mb:
            futures = [mb.submit("k", i) for i in range(3)]
            assert futures[1].cancel()
            mb.flush()
            assert futures[0].result(timeout=5) == "k:0"
            assert futures[2].result(timeout=5) == "k:2"
        assert rec.batches == [("k", [0, 2])]

    def test_all_cancelled_batch_skips_execute_and_frees_its_worker(self):
        gate = threading.Event()
        rec = Recorder()

        def execute(key, items):
            if key == "block":
                gate.wait(timeout=5)
            return rec(key, items)

        with MicroBatcher(execute, BatchPolicy(), max_workers=1) as mb:
            blocker = mb.submit("block", 0)
            cancelled = mb.submit("k", 1)  # queued: the one worker is busy
            assert cancelled.cancel()
            gate.set()
            # only runs if the skipped batch gave its worker slot back
            assert mb.submit("j", 2).result(timeout=5) == "j:2"
            assert blocker.result(timeout=5) == "block:0"
        assert [key for key, _ in rec.batches] == ["block", "j"]

    def test_cancel_is_refused_once_the_batch_runs(self):
        """The concurrent.futures contract: a running future cannot be
        cancelled, and its result is delivered."""
        refused = []

        def execute(key, items):
            refused.append(not futures[0].cancel())
            return [i.payload for i in items]

        with MicroBatcher(execute, BatchPolicy(max_batch_size=8, max_wait_s=60.0)) as mb:
            futures = [mb.submit("k", 0)]
            mb.flush()
            assert futures[0].result(timeout=5) == 0
        assert refused == [True]

    def test_racing_cancels_never_strand_a_batch(self):
        """cancel() racing dispatch from several threads: every future
        ends either cancelled or with its own result, and every batch
        gives its worker back."""

        def execute(key, items):
            return [i.payload for i in items]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            mb = MicroBatcher(execute, BatchPolicy(max_batch_size=4), max_workers=8)
            futures = [mb.submit(f"k{i % 3}", i) for i in range(600)]
            cancellers = [
                threading.Thread(target=lambda fs=futures[k::4]: [f.cancel() for f in fs])
                for k in range(4)
            ]
            for t in cancellers:
                t.start()
            for t in cancellers:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in cancellers)
            _, not_done = wait(futures, timeout=10)
            assert not not_done
            for i, f in enumerate(futures):
                assert f.cancelled() or f.result() == i
            mb.close()
        finally:
            sys.setswitchinterval(interval)
        assert mb._in_flight == 0

    def test_dispatch_is_timed_by_the_caller_not_the_batcher(self):
        """The batcher carries no timer of its own: the engine's
        execute callback times each launch, so it takes no profiler."""
        with pytest.raises(TypeError):
            MicroBatcher(Recorder(), profiler=object())

    def test_close_drains_pending(self):
        rec = Recorder()
        mb = MicroBatcher(rec, BatchPolicy(max_batch_size=64, max_wait_s=60.0))
        futures = [mb.submit("k", i) for i in range(5)]
        mb.close()
        assert [f.result(timeout=5) for f in futures] == [f"k:{i}" for i in range(5)]

    def test_submit_after_close_raises(self):
        mb = MicroBatcher(Recorder(), BatchPolicy())
        mb.close()
        with pytest.raises(RuntimeError):
            mb.submit("k", 1)

    def test_close_is_idempotent(self):
        mb = MicroBatcher(Recorder(), BatchPolicy())
        mb.close()
        mb.close()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_s=-1.0)

    def test_admission_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_queue_depth=0)
        with pytest.raises(ValueError):
            BatchPolicy(admission_budget_s=-0.1)

    def test_concurrent_submitters(self):
        rec = Recorder()
        results = []
        lock = threading.Lock()

        def client(tag):
            with MicroBatcher(rec, BatchPolicy(max_batch_size=4, max_wait_s=0.005)) as mb:
                futs = [mb.submit("k", f"{tag}-{i}") for i in range(8)]
                out = [f.result(timeout=5) for f in futs]
            with lock:
                results.extend(out)

        threads = [threading.Thread(target=client, args=(t,)) for t in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 24


class TestAdmissionControl:
    def test_default_policy_admits_everything(self):
        rec = Recorder()
        with MicroBatcher(rec, BatchPolicy(max_batch_size=64, max_wait_s=60.0)) as mb:
            futures = [mb.submit("k", i) for i in range(40)]
            mb.flush()
            [f.result(timeout=5) for f in futures]
        assert mb.rejections() == 0

    def test_queue_depth_gate_rejects(self):
        rec = Recorder()
        policy = BatchPolicy(max_batch_size=64, max_wait_s=60.0, max_queue_depth=3)
        with MicroBatcher(rec, policy) as mb:
            futures = [mb.submit("k", i) for i in range(3)]
            with pytest.raises(AdmissionError, match="max_queue_depth"):
                mb.submit("k", 99)
            mb.flush()
            assert [f.result(timeout=5) for f in futures] == [
                f"k:{i}" for i in range(3)
            ]
        assert mb.rejections() == 1
        assert mb.rejections("k") == 1
        assert mb.rejections("other") == 0

    def test_depth_gate_is_per_group(self):
        rec = Recorder()
        policy = BatchPolicy(max_batch_size=64, max_wait_s=60.0, max_queue_depth=1)
        with MicroBatcher(rec, policy) as mb:
            a = mb.submit("a", 1)
            b = mb.submit("b", 1)  # a full 'a' queue must not block 'b'
            with pytest.raises(AdmissionError):
                mb.submit("a", 2)
            mb.flush()
            assert a.result(timeout=5) == "a:1"
            assert b.result(timeout=5) == "b:1"

    def test_latency_budget_gate_rejects(self):
        rec = Recorder()
        # est delay = max_wait_s * (1 + depth // max_batch_size):
        # depth 0, 1 -> 0.2s (admitted); depth 2 -> 0.4s (> 0.3 budget)
        policy = BatchPolicy(
            max_batch_size=2, max_wait_s=0.2, admission_budget_s=0.3
        )
        with MicroBatcher(rec, policy) as mb:
            futures = [mb.submit("k", i) for i in range(2)]
            with pytest.raises(AdmissionError, match="admission_budget_s"):
                mb.submit("k", 99)
            assert mb.rejections("k") == 1
            [f.result(timeout=5) for f in futures]

    def test_estimated_queue_delay_model(self):
        policy = BatchPolicy(max_batch_size=4, max_wait_s=0.01)
        assert policy.estimated_queue_delay_s(0) == pytest.approx(0.01)
        assert policy.estimated_queue_delay_s(3) == pytest.approx(0.01)
        assert policy.estimated_queue_delay_s(4) == pytest.approx(0.02)
        assert policy.estimated_queue_delay_s(9) == pytest.approx(0.03)

    def test_estimated_queue_delay_uses_measured_batch_wall(self):
        policy = BatchPolicy(max_batch_size=4, max_wait_s=0.01)
        # the window is the larger of the linger and the measured wall
        # own linger, plus one window per full batch ahead
        assert policy.estimated_queue_delay_s(9, batch_wall_s=0.05) == pytest.approx(0.11)
        assert policy.estimated_queue_delay_s(9, batch_wall_s=0.001) == pytest.approx(0.03)
        assert BatchPolicy().estimated_queue_delay_s(20) == 0.0
        # the request's own execute time is not charged
        assert BatchPolicy().estimated_queue_delay_s(7, batch_wall_s=5.0) == 0.0

    def test_measured_batch_wall_drives_admission(self):
        """With no linger, the budget gate prices the backlog by the
        measured batch wall time: a deep queue behind a slow execute
        is refused."""
        gate, started = threading.Event(), threading.Event()

        def execute(key, items):
            if key == "gate":
                started.set()
                gate.wait(timeout=5)
            else:
                time.sleep(0.02)
            return [i.payload for i in items]

        policy = BatchPolicy(admission_budget_s=0.1)
        with MicroBatcher(execute, policy, max_workers=1) as mb:
            mb.submit("slow", -1).result(timeout=5)  # one measured batch
            blocker = mb.submit("gate", 0)
            assert started.wait(timeout=5)
            admitted = []
            with pytest.raises(AdmissionError, match="admission_budget_s"):
                for i in range(64):
                    admitted.append(mb.submit("slow", i))
            gate.set()
            blocker.result(timeout=5)
            assert [f.result(timeout=10) for f in admitted] == list(
                range(len(admitted))
            )
        assert mb.rejections("slow") == 1

    def test_slow_batch_does_not_lock_out_lone_requests(self):
        """A batch slower than the budget is the request's own execute
        time, not queue delay: a lone request is still admitted after
        it, so admission cannot shut the engine for good."""

        def slow_execute(key, items):
            time.sleep(0.05)
            return [i.payload for i in items]

        policy = BatchPolicy(admission_budget_s=0.01)
        with MicroBatcher(slow_execute, policy) as mb:
            assert mb.submit("k", 0).result(timeout=5) == 0  # wall > budget
            assert mb._batch_wall_s > policy.admission_budget_s
            assert mb.submit("k", 1).result(timeout=5) == 1
        assert mb.rejections() == 0

    def test_rejected_request_future_is_never_created(self):
        """Rejection is synchronous: the caller gets the exception, not
        a future that later fails."""
        rec = Recorder()
        policy = BatchPolicy(max_batch_size=64, max_wait_s=60.0, max_queue_depth=1)
        with MicroBatcher(rec, policy) as mb:
            mb.submit("k", 1)
            with pytest.raises(AdmissionError):
                mb.submit("k", 2)
            mb.flush()
        assert [p for _, p in rec.batches] == [[1]]

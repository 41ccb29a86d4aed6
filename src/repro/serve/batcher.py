"""Dynamic micro-batching scheduler.

Requests enter per-group queues (the group key encodes everything that
must match for requests to share a kernel launch — session, shape,
precision), gated by the policy's optional admission control
(queue-depth and latency-budget checks that raise
:class:`~repro.errors.AdmissionError` instead of letting a backlog grow
without bound). A scheduler thread hands batches to a
:class:`~concurrent.futures.ThreadPoolExecutor` worker that runs the
caller-supplied ``execute`` function once for the whole batch. Each
request's :class:`~concurrent.futures.Future` resolves to its slice of
the batch result.

The scheduler is work-conserving (the continuous-batching rule): a
group leaves the moment a pool worker is idle, provided it is full or
its oldest request has waited ``max_wait_s`` (``0`` by default, so a
lone request runs at once). Ready groups leave oldest head first. While
every worker is busy the scheduler waits for a batch to finish, and the
requests that arrive meanwhile pile up and coalesce.

A request's :class:`~concurrent.futures.Future` is its only handle,
with the standard contract: it can be cancelled while queued, and once
its batch starts running it can no longer be cancelled. asyncio code
awaits it through :func:`asyncio.wrap_future`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

from repro.errors import AdmissionError, EngineClosedError
from repro.obs.profile import NULL_PROFILER

#: the mean batch wall time is a plain running mean over the first
#: this-many batches, then an exponential one with weight 1/_WALL_WINDOW
_WALL_WINDOW = 16


@dataclass(frozen=True)
class BatchPolicy:
    """When a group of queued requests is flushed to a worker.

    A group leaves when a pool worker is idle **and** it holds
    ``max_batch_size`` requests or its oldest request has waited
    ``max_wait_s``. Coalescing comes from load, not from waiting: while
    every worker is busy, requests queue up and leave together. The
    default ``max_wait_s=0`` never holds a request back from an idle
    worker; a positive value is an opt-in linger that trades that much
    latency for bigger launches at low load.

    The two admission knobs gate :meth:`MicroBatcher.submit` *before* a
    request enters its queue: ``max_queue_depth`` bounds a group's
    pending backlog outright, and ``admission_budget_s`` rejects a
    request whose estimated queue delay (see
    :meth:`estimated_queue_delay_s`) would exceed the budget. Both
    raise the typed :class:`~repro.errors.AdmissionError` and bump the
    batcher's rejection counters; ``None`` (the default) admits
    everything.
    """

    max_batch_size: int = 8
    max_wait_s: float = 0.0
    max_queue_depth: int | None = None
    admission_budget_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None)")
        if self.admission_budget_s is not None and self.admission_budget_s < 0:
            raise ValueError("admission_budget_s must be >= 0 (or None)")

    def estimated_queue_delay_s(self, depth: int, batch_wall_s: float = 0.0) -> float:
        """Conservative queue-delay model for a request entering at
        ``depth``: ``max_wait_s + window * (depth // max_batch_size)``,
        its own linger plus one window per full batch ahead of it, where
        ``window = max(max_wait_s, batch_wall_s)`` and ``batch_wall_s``
        is the batcher's measured mean batch wall time (``0`` before
        any batch has run). A request's own execute time is not queue
        delay, so a slow batch never makes a lone request inadmissible."""
        window = max(self.max_wait_s, batch_wall_s)
        return self.max_wait_s + window * (depth // self.max_batch_size)


@dataclass
class _Pending:
    payload: object
    future: Future
    enqueued_at: float


@dataclass
class BatchItem:
    """One request as the execute function sees it."""

    payload: object
    queue_wait_s: float


@dataclass
class _Group:
    pending: list[_Pending] = field(default_factory=list)

    @property
    def head_at(self) -> float:
        """Arrival time of the oldest queued request."""
        return self.pending[0].enqueued_at


class MicroBatcher:
    """Coalesces same-group requests into single batched executions.

    ``execute(key, items)`` receives the group key and the batch's
    :class:`BatchItem` list and must return one result per item, in
    order. It runs on a pool worker; up to ``max_workers`` batches
    execute concurrently (more only while :meth:`flush` or
    :meth:`close` force the queues out).
    """

    def __init__(
        self,
        execute: Callable[[Hashable, Sequence[BatchItem]], Sequence[object]],
        policy: BatchPolicy | None = None,
        max_workers: int = 4,
        profiler=None,
    ) -> None:
        self._execute = execute
        self.policy = policy if policy is not None else BatchPolicy()
        # the engine threads its (possibly null) sampling profiler in;
        # a bare batcher runs unprofiled
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self._groups: dict[Hashable, _Group] = {}
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._max_workers = max_workers
        #: batches handed to the pool and not yet finished
        self._in_flight = 0
        #: mean batch wall time over (about) the last _WALL_WINDOW
        #: batches — the admission estimate's window
        self._batch_wall_s = 0.0
        self._batches_timed = 0
        self._closed = False
        #: requests refused by admission control, total and per group key
        self.rejected = 0
        self._rejected_by_key: dict[Hashable, int] = {}
        self._thread = threading.Thread(
            target=self._scheduler_loop, name="repro-serve-scheduler", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(self, key: Hashable, payload: object) -> Future:
        """Queue one request; the future resolves to its own result.

        Raises :class:`~repro.errors.AdmissionError` when the policy's
        admission gates refuse the request (see :class:`BatchPolicy`)
        and :class:`~repro.errors.EngineClosedError` (a
        ``RuntimeError`` subclass) once :meth:`close` has run.
        """
        future: Future = Future()
        with self._wakeup:
            if self._closed:
                raise EngineClosedError("MicroBatcher is closed")
            self._admit(key)
            self._groups.setdefault(key, _Group()).pending.append(
                _Pending(payload, future, time.monotonic())
            )
            self._wakeup.notify()
        return future

    def _admit(self, key: Hashable) -> None:
        """Apply the policy's admission gates (call with lock held)."""
        policy = self.policy
        if policy.max_queue_depth is None and policy.admission_budget_s is None:
            return
        group = self._groups.get(key)
        depth = len(group.pending) if group is not None else 0
        if policy.max_queue_depth is not None and depth >= policy.max_queue_depth:
            self._reject(key)
            raise AdmissionError(
                f"group {key!r} queue depth {depth} is at max_queue_depth="
                f"{policy.max_queue_depth}"
            )
        if policy.admission_budget_s is not None:
            estimate = policy.estimated_queue_delay_s(depth, self._batch_wall_s)
            if estimate > policy.admission_budget_s:
                self._reject(key)
                raise AdmissionError(
                    f"group {key!r} estimated queue delay {estimate:.6f}s "
                    f"exceeds admission_budget_s={policy.admission_budget_s}"
                )

    def _reject(self, key: Hashable) -> None:
        self.rejected += 1
        self._rejected_by_key[key] = self._rejected_by_key.get(key, 0) + 1

    def rejections(self, key: Hashable | None = None) -> int:
        """Requests refused by admission control (one group, or all)."""
        with self._lock:
            if key is None:
                return self.rejected
            return self._rejected_by_key.get(key, 0)

    def queue_depth(self, key: Hashable | None = None) -> int:
        """Requests currently queued (one group, or all groups)."""
        with self._lock:
            if key is None:
                return sum(len(g.pending) for g in self._groups.values())
            group = self._groups.get(key)
            return len(group.pending) if group is not None else 0

    def flush(self) -> None:
        """Dispatch every queued request immediately (no wait policy)."""
        with self._wakeup:
            batches = self._take_batches(force=True)
        self._dispatch(batches)

    def close(self) -> None:
        """Flush remaining work and stop the scheduler and pool."""
        with self._wakeup:
            if self._closed:
                return
            self._closed = True
            batches = self._take_batches(force=True)
            self._wakeup.notify()
        self._dispatch(batches)
        self._thread.join(timeout=5.0)
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _take_batches(self, force: bool = False) -> list[tuple[Hashable, list[_Pending]]]:
        """Pop the batches that may run now (call with lock held).

        One batch per idle worker, from the ready groups (full, or head
        waited ``max_wait_s``), oldest head first. ``force`` (flush and
        close) takes every queued request regardless of workers.
        """
        size = self.policy.max_batch_size
        ready = []
        if force:
            for key, group in self._groups.items():
                for start in range(0, len(group.pending), size):
                    ready.append((key, group.pending[start : start + size]))
            self._groups.clear()
            self._in_flight += len(ready)
            return ready
        now = time.monotonic()
        while self._in_flight < self._max_workers:
            candidates = [
                (key, group)
                for key, group in self._groups.items()
                if len(group.pending) >= size
                or now - group.head_at >= self.policy.max_wait_s
            ]
            if not candidates:
                break
            key, group = min(candidates, key=lambda kv: kv[1].head_at)
            ready.append((key, group.pending[:size]))
            del group.pending[:size]
            if not group.pending:
                del self._groups[key]
            self._in_flight += 1
        return ready

    def _idle_timeout(self) -> float | None:
        """How long the scheduler may sleep (call with lock held):
        until woken by a submit or a finished batch when nothing is
        queued or every worker is busy, else until the oldest head's
        linger runs out."""
        if not self._groups or self._in_flight >= self._max_workers:
            return None
        head_at = min(g.head_at for g in self._groups.values())
        return max(head_at + self.policy.max_wait_s - time.monotonic(), 0.0)

    def _scheduler_loop(self) -> None:
        while True:
            with self._wakeup:
                if self._closed:
                    return
                batches = self._take_batches()
                if not batches:
                    self._wakeup.wait(timeout=self._idle_timeout())
                    continue
            self._dispatch(batches)

    def _dispatch(self, batches: list[tuple[Hashable, list[_Pending]]]) -> None:
        for key, pending in batches:
            self._pool.submit(self._run_batch, key, pending)

    def _run_batch(self, key: Hashable, pending: list[_Pending]) -> None:
        started = time.monotonic()
        try:
            # riders cancelled while queued drop out here; the rest are
            # running from now on, so cancel() can no longer take them
            pending = [
                p for p in pending if p.future.set_running_or_notify_cancel()
            ]
            if not pending:
                return
            items = [
                BatchItem(payload=p.payload, queue_wait_s=started - p.enqueued_at)
                for p in pending
            ]
            try:
                with self.profiler.sample("batcher-dispatch"):
                    results = self._execute(key, items)
                if len(results) != len(pending):
                    raise RuntimeError(
                        f"execute returned {len(results)} results for "
                        f"{len(pending)} requests"
                    )
            except BaseException as exc:  # propagate to every waiter
                for p in pending:
                    p.future.set_exception(exc)
                return
            for p, result in zip(pending, results):
                p.future.set_result(result)
        finally:
            wall = time.monotonic() - started
            with self._wakeup:
                self._in_flight -= 1
                if pending:  # a batch that ran: fold in its wall time
                    self._batches_timed += 1
                    self._batch_wall_s += (wall - self._batch_wall_s) / min(
                        self._batches_timed, _WALL_WINDOW
                    )
                self._wakeup.notify()

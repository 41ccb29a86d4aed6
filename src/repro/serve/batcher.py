"""Dynamic micro-batching scheduler.

Requests enter per-group queues (the group key encodes everything that
must match for requests to share a kernel launch — session, shape,
precision), gated by the policy's optional admission control
(queue-depth and latency-budget checks that raise
:class:`~repro.errors.AdmissionError` instead of letting a backlog grow
without bound). A scheduler thread flushes a group as soon as it reaches
``max_batch_size`` or its oldest request has waited ``max_wait_s``, and
hands the batch to a :class:`~concurrent.futures.ThreadPoolExecutor`
worker that runs the caller-supplied ``execute`` function once for the
whole batch. Each request's :class:`~concurrent.futures.Future` resolves
to its slice of the batch result.

Two client APIs sit on top of :meth:`MicroBatcher.submit`:

- the raw :class:`~concurrent.futures.Future` it returns, and
- :meth:`MicroBatcher.submit_async`, which wraps the future in a
  ticketed :class:`RequestHandle` — pollable (``done()``), blocking
  (``result(timeout)`` / :meth:`MicroBatcher.result`), and *awaitable*
  from asyncio code (``await handle``).
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

from repro.errors import AdmissionError, EngineClosedError
from repro.obs.profile import NULL_PROFILER


@dataclass(frozen=True)
class BatchPolicy:
    """When a group of queued requests is flushed to a worker.

    The two admission knobs gate :meth:`MicroBatcher.submit` *before* a
    request enters its queue: ``max_queue_depth`` bounds a group's
    pending backlog outright, and ``admission_budget_s`` rejects a
    request whose estimated queue delay —
    ``max_wait_s * (1 + depth // max_batch_size)``, one wait window per
    full batch already ahead of it — would exceed the budget. Both
    raise the typed :class:`~repro.errors.AdmissionError` and bump the
    batcher's rejection counters; ``None`` (the default) admits
    everything, preserving the PR 1 behaviour.
    """

    max_batch_size: int = 8
    max_wait_s: float = 0.002
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

    def estimated_queue_delay_s(self, depth: int) -> float:
        """Conservative queue-delay model for a request entering at
        ``depth``: every full batch ahead of it costs one wait window."""
        return self.max_wait_s * (1 + depth // self.max_batch_size)


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
    def deadline(self) -> float:
        return self.pending[0].enqueued_at if self.pending else float("inf")


class RequestHandle:
    """Ticket for one in-flight request.

    Wraps the request's :class:`~concurrent.futures.Future` behind a
    stable integer ``id`` (the cross-process-style ticket the client's
    ``submit_async()``/``result()`` API hands out) and is directly
    awaitable from asyncio code::

        handle = client.submit_async(api.SpmmRequest(lhs=w, rhs=x))
        result = await handle          # or handle.result(timeout=...)
    """

    __slots__ = ("id", "_future")

    def __init__(self, request_id: int, future: Future) -> None:
        self.id = request_id
        self._future = future

    def done(self) -> bool:
        return self._future.done()

    def cancelled(self) -> bool:
        return self._future.cancelled()

    def result(self, timeout: float | None = None):
        return self._future.result(timeout)

    def exception(self, timeout: float | None = None):
        return self._future.exception(timeout)

    def __await__(self):
        import asyncio

        return asyncio.wrap_future(self._future).__await__()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done() else "pending"
        return f"RequestHandle(id={self.id}, {state})"


class MicroBatcher:
    """Coalesces same-group requests into single batched executions.

    ``execute(key, items)`` receives the group key and the batch's
    :class:`BatchItem` list and must return one result per item, in
    order. It runs on a pool worker; multiple groups execute
    concurrently.
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
        self._closed = False
        #: requests refused by admission control, total and per group key
        self.rejected = 0
        self._rejected_by_key: dict[Hashable, int] = {}
        self._ticket_counter = itertools.count(1)
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
            estimate = policy.estimated_queue_delay_s(depth)
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

    def submit_async(self, key: Hashable, payload: object) -> RequestHandle:
        """Queue one request and return its awaitable ticket."""
        return self.wrap(self.submit(key, payload))

    def wrap(self, future: Future) -> RequestHandle:
        """Issue a ticketed :class:`RequestHandle` for ``future``."""
        return RequestHandle(next(self._ticket_counter), future)

    @staticmethod
    def result(handle: RequestHandle, timeout: float | None = None):
        """Block until the ticketed request resolves; return its result."""
        return handle.result(timeout)

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
        """Pop every group that is ready to run (call with lock held)."""
        now = time.monotonic()
        size = self.policy.max_batch_size
        ready = []
        for key, group in list(self._groups.items()):
            while group.pending:
                full = len(group.pending) >= size
                expired = now - group.deadline >= self.policy.max_wait_s
                if not (force or full or expired):
                    break
                ready.append((key, group.pending[:size]))
                group.pending = group.pending[size:]
            if not group.pending:
                del self._groups[key]
        return ready

    def _next_deadline(self) -> float | None:
        """Earliest flush deadline across groups (call with lock held)."""
        deadlines = [
            g.deadline + self.policy.max_wait_s
            for g in self._groups.values()
            if g.pending
        ]
        return min(deadlines) if deadlines else None

    def _scheduler_loop(self) -> None:
        while True:
            with self._wakeup:
                if self._closed:
                    return
                deadline = self._next_deadline()
                timeout = (
                    None if deadline is None else max(deadline - time.monotonic(), 0.0)
                )
                if timeout is None or timeout > 0:
                    self._wakeup.wait(timeout=timeout)
                if self._closed:
                    return
                batches = self._take_batches()
            self._dispatch(batches)

    def _dispatch(self, batches: list[tuple[Hashable, list[_Pending]]]) -> None:
        for key, pending in batches:
            self._pool.submit(self._run_batch, key, pending)

    def _run_batch(self, key: Hashable, pending: list[_Pending]) -> None:
        started = time.monotonic()
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
                if not p.future.cancelled():
                    p.future.set_exception(exc)
            return
        for p, result in zip(pending, results):
            if not p.future.cancelled():
                p.future.set_result(result)

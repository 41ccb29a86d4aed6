"""The v1 client facade: one engine handle, two verbs.

:func:`open_engine` stands up a serving engine and returns a
:class:`Client` that accepts every typed request the same two ways::

    import repro
    from repro.api import SpmmRequest, AttentionRequest

    with repro.open_engine(device="A100", warm_start="plans.json") as client:
        r = client.run(SpmmRequest(lhs=A, rhs=x))            # sync
        fut = client.submit(AttentionRequest(1024))          # Future
        r = await asyncio.wrap_future(client.submit(req))    # from asyncio

Request classes are prepared lazily and memoized: the first
``SpmmRequest`` carrying a given operand (or ``session=`` name) builds
the prepared session — SR-BCRS conversion, operand-width
classification, backend pinning — and every later request on the same
operand reuses it. Warm-start artifacts, the batcher's admission
policy, and the metrics registry all thread through :func:`open_engine`'s
constructor, so there is exactly one place to configure a deployment.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.api.requests import Request, Response, check_operand, class_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path
    from typing import Sequence

    from repro.autotune.policy import RetunePolicy
    from repro.autotune.scheduler import RetuneScheduler, RetuneStatus
    from repro.obs.health import HealthReport
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer
    from repro.serve.batcher import BatchPolicy
    from repro.serve.cache import PlanCache
    from repro.serve.engine import Engine, Session
    from repro.serve.planner import ExecutionPlanner
    from repro.serve.telemetry import Telemetry

__all__ = ["Client", "open_engine"]


def open_engine(
    device: str = "A100",
    *,
    backend: str | None = None,
    policy: "BatchPolicy | None" = None,
    warm_start: "str | Path | Sequence[str | Path] | None" = None,
    cache: "PlanCache | None" = None,
    planner: "ExecutionPlanner | None" = None,
    max_workers: int = 4,
    retune: "RetunePolicy | None" = None,
    metrics: "MetricsRegistry | None" = None,
    tracer: "Tracer | None" = None,
    trace: bool = False,
) -> "Client":
    """Open a serving engine and return its :class:`Client` facade.

    ``device`` / ``backend`` pin the execution stack (the registry's
    fallback chain resolves the default), ``warm_start`` preloads
    shipped autotune artifacts into the plan cache, ``policy`` sets the
    micro-batcher's coalescing and admission knobs. ``cache`` /
    ``planner`` are mutually
    exclusive escape hatches for pre-built planning state. ``retune``
    attaches a background re-tuning scheduler
    (:class:`repro.autotune.RetunePolicy`) that watches the engine's
    telemetry and re-sweeps hot / cold-missed / regressed plan keys —
    see :mod:`repro.autotune.scheduler`.

    ``metrics`` injects a :class:`repro.obs.MetricsRegistry` for the
    engine to publish into (default: a fresh registry per engine);
    ``client.telemetry`` is the read-only serving view over it.
    ``trace=True`` enables request tracing — every
    :class:`~repro.api.requests.Response` then carries its span tree
    (``r.trace``) and ``r.request_id`` — and ``tracer`` passes a
    pre-built :class:`repro.obs.Tracer` instead (for custom retention
    or shared collectors); see ``docs/observability.md``.

    Example::

        import numpy as np
        import repro
        from repro import api

        A = repro.SparseMatrix.from_dense(
            np.eye(64, dtype=np.int8), vector_length=8
        )
        with repro.open_engine(device="A100") as client:
            r = client.run(api.SpmmRequest(lhs=A, rhs=np.ones((64, 8))))
            assert r.output.shape == (64, 8)
    """
    # imported lazily: the engine module imports repro.api for the
    # typed requests, so a top-level import here would cycle
    from repro.serve.engine import Engine

    if tracer is None and trace:
        from repro.obs.trace import Tracer

        tracer = Tracer(enabled=True)
    engine = Engine(
        device=device,
        planner=planner,
        cache=cache,
        policy=policy,
        max_workers=max_workers,
        backend=backend,
        warm_start=warm_start,
        retune=retune,
        metrics=metrics,
        tracer=tracer,
    )
    return Client(engine)


class Client:
    """Typed request intake over one :class:`~repro.serve.engine.Engine`.

    Both verbs accept any request type: :meth:`run` blocks and returns
    the :class:`~repro.api.requests.Response`; :meth:`submit` returns a
    :class:`concurrent.futures.Future` for it, which asyncio code
    awaits through :func:`asyncio.wrap_future`.
    """

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine
        # one prepared session per request class, for the client's
        # lifetime: serving assumes a bounded set of request classes
        # (models you deploy), so sessions — and the operands retained
        # to keep id()-based keys valid — are never evicted. Name your
        # classes with `session=` and reuse operands; a client is not a
        # cache for unbounded ad-hoc operands.
        self._sessions: dict[tuple, Session] = {}
        #: operands keyed by id() must stay alive for the key to hold
        self._retained: dict[tuple, object] = {}
        self._counter = 0

    # -- request routing ------------------------------------------------
    def prepare(self, request: Request) -> "Session":
        """The prepared :class:`~repro.serve.engine.Session` serving this
        request's class, building it on first use. Advanced handle —
        exposes the prepared ``operand`` and, for SpMM, ``plan_for`` /
        ``weight_bits``; :meth:`run` / :meth:`submit` call this
        implicitly."""
        key = class_key(request)
        session = self._sessions.get(key)
        if session is None:
            name = request.session
            if name is None:
                self._counter += 1
                name = f"{request.op}#{self._counter}"
            session = self._engine._open_session(name, request)
            self._sessions[key] = session
            if request.operand_field is not None:
                self._retained[key] = getattr(request, request.operand_field)
        return session

    def _route(self, request: Request) -> tuple["Session", Request]:
        """The request's session, and the request carrying the session's
        prepared operand (its memoized layouts)."""
        key = class_key(request)
        session = self.prepare(request)
        field = request.operand_field
        if field is None or request.op != session.op:
            return session, request  # a different kind: the session refuses it
        check_operand(
            request, session.name, session.operand, self._retained.get(key)
        )
        return session, replace(request, **{field: session.operand})

    # -- the two verbs --------------------------------------------------
    def submit(self, request: Request) -> Future:
        """Enqueue one request; the future resolves to its
        :class:`~repro.api.requests.Response`."""
        session, req = self._route(request)
        return session.submit(req)

    def run(self, request: Request) -> Response:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(request).result()

    # -- engine passthrough ---------------------------------------------
    @property
    def engine(self) -> "Engine":
        return self._engine

    @property
    def telemetry(self) -> "Telemetry":
        return self._engine.telemetry

    @property
    def planner(self) -> "ExecutionPlanner":
        return self._engine.planner

    @property
    def metrics(self) -> "MetricsRegistry":
        """The metrics registry the engine publishes into."""
        return self._engine.metrics

    @property
    def tracer(self) -> "Tracer":
        """The engine's request tracer (disabled unless opened with
        ``trace=True`` / ``tracer=``)."""
        return self._engine.tracer

    def health(self, specs=None) -> "HealthReport":
        """Grade the engine's metrics against SLO objectives, now.

        One-shot evaluation over the engine's registry (see
        :func:`repro.obs.health.evaluate_registry`); ``specs`` defaults
        to :data:`repro.obs.health.DEFAULT_SLOS`. Burn rates publish
        back into the registry under the ``repro_slo_*`` metrics.

        Example::

            import numpy as np
            import repro
            from repro import api
            from repro.obs.metrics import MetricsRegistry

            A = repro.SparseMatrix.from_dense(
                np.eye(32, dtype=np.int8), vector_length=8
            )
            with repro.open_engine(metrics=MetricsRegistry()) as client:
                client.run(api.SpmmRequest(lhs=A, rhs=np.ones((32, 4))))
                report = client.health()
                assert report.status in ("healthy", "degraded", "breach")
        """
        from repro.obs.health import DEFAULT_SLOS, evaluate_registry

        return evaluate_registry(
            self._engine.metrics,
            specs if specs is not None else DEFAULT_SLOS,
            publish=True,
        )

    @property
    def device(self) -> str:
        return self._engine.device

    @property
    def backend(self) -> str:
        return self._engine.backend

    @property
    def closed(self) -> bool:
        """Whether the underlying engine has been closed."""
        return self._engine.closed

    @property
    def retune(self) -> "RetuneScheduler | None":
        """The attached re-tuning scheduler, or ``None`` without one."""
        return self._engine.retune

    def retune_status(self) -> "RetuneStatus":
        """Status of the engine's re-tuning scheduler.

        Raises the typed :class:`~repro.errors.RetuneError` when the
        engine was opened without ``retune=``.

        Example::

            import repro
            from repro.autotune import RetunePolicy

            with repro.open_engine(retune=RetunePolicy()) as client:
                status = client.retune_status()
                assert status.running and status.cycles == 0
        """
        return self._engine.retune_status()

    def flush(self) -> None:
        """Dispatch everything queued without waiting out the policy."""
        self._engine.flush()

    def close(self) -> None:
        """Close the underlying engine (idempotent)."""
        self._engine.close()

    def summary(self) -> dict:
        return self._engine.summary()

    def report(self) -> str:
        return self._engine.report()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else "open"
        return (
            f"Client(device={self.device!r}, backend={self.backend!r}, "
            f"sessions={len(self._sessions)}, {state})"
        )

"""The fleet worker: one warm-started engine behind a pipe RPC loop.

A worker is a child process (spawn context) running
:func:`worker_main`: it opens a normal in-process
:func:`~repro.api.client.open_engine` client — warm-started from the
fleet pack, with its *own* :class:`~repro.obs.MetricsRegistry` (a
registry holds locks and cannot cross a process boundary) — and serves
RPC messages from its end of a duplex ``multiprocessing.Pipe``.

The RPC protocol is deliberately small. Requests from the gateway are
dicts with an ``op``:

``prepare``
    Carries a full typed request *including its operand* plus the
    gateway-assigned session name. The worker builds the prepared
    session and retains the operand; this is the only message that
    ships a matrix, once per (worker, session).
``run``
    Carries the request with its operand stripped (``lhs``/``mask`` is
    ``None``) and the session name. The worker substitutes its retained
    operand — restoring the identity the client facade's
    operand-check demands — and submits; the reply is sent from the
    future's done-callback, so the recv loop never blocks on execution
    and same-session requests still coalesce in the worker's batcher.
``flush`` / ``stats`` / ``shutdown``
    Drain the batcher; report the engine ``summary`` and the metrics
    snapshot; close the engine and exit.

Replies are ``{"id", "ok": True, "result": ...}`` or ``{"id", "ok":
False, "error": {"type", "message"}}`` — the gateway rebuilds the
typed exception from the ``type`` name, so a worker-side
``AdmissionError`` stays an ``AdmissionError`` at the front door. A
daemon thread interleaves unsolicited ``{"heartbeat": ...}`` frames
(wall time, in-flight count, requests served) that the gateway's
monitor uses for liveness; all sends share one lock since ack, reply
and heartbeat threads write the same pipe.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.api.requests import Request
from repro.errors import FleetError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

    from repro.autotune.policy import RetunePolicy
    from repro.serve.batcher import BatchPolicy

__all__ = ["WorkerSpec", "worker_main"]

#: seconds between unsolicited heartbeat frames
DEFAULT_HEARTBEAT_S = 0.2


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to boot — picklable, since it crosses
    the spawn boundary as a ``Process`` argument."""

    name: str
    device: str = "A100"
    backend: str | None = None
    policy: "BatchPolicy | None" = None
    retune: "RetunePolicy | None" = None
    #: plan-cache files to warm-start from (a pack's ``plan_paths()``)
    warm_start: tuple[str, ...] = ()
    heartbeat_s: float = DEFAULT_HEARTBEAT_S


class _WorkerServer:
    """The in-process state behind one worker's recv loop."""

    def __init__(self, spec: WorkerSpec, conn: "Connection") -> None:
        from repro.api.client import open_engine
        from repro.obs.metrics import MetricsRegistry

        self.spec = spec
        self.conn = conn
        self.client = open_engine(
            device=spec.device,
            backend=spec.backend,
            policy=spec.policy,
            retune=spec.retune,
            warm_start=list(spec.warm_start) or None,
            metrics=MetricsRegistry(),
        )
        #: gateway-assigned session name -> retained operand (or None
        #: for attention / transformer, whose class is pure topology)
        self._operands: dict[str, object] = {}
        self._send_lock = threading.Lock()
        self._inflight_lock = threading.Lock()
        self._inflight = 0
        self._served = 0
        self._stop = threading.Event()

    # -- pipe ------------------------------------------------------------
    def _send(self, message: dict) -> None:
        with self._send_lock:
            try:
                self.conn.send(message)
            except (BrokenPipeError, OSError):
                # gateway went away; the monitor loop will notice EOF
                self._stop.set()

    def _reply(self, msg_id: int, result: object) -> None:
        try:
            self._send({"id": msg_id, "ok": True, "result": result})
        except Exception as exc:  # unpicklable payload, not a dead pipe
            self._send({"id": msg_id, "ok": False, "error": {
                "type": "FleetError",
                "message": f"worker reply failed to serialize: {exc}",
            }})

    def _fail(self, msg_id: int, exc: BaseException) -> None:
        self._send({"id": msg_id, "ok": False, "error": {
            "type": type(exc).__name__, "message": str(exc),
        }})

    # -- heartbeats ------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.spec.heartbeat_s):
            with self._inflight_lock:
                inflight, served = self._inflight, self._served
            self._send({"heartbeat": {
                "time": time.time(), "inflight": inflight, "served": served,
            }})

    # -- message handlers ------------------------------------------------
    def _handle_prepare(self, msg: dict) -> dict:
        request: Request = msg["request"]
        name = request.session
        if not name:
            raise FleetError("prepare message carries no session name")
        if name not in self._operands:
            self.client.prepare(request)
            field = request.operand_field
            self._operands[name] = (
                getattr(request, field) if field is not None else None
            )
        return {"session": name, "sessions": len(self._operands)}

    def _rebuild(self, request: Request) -> Request:
        """Re-attach the retained operand a run message stripped."""
        name = request.session
        if name not in self._operands:
            raise FleetError(
                f"run for unprepared session {name!r} "
                f"(known: {sorted(self._operands)})"
            )
        field = request.operand_field
        if field is None:
            return request
        return replace(request, **{field: self._operands[name]})

    def _handle_run(self, msg: dict) -> None:
        msg_id = msg["id"]
        try:
            future = self.client.submit(self._rebuild(msg["request"]))
        except BaseException as exc:
            self._fail(msg_id, exc)
            return
        with self._inflight_lock:
            self._inflight += 1

        def _done(fut) -> None:
            with self._inflight_lock:
                self._inflight -= 1
                self._served += 1
            exc = fut.exception()
            if exc is not None:
                self._fail(msg_id, exc)
            else:
                self._reply(msg_id, fut.result())

        future.add_done_callback(_done)

    def _handle_stats(self) -> dict:
        engine = self.client.engine
        return {
            "name": self.spec.name,
            "summary": engine.summary(),
            "metrics": self.client.metrics.to_dict(),
            "sessions": sorted(self._operands),
        }

    # -- the loop --------------------------------------------------------
    def serve(self) -> None:
        beat = threading.Thread(
            target=self._heartbeat_loop, name=f"{self.spec.name}-heartbeat",
            daemon=True,
        )
        beat.start()
        try:
            while not self._stop.is_set():
                try:
                    msg = self.conn.recv()
                except (EOFError, OSError):
                    break
                op = msg.get("op")
                msg_id = msg.get("id", -1)
                if op == "run":
                    self._handle_run(msg)
                    continue
                try:
                    if op == "prepare":
                        self._reply(msg_id, self._handle_prepare(msg))
                    elif op == "flush":
                        self.client.engine.flush()
                        self._reply(msg_id, {"flushed": True})
                    elif op == "stats":
                        self._reply(msg_id, self._handle_stats())
                    elif op == "shutdown":
                        self._reply(msg_id, {"stopping": True})
                        break
                    else:
                        raise FleetError(f"unknown fleet RPC op {op!r}")
                except BaseException as exc:
                    self._fail(msg_id, exc)
        finally:
            self._stop.set()
            try:
                self.client.engine.close()
            except Exception:
                pass


def worker_main(spec: WorkerSpec, conn: "Connection") -> None:
    """Process entry point: boot the engine, serve the pipe until EOF
    or ``shutdown``. Module-level so the spawn context can import it."""
    server = _WorkerServer(spec, conn)
    server.serve()

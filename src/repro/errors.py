"""Exception hierarchy for the repro (Magicube reproduction) library.

All library-raised exceptions derive from :class:`ReproError` so that
clients can catch one exception family at the :mod:`repro.api`
boundary::

    try:
        client.run(request)
    except repro.ReproError as exc:
        ...  # every typed library error lands here
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class PrecisionError(ReproError):
    """An unsupported precision (pair) was requested.

    Raised e.g. when asking SpMM for an ``Lx-Ry`` combination outside
    Table IV of the paper, or when operand bit widths do not match the
    declared precision.
    """


class FormatError(ReproError):
    """A sparse-format invariant was violated.

    Covers malformed row pointers, out-of-range column indices, vector
    length / stride mismatches, and invalid conversions.
    """


class ShapeError(ReproError):
    """Operand shapes are inconsistent with the requested operation."""


class LayoutError(ReproError):
    """A Tensor-core data-layout requirement was violated.

    The MMA primitives require a row-major LHS and a column-major RHS
    fragment; this error signals a fragment fed in the wrong layout or
    with the wrong per-thread distribution.
    """


class DeviceError(ReproError):
    """An unknown device or unsupported device capability was requested."""


class QuantizationError(ReproError):
    """Invalid quantization parameters (zero scale, bad bit width, ...)."""


class ConfigError(ReproError):
    """Invalid kernel/launch configuration (tile sizes, warp counts...)."""


class MaskError(ConfigError):
    """An attention-mask builder was given invalid parameters.

    Raised by the :mod:`repro.transformer.masks` zoo when a sequence
    length is not divisible by the vector length V, a sparsity target
    falls outside ``[0, 1)``, or a window/stride/offset parameter is
    non-positive. A subclass of :class:`ConfigError`, so pre-existing
    ``except ConfigError`` handlers around mask construction keep
    working.
    """


class AdmissionError(ReproError):
    """The serving layer refused to enqueue a request.

    Raised by the micro-batcher's admission control when a group's
    queue depth exceeds ``BatchPolicy.max_queue_depth`` or the
    estimated queue delay would blow ``BatchPolicy.admission_budget_s``.
    Rejected requests are counted, never silently dropped.
    """


class PlanCacheError(ReproError, ValueError):
    """A persisted plan cache or autotune artifact could not be read.

    Wraps corrupt / truncated JSON, unsupported schema versions and
    missing payload fields behind one typed error so startup code can
    distinguish "bad cache file" from a programming error. Also a
    ``ValueError`` so pre-existing callers that caught the old untyped
    rejection keep working.
    """


class SweepError(ReproError):
    """An autotuning sweep was misconfigured or produced no points."""


class RetuneError(ReproError):
    """The telemetry-driven re-tuning scheduler failed or is absent.

    Raised by :meth:`repro.serve.engine.Engine.retune_status` /
    :meth:`repro.api.Client.retune_status` when the engine was opened
    without ``retune=``, and by the scheduler when a re-tune cycle
    cannot synthesize or promote plans.
    """


class FleetError(ReproError):
    """A multi-process fleet (gateway / worker pool) invariant failed.

    Covers placement over an empty ring, malformed fleet packs, RPC
    protocol violations and worker-pool misconfiguration. Worker
    crashes surface as the more specific :class:`WorkerCrashError`.
    """


class WorkerCrashError(FleetError):
    """A fleet worker died and took an in-flight request with it.

    The gateway retries a request lost to a dying worker exactly once
    (on the respawned worker, or rebalanced to the next worker on the
    placement ring); this error is what the request's future resolves
    to when the retry is also lost, or when the worker slot exceeded
    its respawn budget.
    """


class EngineClosedError(ReproError, RuntimeError):
    """A request was submitted to (or redeemed from) a closed engine.

    Raised by :meth:`repro.serve.engine.Engine.submit` /
    :meth:`~repro.serve.engine.Engine.result` and by the micro-batcher
    once :meth:`~repro.serve.engine.Engine.close` has run, instead of
    leaking work into a shut-down executor. Also a ``RuntimeError`` so
    pre-existing callers that caught the old untyped rejection keep
    working.
    """

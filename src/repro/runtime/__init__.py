"""repro.runtime — device-aware execution-backend registry.

The runtime layer unifies the three execution stacks that grew in
parallel — the Magicube kernels, the paper's baseline comparators, and
the serving engine's dispatch — behind one pluggable protocol:

- :class:`~repro.runtime.backend.Backend` — ``capabilities()`` /
  ``supports(device, precision)`` / ``prepare()`` / ``execute()`` /
  ``cost(device, op)``, plus the ``plan_candidates`` hook the serving
  planner searches.
- :class:`~repro.runtime.registry.BackendRegistry` — entry-point-style
  registration (instances, factories, or lazy ``"module:Attr"``
  strings) with deterministic priority-ordered fallback.
- :class:`~repro.runtime.device.Device` — a typed, validated handle
  replacing bare ``"A100"`` strings (A100 / V100 / H100 / MI250X
  profiles from Table II).

With no backend named, resolution returns :data:`DEFAULT_BACKEND`
(``fastpath-vectorized``) wherever it supports the request, else the
first supporting backend in fallback order: ``magicube-emulation``
(the bit-level oracle), ``fastpath-vectorized``, ``vector-sparse``,
``cusparselt``, ``cublas-fp16``, ``cublas-int8``,
``cusparse-blocked-ell``, ``sputnik``, ``cusparse-csr``,
``magicube-strict``.

Quick start::

    from repro.runtime import get_backend, resolve_backend, Device

    dev = Device.resolve("A100")
    backend = resolve_backend(op="spmm", device=dev, precision="L8-R8")
    result = backend.execute("spmm", dev, config=cfg, lhs=A, rhs=B)
"""

from repro.runtime.backend import (
    Backend,
    BackendCapabilities,
    Candidate,
    ExecutionResult,
    Problem,
)
from repro.runtime.device import Device
from repro.runtime.registry import (
    DEFAULT_BACKEND,
    REGISTRY,
    BackendRegistry,
    get_backend,
    list_backends,
    plannable_backends,
    register_backend,
    resolve_backend,
)

__all__ = [
    "Backend",
    "BackendCapabilities",
    "BackendRegistry",
    "Candidate",
    "DEFAULT_BACKEND",
    "Device",
    "ExecutionResult",
    "Problem",
    "REGISTRY",
    "get_backend",
    "list_backends",
    "plannable_backends",
    "register_backend",
    "resolve_backend",
]

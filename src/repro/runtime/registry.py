"""Backend registry: entry-point-style registration + ordered fallback.

Backends register under a unique name either as instances, as classes /
factories, or as lazy ``"module.path:Attribute"`` entry-point strings
(resolved on first use, so registering is free and cycle-proof). Lookup
is deterministic: :meth:`BackendRegistry.backends` orders by
``(priority, name)``. :meth:`BackendRegistry.resolve` returns
:data:`DEFAULT_BACKEND` when it supports the requested
(op, device, precision) and otherwise walks that order, returning the
first backend that does — the fallback chain the serving engine and
one-shot :func:`repro.api.run` calls rely on.
"""

from __future__ import annotations

import importlib
import threading
from typing import Callable, Iterable

from repro.errors import ConfigError
from repro.runtime.backend import Backend
from repro.runtime.device import Device

#: the backend resolution picks when none is named (and it supports the
#: request); ``magicube-emulation`` stays registered as the pinned oracle
DEFAULT_BACKEND = "fastpath-vectorized"


class BackendRegistry:
    """Thread-safe name -> :class:`Backend` mapping with lazy factories."""

    def __init__(self) -> None:
        self._factories: dict[str, Callable[[], Backend] | str] = {}
        self._instances: dict[str, Backend] = {}
        self._lock = threading.RLock()

    # -- registration ---------------------------------------------------
    def register(
        self,
        name: str,
        backend: "Backend | Callable[[], Backend] | str",
        replace: bool = False,
    ) -> None:
        """Register a backend under ``name``.

        ``backend`` may be an instance, a zero-argument factory (e.g.
        the class itself), or an entry-point string
        ``"pkg.module:Attr"`` imported on first use. Duplicate names
        raise :class:`ConfigError` unless ``replace=True``.
        """
        with self._lock:
            if not replace and (name in self._factories or name in self._instances):
                raise ConfigError(
                    f"backend {name!r} is already registered; "
                    f"pass replace=True to override"
                )
            self._instances.pop(name, None)
            if isinstance(backend, Backend):
                self._instances[name] = backend
                self._factories.pop(name, None)
            else:
                self._factories[name] = backend

    def unregister(self, name: str) -> None:
        with self._lock:
            had = name in self._factories or name in self._instances
            self._factories.pop(name, None)
            self._instances.pop(name, None)
        if not had:
            raise ConfigError(f"backend {name!r} is not registered")

    # -- lookup ---------------------------------------------------------
    def names(self) -> list[str]:
        with self._lock:
            return sorted(set(self._factories) | set(self._instances))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._factories or name in self._instances

    def get(self, name: str) -> Backend:
        """The backend registered under ``name`` (instantiating lazily)."""
        with self._lock:
            inst = self._instances.get(name)
            if inst is not None:
                return inst
            factory = self._factories.get(name)
            if factory is None:
                raise ConfigError(
                    f"unknown backend {name!r}; registered: {self.names()}"
                )
            if isinstance(factory, str):
                module_name, _, attr = factory.partition(":")
                if not attr:
                    raise ConfigError(
                        f"bad entry point {factory!r} for backend {name!r}; "
                        f"expected 'module.path:Attribute'"
                    )
                target = getattr(importlib.import_module(module_name), attr)
                inst = target() if callable(target) else target
            else:
                inst = factory()
            if not isinstance(inst, Backend):
                raise ConfigError(
                    f"backend factory for {name!r} produced "
                    f"{type(inst).__name__}, not a Backend"
                )
            inst.name = inst.name or name
            self._instances[name] = inst
            return inst

    def backends(self) -> list[Backend]:
        """Every registered backend in deterministic fallback order."""
        found = [self.get(name) for name in self.names()]
        return sorted(found, key=lambda b: (b.priority, b.name))

    # -- resolution -----------------------------------------------------
    def admissible(
        self,
        op: str,
        device: "Device | str",
        precision: str | None = None,
    ) -> list[Backend]:
        """Backends that support (op, device, precision), in fallback
        order."""
        dev = Device.resolve(device)
        return [
            b
            for b in self.backends()
            if b.supports(dev, precision=precision, op=op)
        ]

    def resolve(
        self,
        name: str | None = None,
        op: str = "spmm",
        device: "Device | str" = "A100",
        precision: str | None = None,
    ) -> Backend:
        """The backend to run (op, precision) on ``device``.

        With ``name`` the choice is pinned (and verified). Otherwise
        :data:`DEFAULT_BACKEND` wins when it is registered and supports
        the request; failing that the priority-ordered fallback chain is
        walked and the first supporting backend wins. No match raises
        :class:`ConfigError`.
        """
        dev = Device.resolve(device)
        if name is not None:
            backend = self.get(name)
            backend.require_support(dev, precision=precision, op=op)
            return backend
        if DEFAULT_BACKEND in self:
            backend = self.get(DEFAULT_BACKEND)
            if backend.supports(dev, precision=precision, op=op):
                return backend
        for backend in self.backends():
            if backend.supports(dev, precision=precision, op=op):
                return backend
        raise ConfigError(
            f"no registered backend supports op={op!r} "
            f"precision={precision!r} on {dev.name}; "
            f"registered: {self.names()}"
        )


#: the process-wide registry, pre-loaded with the built-in backends
REGISTRY = BackendRegistry()

_BUILTINS: tuple[tuple[str, str], ...] = (
    ("magicube-emulation", "repro.runtime.magicube:MagicubeEmulationBackend"),
    ("magicube-strict", "repro.runtime.magicube:MagicubeStrictBackend"),
    ("fastpath-vectorized", "repro.fastpath.backend:FastpathVectorizedBackend"),
    ("vector-sparse", "repro.runtime.baselines:VectorSparseBackend"),
    ("cusparselt", "repro.runtime.baselines:CusparseLtBackend"),
    ("cublas-fp16", "repro.runtime.baselines:CublasFp16Backend"),
    ("cublas-int8", "repro.runtime.baselines:CublasInt8Backend"),
    ("cusparse-blocked-ell", "repro.runtime.baselines:CusparseBlockedEllBackend"),
    ("sputnik", "repro.runtime.baselines:SputnikBackend"),
    ("cusparse-csr", "repro.runtime.baselines:CusparseCsrBackend"),
)

for _name, _entry in _BUILTINS:
    REGISTRY.register(_name, _entry)


def register_backend(
    name: str,
    backend: "Backend | Callable[[], Backend] | str",
    replace: bool = False,
) -> None:
    """Register a backend with the process-wide registry."""
    REGISTRY.register(name, backend, replace=replace)


def get_backend(name: str) -> Backend:
    """Look up one backend by name in the process-wide registry."""
    return REGISTRY.get(name)


def list_backends() -> list[str]:
    """Names of every registered backend."""
    return REGISTRY.names()


def resolve_backend(
    name: str | None = None,
    op: str = "spmm",
    device: "Device | str" = "A100",
    precision: str | None = None,
) -> Backend:
    """Resolve (op, device, precision) against the process-wide registry."""
    return REGISTRY.resolve(name, op=op, device=device, precision=precision)


def plannable_backends(
    op: str,
    device: "Device | str",
    names: Iterable[str] | None = None,
    registry: BackendRegistry | None = None,
) -> list[Backend]:
    """Admissible backends that implement the planning hook.

    ``names`` restricts (and orders by) an explicit backend list;
    ``None`` takes every admissible plannable backend in fallback
    order. ``registry`` defaults to the process-wide one — the
    autotuner passes its own when enumerating sweep spaces against an
    isolated registry.
    """
    reg = registry if registry is not None else REGISTRY
    dev = Device.resolve(device)
    if names is not None:
        found = [reg.get(n) for n in names]
    else:
        found = reg.backends()
    return [
        b
        for b in found
        if b.plannable and b.supports(dev, op=op)
    ]

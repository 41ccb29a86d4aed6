"""Sweep-space enumeration over the backend registry.

A sweep space is the cross-product the offline autotuner walks:

    plannable backends x devices x (op, shape, vector length, sparsity)
    x objective minima

enumerated **from the registry**, not hard-coded — registering a new
backend (or adding a device profile) grows the next sweep
automatically. Enumeration is deterministic: backends come out in the
registry's priority-ordered fallback order, devices in
:func:`~repro.gpu.device.list_devices` order, and the topology grid in
the order the config declares, so the same registry and config always
produce the same ordered list of :class:`SweepPoint`\\ s — the property
that makes shipped artifacts reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SweepError
from repro.gpu.device import list_devices
from repro.runtime import (
    DEFAULT_BACKEND,
    REGISTRY,
    BackendRegistry,
    Device,
    Problem,
    plannable_backends,
)
from repro.serve.planner import Objective, PlanKey

__all__ = ["SweepConfig", "SweepPoint", "enumerate_space"]

#: the (rows, cols, inner) topology grid a no-argument sweep walks
DEFAULT_SHAPES: tuple[tuple[int, int, int], ...] = (
    (512, 512, 64),
    (512, 512, 128),
)


@dataclass(frozen=True)
class SweepPoint:
    """One (problem, backend, device, objective) cell of a sweep.

    ``plan_key`` is exactly the key a single-device, pinned-backend
    :class:`~repro.serve.planner.ExecutionPlanner` would memoize the
    search under — the contract that makes a shipped artifact *hit* at
    serving time instead of merely resembling the serving keys.
    """

    op: str
    rows: int
    cols: int
    inner: int
    vector_length: int
    sparsity: float
    backend: str
    device: str
    objective: Objective
    #: the zoo mask variant this cell prices, when the sweep walked a
    #: mask-pattern axis; ``sparsity`` is then the pattern's *realized*
    #: sparsity at this (rows, vector_length) — the same value a served
    #: ``TransformerRequest`` plans at, so the shipped key still hits
    mask_pattern: str | None = None

    @property
    def problem(self) -> Problem:
        return Problem(
            op=self.op,
            rows=self.rows,
            cols=self.cols,
            inner=self.inner,
            vector_length=self.vector_length,
            sparsity=round(self.sparsity, 3),
        )

    @property
    def plan_key(self) -> str:
        return str(PlanKey(
            op=self.op,
            rows=self.rows,
            cols=self.cols,
            inner=self.inner,
            vector_length=self.vector_length,
            sparsity=round(self.sparsity, 3),
            backend=self.backend,
            device=self.device,
            objective=self.objective.token,
        ))

    @property
    def label(self) -> str:
        mask = f" mask={self.mask_pattern}" if self.mask_pattern else ""
        return (
            f"{self.op} {self.rows}x{self.cols} n={self.inner} "
            f"v={self.vector_length} s={self.sparsity:.3f}{mask} "
            f"{self.backend}@{self.device} {self.objective.token}"
        )


@dataclass(frozen=True)
class SweepConfig:
    """What one offline sweep covers.

    ``backends`` defaults to the serving default
    (:data:`~repro.runtime.DEFAULT_BACKEND`), so a default sweep ships
    the keys a default engine plans under. ``backends``/``devices`` of
    ``None`` mean "everything the registry / device table offers" *at
    enumeration time* — the sweep literally reads the live registry.
    ``min_bits`` mirrors how serving sessions
    tighten their objective to the operands' actual bit widths
    (:meth:`Objective.with_min_bits`): sweep the pairs your sessions
    will classify requests into, and the shipped keys line up.
    ``max_bits`` (paired entry-for-entry with ``min_bits`` when given)
    caps the objectives the same way — the re-tuning scheduler uses it
    to reproduce precision-pinned serving objectives exactly.
    """

    ops: tuple[str, ...] = ("spmm",)
    shapes: tuple[tuple[int, int, int], ...] = DEFAULT_SHAPES
    vector_lengths: tuple[int, ...] = (8,)
    sparsities: tuple[float, ...] = (0.9,)
    backends: tuple[str, ...] | None = (DEFAULT_BACKEND,)
    devices: tuple[str, ...] | None = None
    min_bits: tuple[tuple[int, int], ...] = ((4, 4), (8, 8))
    max_bits: tuple[tuple[int, int], ...] | None = None
    objective: str = "latency"
    latency_budget_s: float | None = None
    #: attention-mask zoo patterns (:data:`repro.transformer.masks
    #: .MASK_ZOO` names) to price: each ``sparsities`` entry becomes the
    #: pattern's density *target* and the grid cell is priced at the
    #: realized sparsity of the built mask — the extra plan-key
    #: dimension whole-model transformer requests plan under
    mask_patterns: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.objective not in ("latency", "accuracy"):
            raise SweepError(f"unknown sweep objective {self.objective!r}")
        for op in self.ops:
            if op not in ("spmm", "sddmm"):
                raise SweepError(f"unknown sweep op {op!r}")
        if self.mask_patterns:
            from repro.transformer.masks import MASK_ZOO

            for pattern in self.mask_patterns:
                if pattern not in MASK_ZOO:
                    raise SweepError(
                        f"unknown mask pattern {pattern!r}; zoo has "
                        f"{tuple(sorted(MASK_ZOO))}"
                    )
        if not (self.ops and self.shapes and self.vector_lengths
                and self.sparsities and self.min_bits):
            raise SweepError("sweep config has an empty axis")
        if self.max_bits is not None and len(self.max_bits) != len(self.min_bits):
            raise SweepError(
                f"max_bits must pair with min_bits entry for entry "
                f"({len(self.max_bits)} != {len(self.min_bits)})"
            )

    def objectives(self) -> tuple[Objective, ...]:
        """The objective grid, one per ``min_bits`` pair."""
        maxima = (
            self.max_bits
            if self.max_bits is not None
            else ((16, 16),) * len(self.min_bits)
        )
        out = []
        for (l_bits, r_bits), (max_l, max_r) in zip(self.min_bits, maxima):
            out.append(Objective(
                kind=self.objective,
                min_l_bits=l_bits,
                min_r_bits=r_bits,
                max_l_bits=max_l,
                max_r_bits=max_r,
                latency_budget_s=(
                    self.latency_budget_s if self.objective == "accuracy" else None
                ),
            ))
        return tuple(out)

    # -- provenance ------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "ops": list(self.ops),
            "shapes": [list(s) for s in self.shapes],
            "vector_lengths": list(self.vector_lengths),
            "sparsities": list(self.sparsities),
            "backends": list(self.backends) if self.backends is not None else None,
            "devices": list(self.devices) if self.devices is not None else None,
            "min_bits": [list(p) for p in self.min_bits],
            "max_bits": (
                [list(p) for p in self.max_bits]
                if self.max_bits is not None else None
            ),
            "objective": self.objective,
            "latency_budget_s": self.latency_budget_s,
            "mask_patterns": list(self.mask_patterns),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SweepConfig":
        def _tuples(key, default):
            value = d.get(key)
            if value is None:
                return default
            return tuple(tuple(v) if isinstance(v, list) else v for v in value)

        backends = d.get("backends", [DEFAULT_BACKEND])
        devices = d.get("devices")
        max_bits = d.get("max_bits")
        return cls(
            ops=tuple(d.get("ops", ("spmm",))),
            shapes=_tuples("shapes", DEFAULT_SHAPES),
            vector_lengths=tuple(d.get("vector_lengths", (8,))),
            sparsities=tuple(d.get("sparsities", (0.9,))),
            backends=tuple(backends) if backends is not None else None,
            devices=tuple(devices) if devices is not None else None,
            min_bits=_tuples("min_bits", ((4, 4), (8, 8))),
            max_bits=_tuples("max_bits", None) if max_bits is not None else None,
            objective=d.get("objective", "latency"),
            latency_budget_s=d.get("latency_budget_s"),
            mask_patterns=tuple(d.get("mask_patterns", ())),
        )


def _sparsity_axis(
    config: SweepConfig, rows: int, vector_length: int
) -> list[tuple[float, str | None]]:
    """The (sparsity, mask_pattern) grid for one (rows, v) cell.

    Without mask patterns this is just the configured sparsity axis.
    With them, each configured sparsity is a density *target* handed to
    each zoo builder, and the cell is priced at the built mask's
    realized sparsity — rounded the way the planner rounds plan keys,
    and deduplicated per pattern (two targets realizing the same mask
    would measure the same key twice).
    """
    if not config.mask_patterns:
        return [(s, None) for s in config.sparsities]
    from repro.transformer.masks import build_mask

    axis: list[tuple[float, str | None]] = []
    for pattern in config.mask_patterns:
        seen: set[float] = set()
        for target in config.sparsities:
            mask = build_mask(
                pattern, rows, vector_length=vector_length, sparsity=target
            )
            realized = round(mask.sparsity, 3)
            if realized in seen:
                continue
            seen.add(realized)
            axis.append((realized, pattern))
    return axis


def enumerate_space(
    config: SweepConfig, registry: BackendRegistry | None = None
) -> list[SweepPoint]:
    """The ordered sweep grid one config spans against one registry.

    Cells a backend cannot serve — the (op, device) pair unsupported,
    or rows not divisible by the vector length — are dropped here, so
    the runner only ever sees plannable points. An entirely empty grid
    raises :class:`~repro.errors.SweepError` (a sweep that measures
    nothing is a misconfiguration, not a success).
    """
    reg = registry if registry is not None else REGISTRY
    devices = config.devices if config.devices is not None else tuple(list_devices())
    objectives = config.objectives()
    points: list[SweepPoint] = []
    for op in config.ops:
        for device_name in devices:
            device = Device.resolve(device_name)
            backends = plannable_backends(
                op, device, names=config.backends, registry=reg
            )
            for backend in backends:
                for rows, cols, inner in config.shapes:
                    for v in config.vector_lengths:
                        if rows % v != 0:
                            continue
                        for sparsity, pattern in _sparsity_axis(
                            config, rows, v
                        ):
                            for objective in objectives:
                                points.append(SweepPoint(
                                    op=op,
                                    rows=rows,
                                    cols=cols,
                                    inner=inner,
                                    vector_length=v,
                                    sparsity=sparsity,
                                    backend=backend.name,
                                    device=device.name,
                                    objective=objective,
                                    mask_pattern=pattern,
                                ))
    if not points:
        raise SweepError(
            "sweep space is empty: no (backend, device, topology) cell "
            "survived the registry's support filters"
        )
    return points

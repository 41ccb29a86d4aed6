"""Cost-model-guided execution planning across backends on one device.

Given an operand's shape / sparsity / vector length and an
:class:`Objective` (minimize latency, or maximize fidelity under an
optional latency budget), the :class:`ExecutionPlanner` searches, on
its one device (a Table II profile: A100, H100, MI250X, V100), the
cross-product of

- the admissible **runtime backends** (every registered
  :class:`~repro.runtime.backend.Backend` that implements the planning
  hook — the Magicube kernels, vectorSparse, Sputnik, dense cuBLAS...),
  and
- each backend's own configuration space (Table-IV precision pairs,
  SpMM ``BSn`` tile widths, SDDMM warps-per-block),

costing every candidate with that backend's calibrated cost model.
Every plan describes one launch the engine runs as planned. The
winner is memoized in a :class:`~repro.serve.cache.PlanCache` under a
:class:`PlanKey` that carries the searched backends and the device, so
repeated requests skip the search entirely.

By default the planner pins the backend resolution picks for its
device (:data:`~repro.runtime.DEFAULT_BACKEND` wherever integer Tensor
cores exist, else the head of the fallback chain), so plans land under
the keys a default engine looks up; pass ``backends=`` (or per-call
``backend=``) to open the search.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

from repro.errors import ConfigError
from repro.kernels.sddmm import SDDMMConfig
from repro.kernels.spmm import MagicubeSpMM, SpMMConfig
from repro.runtime import (
    DEFAULT_BACKEND,
    Candidate,
    Device,
    Problem,
    plannable_backends,
)
from repro.runtime.magicube import BSN_CANDIDATES, WARP_CANDIDATES
from repro.serve.cache import PlanCache

__all__ = [
    "BSN_CANDIDATES",
    "WARP_CANDIDATES",
    "ExecutionPlanner",
    "Objective",
    "Plan",
    "PlanKey",
]


#: the shape of :attr:`Objective.token`, e.g.
#: ``latency[L8-16,R8-16]`` or ``accuracy@1.000e-03[L4-16,R4-16]``
_OBJECTIVE_TOKEN = re.compile(
    r"^(latency|accuracy)(?:@([0-9.eE+-]+))?"
    r"\[L(\d+)-(\d+),R(\d+)-(\d+)\]$"
)


@dataclass(frozen=True)
class Objective:
    """What the planner optimizes for one request class.

    ``kind`` is ``"latency"`` (fastest admissible configuration) or
    ``"accuracy"`` (highest-fidelity precision pair, optionally the
    highest that still meets ``latency_budget_s``). The bit bounds
    restrict the admissible Table-IV pairs — raise the minima to the
    operands' actual bit widths so a plan never underflows the data.
    """

    kind: str = "latency"
    min_l_bits: int = 4
    min_r_bits: int = 4
    max_l_bits: int = 16
    max_r_bits: int = 16
    latency_budget_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "accuracy"):
            raise ConfigError(f"unknown objective kind {self.kind!r}")
        if self.min_l_bits > self.max_l_bits or self.min_r_bits > self.max_r_bits:
            raise ConfigError("objective bit bounds are empty")

    # -- constructors ---------------------------------------------------
    @classmethod
    def latency(cls, min_l_bits: int = 4, min_r_bits: int = 4) -> "Objective":
        """Fastest plan whose precision covers the operand ranges."""
        return cls(kind="latency", min_l_bits=min_l_bits, min_r_bits=min_r_bits)

    @classmethod
    def accuracy(
        cls,
        latency_budget_s: float | None = None,
        min_l_bits: int = 4,
        min_r_bits: int = 4,
    ) -> "Objective":
        """Highest-fidelity plan, optionally under a latency budget."""
        return cls(
            kind="accuracy",
            min_l_bits=min_l_bits,
            min_r_bits=min_r_bits,
            latency_budget_s=latency_budget_s,
        )

    @classmethod
    def fixed(cls, l_bits: int, r_bits: int) -> "Objective":
        """Pin one exact precision pair; only the tile knobs are searched."""
        return cls(
            kind="latency",
            min_l_bits=l_bits,
            max_l_bits=l_bits,
            min_r_bits=r_bits,
            max_r_bits=r_bits,
        )

    # -- planner hooks --------------------------------------------------
    def admits(self, l_bits: int, r_bits: int) -> bool:
        return (
            self.min_l_bits <= l_bits <= self.max_l_bits
            and self.min_r_bits <= r_bits <= self.max_r_bits
        )

    def with_min_bits(self, l_bits: int, r_bits: int) -> "Objective":
        """Tighten the minima to the operands' actual bit widths."""
        return replace(
            self,
            min_l_bits=max(self.min_l_bits, l_bits),
            min_r_bits=max(self.min_r_bits, r_bits),
        )

    @property
    def token(self) -> str:
        """Short cache-key token identifying this objective."""
        budget = (
            f"@{self.latency_budget_s:.3e}" if self.latency_budget_s is not None else ""
        )
        return (
            f"{self.kind}{budget}"
            f"[L{self.min_l_bits}-{self.max_l_bits},"
            f"R{self.min_r_bits}-{self.max_r_bits}]"
        )

    @classmethod
    def parse(cls, token: str) -> "Objective":
        """Rebuild an :class:`Objective` from its cache-key token.

        The inverse of :attr:`token` — ``Objective.parse(obj.token) ==
        obj`` (budgets round-trip at the token's 3 significant digits).
        Raises ``ValueError`` on malformed tokens; the re-tuning
        scheduler uses this to turn observed plan keys back into
        sweepable objectives.
        """
        m = _OBJECTIVE_TOKEN.match(token)
        if not m:
            raise ValueError(f"malformed objective token {token!r}")
        kind, budget, min_l, max_l, min_r, max_r = m.groups()
        return cls(
            kind=kind,
            min_l_bits=int(min_l),
            max_l_bits=int(max_l),
            min_r_bits=int(min_r),
            max_r_bits=int(max_r),
            latency_budget_s=float(budget) if budget is not None else None,
        )


@dataclass(frozen=True)
class PlanKey:
    """Memoization key: one request class the planner solves once.

    ``backend`` is the *searched* set — a ``+``-joined token when the
    planner spans several backends — so plans found under different
    search spaces never alias; ``device`` is the planner's device.
    """

    op: str  # "spmm" | "sddmm"
    rows: int
    cols: int
    inner: int  # SpMM: RHS columns N; SDDMM: reduction dim K
    vector_length: int
    sparsity: float  # rounded to 3 decimals (the planning bucket)
    backend: str
    device: str
    objective: str  # Objective.token

    def __str__(self) -> str:
        return (
            f"{self.op}|{self.rows}x{self.cols}|n={self.inner}"
            f"|v={self.vector_length}|s={self.sparsity:.3f}"
            f"|{self.backend}@{self.device}|{self.objective}"
        )

    @classmethod
    def parse(cls, key: str) -> "PlanKey":
        """Rebuild a :class:`PlanKey` from its string form.

        Raises ``ValueError`` for malformed keys — including the
        pre-runtime (v1) format whose runtime segment lacks the
        ``backend@device`` shape.
        """
        parts = key.split("|")
        if len(parts) != 7:
            raise ValueError(f"plan key {key!r} does not have 7 segments")
        op, shape, inner, v, s, runtime_part, objective = parts
        backend, sep, device = runtime_part.partition("@")
        if not sep or not backend or not device:
            raise ValueError(
                f"plan key {key!r} lacks the backend@device segment"
            )
        try:
            rows, cols = (int(x) for x in shape.split("x"))
            return cls(
                op=op,
                rows=rows,
                cols=cols,
                inner=int(inner.removeprefix("n=")),
                vector_length=int(v.removeprefix("v=")),
                sparsity=float(s.removeprefix("s=")),
                backend=backend,
                device=device,
                objective=objective,
            )
        except ValueError as exc:
            raise ValueError(f"malformed plan key {key!r}: {exc}") from None


@dataclass
class Plan:
    """One memoized execution decision.

    ``backend`` identifies the *winning* backend of the search and
    ``device`` the planner's device. ``config`` holds the
    backend-specific kernel knobs;
    for Magicube plans, rebuild the concrete config with
    :meth:`spmm_config` / :meth:`sddmm_config` (overrides allowed for
    value-only knobs such as signedness).
    """

    op: str
    l_bits: int
    r_bits: int
    config: dict = field(default_factory=dict)
    predicted_time_s: float = 0.0
    key: str = ""
    backend: str = DEFAULT_BACKEND
    device: str = "A100"
    precision_label: str = ""

    @property
    def precision(self) -> str:
        return self.precision_label or f"L{self.l_bits}-R{self.r_bits}"

    @property
    def is_magicube(self) -> bool:
        # the fastpath backends run the Magicube kernels (same configs,
        # same accounting) — their plans carry Magicube knobs too
        return self.backend.startswith(("magicube", "fastpath"))

    @property
    def stride(self) -> int:
        """SR-BCRS stride the plan's precision requires (SpMM only)."""
        return MagicubeSpMM(self.spmm_config()).required_stride

    def _require_magicube(self) -> None:
        if not self.is_magicube:
            raise ConfigError(
                f"plan executes on backend {self.backend!r}; it has no "
                f"Magicube kernel config"
            )

    def spmm_config(self, **overrides) -> SpMMConfig:
        if self.op != "spmm":
            raise ConfigError(f"plan is for {self.op}, not spmm")
        self._require_magicube()
        return SpMMConfig(
            l_bits=self.l_bits, r_bits=self.r_bits,
            **{**self.config, **overrides},
        )

    def sddmm_config(self, **overrides) -> SDDMMConfig:
        if self.op != "sddmm":
            raise ConfigError(f"plan is for {self.op}, not sddmm")
        self._require_magicube()
        return SDDMMConfig(
            l_bits=self.l_bits, r_bits=self.r_bits,
            **{**self.config, **overrides},
        )

    # -- JSON persistence ----------------------------------------------
    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "l_bits": self.l_bits,
            "r_bits": self.r_bits,
            "config": dict(self.config),
            "predicted_time_s": self.predicted_time_s,
            "key": self.key,
            "backend": self.backend,
            "device": self.device,
            "precision_label": self.precision_label,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Plan":
        """Rebuild a persisted plan; ``ValueError`` when a Magicube
        plan's knobs are not fields of its kernel config (a launch this
        engine does not run, such as a tensor-parallel ``tp`` width)."""
        plan = cls(
            op=d["op"],
            l_bits=int(d["l_bits"]),
            r_bits=int(d["r_bits"]),
            config=dict(d.get("config", {})),
            predicted_time_s=float(d.get("predicted_time_s", 0.0)),
            key=d.get("key", ""),
            backend=d.get("backend", DEFAULT_BACKEND),
            device=d.get("device", "A100"),
            precision_label=d.get("precision_label", ""),
        )
        if plan.is_magicube:
            kernel_config = SpMMConfig if plan.op == "spmm" else SDDMMConfig
            unknown = set(plan.config) - {f.name for f in fields(kernel_config)}
            if unknown:
                raise ValueError(
                    f"plan {plan.key!r} carries {sorted(unknown)}, which "
                    f"are not {kernel_config.__name__} fields"
                )
        return plan


@dataclass(frozen=True)
class _Scored:
    """One (backend, candidate) pair of the search space."""

    backend: str
    candidate: Candidate

    @property
    def fidelity(self) -> int:
        return self.candidate.l_bits + self.candidate.r_bits

    @property
    def time_s(self) -> float:
        return self.candidate.time_s


class ExecutionPlanner:
    """Searches (backend x config) on one device against calibrated
    cost models."""

    def __init__(
        self,
        device: "Device | str" = "A100",
        cache: PlanCache | None = None,
        backends: Sequence[str] | None = None,
    ) -> None:
        self._device = Device.resolve(device)
        self.backends = tuple(backends) if backends is not None else None
        self.cache = cache if cache is not None else PlanCache()

    def warm_start(self, artifacts: "str | Sequence[str]") -> int:
        """Preload shipped autotune artifacts into the plan cache.

        ``artifacts`` is one path or a sequence of paths to plan-cache
        JSON files written by ``repro-autotune sweep``/``export``. Each
        sibling manifest (when present) is checked against the live
        backend registry and device table; drift is surfaced as
        warnings — stale plans still load, they just re-lose the
        planner search when their keys no longer match. Returns the
        number of plans loaded.
        """
        # imported lazily: repro.autotune imports this module
        from repro.autotune.artifact import warm_start_cache

        return warm_start_cache(self.cache, artifacts)

    # -- views ----------------------------------------------------------
    @property
    def device(self) -> str:
        """Name of the device every plan is priced (and run) on."""
        return self._device.name

    # ------------------------------------------------------------------
    @staticmethod
    def _check_problem(rows: int, vector_length: int, sparsity: float) -> None:
        # an empty operand (sparsity 1.0) is a valid problem: the uniform
        # topologies price it at one vector per strip, as they price a
        # near-empty one
        if not 0.0 <= sparsity <= 1.0:
            raise ConfigError(f"sparsity must be in [0, 1], got {sparsity}")
        if rows % vector_length != 0:
            raise ConfigError(
                f"rows ({rows}) must divide by the vector length ({vector_length})"
            )

    def _search_backends(self, op: str, backend: str | None) -> list:
        """The backend set one plan call searches, in fallback order."""
        if backend is not None:
            names: Sequence[str] | None = (backend,)
        elif self.backends is not None:
            names = self.backends
        else:
            # default: pin the backend resolution would pick for the
            # device (DEFAULT_BACKEND wherever it is admissible, else
            # the head of the fallback chain)
            chain = plannable_backends(op, self._device)
            if not chain:
                raise ConfigError(
                    f"no plannable backend supports {op} on {self.device}"
                )
            pinned = next(
                (b for b in chain if b.name == DEFAULT_BACKEND), chain[0]
            )
            names = (pinned.name,)
        found = plannable_backends(op, self._device, names)
        if not found:
            raise ConfigError(
                f"none of the backends {list(names)} can plan {op} on "
                f"{self.device}"
            )
        return found

    def _plan(
        self,
        op: str,
        rows: int,
        cols: int,
        inner: int,
        vector_length: int,
        sparsity: float,
        objective: Objective | None,
        backend: str | None,
    ) -> Plan:
        self._check_problem(rows, vector_length, sparsity)
        obj = objective if objective is not None else Objective.latency()
        search = self._search_backends(op, backend)
        key = PlanKey(
            op,
            rows,
            cols,
            inner,
            vector_length,
            round(sparsity, 3),
            "+".join(b.name for b in search),
            self.device,
            obj.token,
        )
        problem = Problem(op, rows, cols, inner, vector_length, round(sparsity, 3))
        return self.cache.get_or_build(
            str(key), lambda: self._search(key, problem, obj, search)
        )

    def plan_spmm(
        self,
        rows: int,
        cols: int,
        n: int,
        vector_length: int,
        sparsity: float,
        objective: Objective | None = None,
        backend: str | None = None,
    ) -> Plan:
        """Best SpMM plan for a (rows x cols) @ (cols x n) request class."""
        return self._plan(
            "spmm", rows, cols, n, vector_length, sparsity, objective, backend
        )

    def plan_sddmm(
        self,
        rows: int,
        cols: int,
        k: int,
        vector_length: int,
        sparsity: float,
        objective: Objective | None = None,
        backend: str | None = None,
    ) -> Plan:
        """Best SDDMM plan for a (rows x k) @ (k x cols) sampled product."""
        return self._plan(
            "sddmm", rows, cols, k, vector_length, sparsity, objective, backend
        )

    # ------------------------------------------------------------------
    def _search(
        self, key: PlanKey, problem: Problem, obj: Objective, search: list
    ) -> Plan:
        scored = [
            _Scored(backend.name, cand)
            for backend in search
            for cand in backend.plan_candidates(
                problem, self._device, obj.admits
            )
        ]
        if not scored:
            raise ConfigError(
                f"no (backend, config) candidate satisfies objective "
                f"{obj.token} for {key}"
            )
        winner = self._select(scored, obj)
        cand = winner.candidate
        return Plan(
            op=problem.op,
            l_bits=cand.l_bits,
            r_bits=cand.r_bits,
            config=dict(cand.config),
            predicted_time_s=cand.time_s,
            key=str(key),
            backend=winner.backend,
            device=self.device,
            precision_label=cand.precision,
        )

    @staticmethod
    def _select(scored: list[_Scored], obj: Objective) -> _Scored:
        """Pick the winning candidate per the objective.

        Candidate order is deterministic (backends in fallback order),
        so stable sorts break ties toward higher-priority backends.
        """
        if obj.kind == "latency":
            # fastest; ties broken toward higher fidelity
            return min(scored, key=lambda c: (c.time_s, -c.fidelity))
        by_fidelity = sorted(
            scored,
            key=lambda c: (c.fidelity, c.candidate.l_bits),
            reverse=True,
        )
        if obj.latency_budget_s is not None:
            for cand in by_fidelity:
                if cand.time_s <= obj.latency_budget_s:
                    return cand
            # nothing meets the budget: degrade to the fastest plan
            return min(scored, key=lambda c: c.time_s)
        return by_fidelity[0]

"""Typed request / response dataclasses — the v1 wire format.

Every way of asking the library for work — a one-shot kernel call, a
batched serving request, a modelled attention forward pass — is one of
four request types, and every answer is one :class:`Response`. The
request carries *what* to compute plus any pinning (precision, backend,
injected config); the :mod:`repro.api.resolution` pipeline turns it
into an executable :class:`~repro.api.resolution.Resolution`.

Each request class also states its serving shape once: the field
holding its prepared operand (``operand_field``: ``lhs``, ``mask`` or
none), the per-call payload fields a prepare strips
(``payload_fields``), and — through :func:`class_key` — the request
class a serving front door keys one prepared session by
(:func:`check_operand` guards a named one). The client, the fleet
gateway and its workers read these instead of switching on the request
type.

This module is deliberately dependency-light (dataclasses + numpy +
the prepared operand type) so clients and engines can import it without
dragging in the planner or the runtime registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.matrix import SparseMatrix
    from repro.formats.bcrs import BCRSMatrix
    from repro.kernels.sddmm import SDDMMConfig
    from repro.kernels.spmm import SpMMConfig
    from repro.runtime import Device
    from repro.serve.planner import Objective, Plan

__all__ = [
    "AttentionRequest",
    "Request",
    "Response",
    "SddmmRequest",
    "SpmmRequest",
    "TransformerRequest",
    "check_operand",
    "class_key",
]


@dataclass(eq=False)
class SpmmRequest:
    """One sparse x dense product: ``lhs @ rhs``.

    ``lhs`` may be a prepared :class:`~repro.core.matrix.SparseMatrix`
    (preferred — conversions are memoized on it) or a dense array that
    is compressed with ``vector_length`` x 1 structure on first use.
    ``precision`` pins a Table-IV pair; ``config`` injects a pre-built
    kernel config verbatim (mutually exclusive with ``precision`` /
    ``l_signed`` / ``knobs``). ``backend`` pins a registered runtime
    backend by name. On a serving client, ``objective`` steers the
    planner search and ``session`` names the request class for
    telemetry; ``l_bits`` / ``r_bits`` override the operand-width
    classification (otherwise measured from the data).

    Example::

        import numpy as np
        from repro import api

        A = np.eye(64, dtype=np.int8)        # dense operands compress
        x = np.ones((64, 8), dtype=np.int8)  # on first use
        r = api.run(api.SpmmRequest(lhs=A, rhs=x, precision="L8-R8"))
        assert (r.output == A.astype(np.int64) @ x).all()
    """

    op: ClassVar[str] = "spmm"
    #: serving shape: the prepared operand and the per-call payload
    operand_field: ClassVar[str | None] = "lhs"
    payload_fields: ClassVar[tuple[str, ...]] = ("rhs",)

    lhs: "SparseMatrix | np.ndarray"
    #: the dense activations; may be ``None`` for a prepare-only
    #: request (``Client.prepare``), but is required to resolve or run
    rhs: np.ndarray | None = None
    precision: str | None = None
    l_signed: bool | None = None
    scale: float | None = None
    config: "SpMMConfig | None" = None
    backend: str | None = None
    device: "Device | str | None" = None
    objective: "Objective | None" = None
    session: str | None = None
    vector_length: int = 8
    l_bits: int | None = None
    r_bits: int | None = None
    knobs: dict = field(default_factory=dict)


@dataclass(eq=False)
class SddmmRequest:
    """One sampled dense x dense product: ``(a @ b)`` at ``mask``.

    Mirrors :class:`SpmmRequest`: ``mask`` is the sparse topology
    (a :class:`~repro.core.matrix.SparseMatrix` or BCRS matrix),
    ``output_format`` picks ``"bcrs"`` (default) or ``"srbcrs"``, and
    ``config`` injects a pre-built kernel config (mutually exclusive
    with ``precision`` / ``output_format`` / ``knobs``).

    Example::

        import numpy as np
        from repro import SparseMatrix, api

        mask = SparseMatrix.from_dense(np.eye(64, dtype=np.int8),
                                       vector_length=8)
        a = b = np.ones((64, 32), dtype=np.int8)
        r = api.run(api.SddmmRequest(a=a, b=b.T, mask=mask))
        assert r.output.shape == (64, 64)
    """

    op: ClassVar[str] = "sddmm"
    operand_field: ClassVar[str | None] = "mask"
    payload_fields: ClassVar[tuple[str, ...]] = ("a", "b")

    mask: "SparseMatrix | BCRSMatrix"
    #: the dense factors; may be ``None`` for a prepare-only request
    #: (``Client.prepare``), but are required to resolve or run
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    precision: str | None = None
    output_format: str | None = None
    config: "SDDMMConfig | None" = None
    backend: str | None = None
    device: "Device | str | None" = None
    objective: "Objective | None" = None
    session: str | None = None
    l_bits: int | None = None
    r_bits: int | None = None
    knobs: dict = field(default_factory=dict)


@dataclass(eq=False)
class AttentionRequest:
    """One modelled sparse-Transformer forward pass (the paper's
    Fig. 17 latency pipeline).

    The topology fields (``seq_len`` ... ``d_head``) define the request
    class — a serving client reuses one prepared session per distinct
    topology — and ``batch`` is the per-request batch dimension
    (same-topology requests coalesce by summing it). ``backend`` must
    be a Magicube-family runtime backend; the response carries a
    :class:`~repro.transformer.inference.LatencyResult` in ``stats``
    and no ``output``. ``num_gpus > 1`` prices the tensor-parallel
    deployment instead (heads shard evenly, Megatron-style all-reduces
    per layer — :mod:`repro.transformer.distributed`); ``stats`` is
    then the distributed latency breakdown dict.

    Example::

        from repro import api

        r = api.run(api.AttentionRequest(seq_len=256, batch=2))
        assert r.output is None and r.stats.total_s == r.time_s
    """

    op: ClassVar[str] = "attention"
    operand_field: ClassVar[str | None] = None
    payload_fields: ClassVar[tuple[str, ...]] = ()

    seq_len: int
    num_heads: int = 4
    sparsity: float = 0.9
    scheme: tuple[int, int] = (8, 8)
    vector_length: int = 8
    num_layers: int = 4
    d_head: int = 64
    num_gpus: int = 1
    batch: int = 1
    backend: str | None = None
    device: "Device | str | None" = None
    session: str | None = None

    @property
    def topology(self) -> tuple:
        """The request-class key: everything but ``batch``."""
        return (
            self.seq_len, self.num_heads, self.sparsity, tuple(self.scheme),
            self.vector_length, self.num_layers, self.d_head, self.num_gpus,
            self.backend,
        )


@dataclass(eq=False)
class TransformerRequest:
    """One whole-model transformer inference through the serving stack.

    ``mode`` picks the deliverable:

    - ``"lra-classify"`` — a real forward of the synthetic-LRA
      :class:`~repro.transformer.model.SparseTransformerClassifier`
      (seeded by ``seed``): ``ids`` of shape ``(B, seq_len)`` in,
      logits of shape ``(B, num_classes)`` out, every attention layer
      executed as planned SDDMM -> quantized-softmax -> SpMM launches.
    - ``"prefill"`` / ``"decode"`` — the Fig. 17 latency model for a
      full-sequence prefill or a single decode step at this topology;
      ``output`` is ``None`` and ``stats`` carries the
      :class:`~repro.transformer.inference.LatencyResult`.

    ``mask_variant`` names a pattern from the
    :data:`repro.transformer.masks.MASK_ZOO` (``local``, ``strided``,
    ``blocked-random``, ``global-local``, ``banded``); ``sparsity`` is
    its density target, and the *realized* mask sparsity is what plans
    are priced at — so mask variants are distinct plan-key dimensions.
    ``scheme`` is the Fig. 17 ``(softmax_bits, qkv_bits)`` pair and
    ``backend`` must be a Magicube-family runtime backend.

    Example::

        import numpy as np
        from repro import api

        ids = np.zeros((1, 128), dtype=np.int64)
        r = api.run(api.TransformerRequest(ids=ids, mask_variant="local"))
        assert r.output.shape == (1, 2)   # (B, num_classes) logits
    """

    op: ClassVar[str] = "transformer"
    operand_field: ClassVar[str | None] = None
    payload_fields: ClassVar[tuple[str, ...]] = ("ids",)

    mode: str = "lra-classify"
    #: token ids (B, seq_len) for ``lra-classify``; may be ``None`` for
    #: a prepare-only request or the latency-model modes
    ids: np.ndarray | None = None
    seq_len: int = 128
    d_model: int = 64
    num_heads: int = 2
    num_layers: int = 2
    d_ff: int = 128
    vocab: int = 16
    num_classes: int = 2
    mask_variant: str = "strided"
    sparsity: float = 0.9
    scheme: tuple[int, int] = (16, 8)
    seed: int = 0
    vector_length: int = 8
    #: batch dimension for the latency-model modes (``lra-classify``
    #: takes its batch from ``ids.shape[0]``)
    batch: int = 1
    backend: str | None = None
    device: "Device | str | None" = None
    session: str | None = None

    @property
    def topology(self) -> tuple:
        """The request-class key: everything but ``ids`` / ``batch``."""
        return (
            self.mode, self.seq_len, self.d_model, self.num_heads,
            self.num_layers, self.d_ff, self.vocab, self.num_classes,
            self.mask_variant, self.sparsity, tuple(self.scheme),
            self.seed, self.vector_length, self.backend,
        )


#: any v1 request
Request = SpmmRequest | SddmmRequest | AttentionRequest | TransformerRequest


def class_key(request: Request) -> tuple:
    """The request class a serving front door prepares one session for.

    A ``session=`` name wins; otherwise the prepared operand's identity
    plus the pinned backend (SpMM, SDDMM), or the topology (attention,
    transformer).
    """
    if request.session is not None:
        return ("named", request.session)
    if request.operand_field is not None:
        operand = getattr(request, request.operand_field)
        return (request.op, id(operand), request.backend)
    return (request.op, request.topology)


def check_operand(request: Request, session: str, *prepared: object) -> None:
    """Refuse a request whose operand is none of ``prepared``: a named
    session serves exactly the operand it was prepared with —
    substituting silently would compute over the wrong matrix."""
    field = request.operand_field
    if field is None:
        return
    operand = getattr(request, field)
    if not any(operand is p for p in prepared):
        raise ConfigError(
            f"session {session!r} was prepared with a different {field}; "
            f"pass the prepared operand (or omit `session=` to key by "
            f"operand identity)"
        )


@dataclass(eq=False)
class Response:
    """What any v1 call resolves to — one-shot or served.

    ``time_s`` is the modelled kernel time of the launch that carried
    the request (every batch rider experiences it); ``request_time_s``
    the request's amortized share (equal to ``time_s`` for one-shot
    calls). ``stats`` holds the backend's detail object — per-kernel
    :class:`~repro.gpu.timing.KernelStats` for matrix ops, a
    :class:`~repro.transformer.inference.LatencyResult` for attention
    (whose ``output`` is ``None``). ``plan`` is the serving plan that
    routed the request, when one did.

    Example::

        import numpy as np
        from repro import api

        r = api.run(api.SpmmRequest(lhs=np.eye(8, dtype=np.int8),
                                    rhs=np.ones((8, 4)), vector_length=8))
        assert r.request_time_s == r.time_s      # one-shot: no batch
    """

    output: object | None
    time_s: float
    tops: float = 0.0
    stats: object | None = None
    plan: "Plan | None" = None
    backend: str = ""
    device: str = ""
    precision: str = ""
    request_time_s: float | None = None
    queue_wait_s: float = 0.0
    batch_size: int = 1
    #: the engine's monotonic request id (None for one-shot calls)
    request_id: int | None = None
    #: the request's span tree (:meth:`repro.obs.RequestTrace.to_dict`
    #: form) when the engine was opened with tracing enabled
    trace: dict | None = None

    def __post_init__(self) -> None:
        if self.request_time_s is None:
            self.request_time_s = self.time_s

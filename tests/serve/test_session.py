"""One ``Session`` for every request kind, driven through ``Client``.

Each case below is one row of the engine's per-kind table: how riders
of that kind coalesce and how the launch splits back. The same four
contracts hold for every row — served equals one-shot, riders
coalesce into one batch with their own slice and share, classes never
share a batch, and a named session refuses a different class.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

import repro
from repro import SparseMatrix, api
from repro.errors import ConfigError
from repro.serve.batcher import BatchPolicy
from repro.serve.planner import ExecutionPlanner
from tests.conftest import make_structured_sparse

_rng = np.random.default_rng(11)
MATRIX = SparseMatrix.from_dense(
    make_structured_sparse(_rng, 32, 64, 8, 0.7), vector_length=8
)
OTHER = SparseMatrix.from_dense(
    make_structured_sparse(_rng, 32, 64, 8, 0.5), vector_length=8
)
RHS = [_rng.integers(-128, 128, size=(64, 8)) for _ in range(3)]
A = [_rng.integers(-128, 128, size=(32, 16)) for _ in range(3)]
B = [_rng.integers(-128, 128, size=(16, 64)) for _ in range(3)]
IDS = [_rng.integers(0, 16, size=(rows, 64)) for rows in (1, 2, 1)]
XF = dict(seq_len=64, d_model=32, num_heads=2, num_layers=1)
ATTN = dict(seq_len=128, num_heads=2, num_layers=1)


@dataclass(frozen=True)
class Case:
    """One request kind, as the tests drive it."""

    #: rider ``i`` of the kind's request class (``**kw``: session, backend)
    rider: Callable
    #: a request of the same kind but a different operand / topology
    other: Callable
    #: a second backend that serves the kind
    backend: str
    #: the one request a coalesced launch of ``riders`` equals (None:
    #: the kind executes item by item)
    merge: Callable | None
    #: each rider's weight in its share of the launch's modelled time
    rows: Callable | None
    #: the axis rider outputs concatenate along (None: no output)
    axis: int | None
    #: how a named session refuses ``other``
    refusal: str


CASES = {
    "spmm": Case(
        rider=lambda i, **kw: api.SpmmRequest(lhs=MATRIX, rhs=RHS[i], **kw),
        other=lambda **kw: api.SpmmRequest(lhs=OTHER, rhs=RHS[0], **kw),
        backend="magicube-strict",
        merge=lambda rs: api.SpmmRequest(
            lhs=MATRIX, rhs=np.concatenate([r.rhs for r in rs], axis=1)
        ),
        rows=lambda rs: [1] * len(rs),  # equal shares
        axis=1,
        refusal="different lhs",
    ),
    "sddmm": Case(
        rider=lambda i, **kw: api.SddmmRequest(mask=MATRIX, a=A[i], b=B[i], **kw),
        other=lambda **kw: api.SddmmRequest(mask=OTHER, a=A[0], b=B[0], **kw),
        backend="magicube-strict",
        merge=None,
        rows=None,
        axis=None,
        refusal="different mask",
    ),
    "attention": Case(
        rider=lambda i, **kw: api.AttentionRequest(batch=i + 1, **ATTN, **kw),
        other=lambda **kw: api.AttentionRequest(
            **{**ATTN, "seq_len": 256}, **kw
        ),
        backend="magicube-emulation",
        merge=lambda rs: api.AttentionRequest(
            batch=sum(r.batch for r in rs), **ATTN
        ),
        rows=lambda rs: [r.batch for r in rs],
        axis=None,
        refusal="serves topology",
    ),
    "lra-classify": Case(
        rider=lambda i, **kw: api.TransformerRequest(ids=IDS[i], **XF, **kw),
        other=lambda **kw: api.TransformerRequest(
            ids=IDS[0], mask_variant="banded", **XF, **kw
        ),
        backend="magicube-emulation",
        merge=lambda rs: api.TransformerRequest(
            ids=np.concatenate([r.ids for r in rs]), **XF
        ),
        rows=lambda rs: [r.ids.shape[0] for r in rs],
        axis=0,
        refusal="serves topology",
    ),
    "prefill": Case(
        rider=lambda i, **kw: api.TransformerRequest(
            mode="prefill", batch=i + 1, **XF, **kw
        ),
        other=lambda **kw: api.TransformerRequest(
            mode="prefill", mask_variant="banded", **XF, **kw
        ),
        backend="magicube-emulation",
        merge=lambda rs: api.TransformerRequest(
            mode="prefill", batch=sum(r.batch for r in rs), **XF
        ),
        rows=lambda rs: [r.batch for r in rs],
        axis=None,
        refusal="serves topology",
    ),
}


def one_shot(request):
    """The direct path, planned by a fresh planner like a fresh engine's."""
    return api.run(request, planner=ExecutionPlanner(device="A100"))


def same_output(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if hasattr(a, "to_dense"):
        a, b = a.to_dense(), b.to_dense()
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.fixture
def client():
    # a wait window no test reaches: batches form only on flush()
    with repro.open_engine(
        policy=BatchPolicy(max_batch_size=8, max_wait_s=60.0)
    ) as c:
        yield c


def served(client, requests):
    futures = [client.submit(r) for r in requests]
    client.flush()
    return [f.result(timeout=60) for f in futures]


@pytest.mark.parametrize("kind", list(CASES))
class TestOneSession:
    def test_served_matches_one_shot(self, client, kind):
        request = CASES[kind].rider(0)
        (r,) = served(client, [request])
        direct = one_shot(request)
        assert same_output(r.output, direct.output)
        assert r.time_s == direct.time_s
        assert (r.backend, r.device, r.precision) == (
            direct.backend, direct.device, direct.precision
        )
        assert r.batch_size == 1 and r.request_time_s == r.time_s

    def test_riders_coalesce_into_one_batch(self, client, kind):
        case = CASES[kind]
        riders = [case.rider(i, session="s") for i in range(3)]
        rs = served(client, riders)
        assert [r.batch_size for r in rs] == [3, 3, 3]
        if case.merge is None:
            # item by item: each rider is its own launch and keeps it all
            for rider, r in zip(riders, rs):
                direct = one_shot(rider)
                assert same_output(r.output, direct.output)
                assert r.request_time_s == r.time_s == direct.time_s
            return
        merged = one_shot(case.merge(riders))
        if kind == "spmm":
            # the launch is re-planned at the width it actually has
            assert "n=24" in rs[0].plan.key
        else:
            assert all(r.time_s == merged.time_s for r in rs)
        if case.axis is None:
            assert all(r.output is None for r in rs)
        else:
            joined = np.concatenate([r.output for r in rs], axis=case.axis)
            assert same_output(joined, merged.output)
        rows = case.rows(riders)
        for n, r in zip(rows, rs):
            assert r.request_time_s == pytest.approx(r.time_s * n / sum(rows))

    def test_sessions_kinds_and_backends_never_share_a_batch(self, client, kind):
        case = CASES[kind]
        different_kind = (
            CASES["attention"] if kind != "attention" else CASES["spmm"]
        )
        requests = [
            case.rider(0, session="a"),
            case.rider(1, session="a"),
            case.rider(1, session="b"),
            case.rider(1, backend=case.backend),
            different_kind.rider(0, session="a-other-kind"),
        ]
        rs = served(client, requests)
        assert [r.batch_size for r in rs] == [2, 2, 1, 1, 1]
        assert rs[3].backend == case.backend != rs[0].backend

    def test_named_session_rejects_a_different_class(self, client, kind):
        case = CASES[kind]
        served(client, [case.rider(0, session="named")])
        with pytest.raises(ConfigError, match=case.refusal):
            client.submit(case.other(session="named"))
        different_kind = "attention" if kind != "attention" else "spmm"
        with pytest.raises(ConfigError, match="serves"):
            client.submit(CASES[different_kind].rider(0, session="named"))

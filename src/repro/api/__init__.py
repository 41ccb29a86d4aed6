"""repro.api — the v1 typed request/response surface.

One stable entry point for everything the library executes: build a
typed request (:class:`SpmmRequest`, :class:`SddmmRequest`,
:class:`AttentionRequest`, :class:`TransformerRequest`), hand it to
:func:`run` for a one-shot call
or to a :func:`open_engine` client for batched serving, and get back a
uniform :class:`Response`. Every path — one-shot, session, CLI — runs
the same :mod:`~repro.api.resolution` pipeline (precision parse →
device resolve → backend resolve → plan lookup/injection), so results
are bit-identical across surfaces.

One-shot::

    from repro import api

    r = api.run(api.SpmmRequest(lhs=A, rhs=x, precision="L8-R8"))
    r.output, r.time_s, r.tops

Serving::

    import repro

    with repro.open_engine(warm_start="plans.json") as client:
        fut = client.submit(api.SpmmRequest(lhs=A, rhs=x, session="ffn"))
        fut.result().output
"""

from repro.api.client import Client, open_engine
from repro.api.requests import (
    AttentionRequest,
    Request,
    Response,
    SddmmRequest,
    SpmmRequest,
    TransformerRequest,
)
from repro.api.resolution import (
    Resolution,
    bits_required,
    execute,
    normalize,
    resolve,
    run,
)

__all__ = [
    "AttentionRequest",
    "Client",
    "Request",
    "Resolution",
    "Response",
    "SddmmRequest",
    "SpmmRequest",
    "TransformerRequest",
    "bits_required",
    "execute",
    "normalize",
    "open_engine",
    "resolve",
    "run",
]

"""``repro serve`` — serving demo and planner inspection.

Usage::

    repro serve --demo                  # mixed-workload demo
    repro serve --demo --requests 200   # heavier run
    repro serve --demo --json           # machine-readable
    repro serve --plan spmm:512x512x256:v=8:s=0.9
    repro serve --demo --cache plans.json   # persist PlanCache

The demo opens a
:func:`repro.open_engine` client with two prepared SpMM request
classes (a pruned Transformer FFN and a pruned ResNet layer) and one
sparse-attention class, then fires a shuffled stream of typed mixed
requests through the micro-batcher. It verifies one served SpMM
against the direct :func:`repro.api.run` path bit-for-bit and prints
per-session latency percentiles, throughput and the plan-cache hit
rate.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np


def demo(
    num_requests: int = 128,
    seed: int = 0,
    device: str = "A100",
    cache_path: str | None = None,
    quiet: bool = False,
    backend: str | None = None,
) -> dict:
    """Run the mixed serving demo; returns the engine summary dict."""
    from repro import api
    from repro.core.matrix import SparseMatrix
    from repro.dlmc.generator import MatrixSpec, generate_matrix
    from repro.serve.batcher import BatchPolicy
    from repro.serve.cache import PlanCache
    from repro.serve.planner import Objective

    def say(msg: str) -> None:
        if not quiet:
            print(msg)

    rng = np.random.default_rng(seed)
    cache = PlanCache(cache_path) if cache_path else None
    client = api.open_engine(
        device=device,
        cache=cache,
        policy=BatchPolicy(max_batch_size=8, max_wait_s=0.005),
        backend=backend,
    )
    say(f"engine: device={client.device} backend={client.backend}")
    with client:
        # -- prepared request classes ----------------------------------
        # operands are converted once (the client memoizes the session
        # per `session=` name); the typed requests below just reuse them
        ffn_spec = MatrixSpec("transformer", 512, 512, sparsity=0.9, seed=seed + 1)
        ffn_matrix = SparseMatrix.from_dense(
            generate_matrix(ffn_spec, vector_length=8, bits=8), vector_length=8
        )
        conv_spec = MatrixSpec("rn50", 256, 1024, sparsity=0.95, seed=seed + 2)
        conv_matrix = SparseMatrix.from_dense(
            generate_matrix(conv_spec, vector_length=8, bits=4), vector_length=8
        )
        attn_req = api.AttentionRequest(
            seq_len=1024, num_heads=4, sparsity=0.9, scheme=(8, 8),
            session="attention-8b8b",
        )

        def ffn_req(rhs):
            return api.SpmmRequest(
                lhs=ffn_matrix, rhs=rhs, session="ffn-int8",
                objective=Objective.latency(),
            )

        def conv_req(rhs):
            return api.SpmmRequest(
                lhs=conv_matrix, rhs=rhs, session="conv-int4",
                objective=Objective.latency(),
            )

        attn = client.prepare(attn_req)
        say(f"sessions: ffn-int8 {ffn_matrix!r}")
        say(f"          conv-int4 {conv_matrix!r}")
        say(f"          {attn.name} seq={attn.template.seq_len} "
            f"heads={attn.template.num_heads}")

        # -- a shuffled stream of mixed requests over a few shapes -----
        # payloads are generated up front so the submit loop is tight
        # and the micro-batcher sees a realistic burst to coalesce
        ffn_widths = (64, 128, 256)
        conv_widths = (64, 128)
        kinds = rng.choice(3, size=num_requests, p=(0.45, 0.35, 0.2))
        stream = []
        for kind in kinds:
            if kind == 0:
                n = int(rng.choice(ffn_widths))
                stream.append(ffn_req(rng.integers(-128, 128, size=(512, n))))
            elif kind == 1:
                n = int(rng.choice(conv_widths))
                stream.append(conv_req(rng.integers(-8, 8, size=(1024, n))))
            else:
                stream.append(
                    api.AttentionRequest(
                        seq_len=1024, num_heads=4, sparsity=0.9, scheme=(8, 8),
                        session="attention-8b8b", batch=int(rng.integers(1, 4)),
                    )
                )
        futures = [(req, client.submit(req)) for req in stream]
        client.flush()
        results = [f.result() for _, f in futures]
        say(f"served {len(results)} requests "
            f"({int((kinds != 2).sum())} spmm, {int((kinds == 2).sum())} attention)")

        # -- bit-identical check vs the direct one-shot path -----------
        first_ffn = next(
            (
                (r, req.rhs)
                for (req, _), r in zip(futures, results)
                if isinstance(req, api.SpmmRequest) and req.session == "ffn-int8"
            ),
            None,
        )
        if first_ffn is None:
            say("no ffn requests in this stream; bit-identical check skipped")
        else:
            served, rhs = first_ffn
            direct = api.run(
                api.SpmmRequest(
                    lhs=ffn_matrix, rhs=rhs, precision=served.plan.precision
                ),
                device=device,
            )
            if not np.array_equal(served.output, direct.output):
                raise AssertionError(
                    "served SpMM output differs from the direct path"
                )
            say(f"bit-identical: served {served.plan.precision} output == direct "
                f"repro.api.run "
                f"({served.output.shape[0]}x{served.output.shape[1]})")

        # -- whole-model lra-classify through the same engine ----------
        # one TransformerRequest: every attention layer runs as planned
        # SDDMM -> quantized-softmax -> SpMM launches; the logits must
        # match the direct (unserved) model forward exactly
        ids = rng.integers(0, 16, size=(2, 64))
        xf_req = api.TransformerRequest(
            ids=ids, seq_len=64, d_model=32, num_heads=2, num_layers=1,
            mask_variant="local", session="lra-classify",
        )
        xf = client.run(xf_req)
        from repro.transformer.serving import TransformerSpec, prepare_transformer

        prepared = prepare_transformer(TransformerSpec(
            seq_len=64, d_model=32, num_heads=2, num_layers=1,
            mask_variant="local",
        ))
        direct_logits, _ = prepared.forward(
            ids, scheme=(16, 8), backend=xf.backend, planner=client.planner
        )
        if not np.array_equal(xf.output, direct_logits):
            raise AssertionError(
                "served lra-classify logits differ from the direct model"
            )
        say(f"transformer: lra-classify logits {xf.output.shape} == direct "
            f"model forward (mask=local, backend={xf.backend})")

        say("")
        say(client.report())
        plans = client.planner.cache
        if not quiet:
            from repro.bench.report import render_table

            rows = []
            for p in (plans.peek(k) for k in plans.keys()):
                # key: op|MxK|n=N|v=V|s=S|device|objective
                parts = p.key.split("|")
                rows.append([
                    p.op, parts[1], parts[2], parts[4], p.precision,
                    ", ".join(f"{k}={v}" for k, v in sorted(p.config.items())),
                    f"{p.predicted_time_s * 1e6:.2f}",
                ])
            print(render_table(
                ["op", "shape", "n", "sparsity", "precision", "knobs",
                 "predicted us"],
                rows, title="-- plan cache --",
            ))
        if cache_path:
            plans.save()
            say(f"plan cache persisted to {cache_path}")
        summary = client.summary()
    hit_rate = summary["plan_cache"]["hit_rate"]
    # the acceptance gate only makes sense once the stream is long
    # enough to amortize the first-time planning misses
    if num_requests >= 32 and hit_rate <= 0.5:
        raise AssertionError(f"plan-cache hit rate {hit_rate:.1%} <= 50%")
    return summary


_PLAN_SPEC = re.compile(
    r"^(spmm|sddmm):(\d+)x(\d+)x(\d+):v=(\d+):s=([0-9.]+)$"
)


def _run_plan(spec: str, device: str, objective: str) -> int:
    from repro.serve.planner import ExecutionPlanner, Objective

    m = _PLAN_SPEC.match(spec)
    if not m:
        print(
            f"bad plan spec {spec!r}; expected op:MxKxN:v=V:s=S "
            "(e.g. spmm:512x512x256:v=8:s=0.9)",
            file=sys.stderr,
        )
        return 2
    op, rows, cols, inner, v, s = (
        m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4)),
        int(m.group(5)), float(m.group(6)),
    )
    obj = Objective.latency() if objective == "latency" else Objective.accuracy()
    planner = ExecutionPlanner(device=device)
    plan_fn = planner.plan_spmm if op == "spmm" else planner.plan_sddmm
    plan = plan_fn(rows, cols, inner, v, s, obj)
    print(f"key:       {plan.key}")
    print(f"precision: {plan.precision}")
    print(f"knobs:     {plan.config}")
    print(f"predicted: {plan.predicted_time_s * 1e6:.2f} us")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro serve", description=__doc__)
    parser.add_argument("--demo", action="store_true", help="run the serving demo")
    parser.add_argument("--requests", type=int, default=128,
                        help="demo request count (default 128)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--device", default="A100")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="pin a registered runtime backend "
                             "(e.g. magicube-strict); default resolves "
                             "the registry's fallback chain")
    parser.add_argument("--cache", default=None, metavar="PATH",
                        help="persist the PlanCache to this JSON file")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable summary")
    parser.add_argument("--plan", default=None, metavar="SPEC",
                        help="plan one request class (op:MxKxN:v=V:s=S) and exit")
    parser.add_argument("--objective", choices=("latency", "accuracy"),
                        default="latency", help="objective for --plan")
    args = parser.parse_args(argv)

    if args.plan:
        return _run_plan(args.plan, args.device, args.objective)
    if not args.demo:
        parser.print_help()
        return 2
    summary = demo(
        num_requests=args.requests,
        seed=args.seed,
        device=args.device,
        cache_path=args.cache,
        quiet=args.json,
        backend=args.backend,
    )
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

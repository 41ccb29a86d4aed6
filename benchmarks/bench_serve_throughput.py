"""Serving-engine throughput: planner + cache + micro-batcher end-to-end.

Runs the ``repro.serve`` demo workload (two prepared SpMM sessions and
one sparse-attention session, a shuffled 120-request stream, then one
``lra-classify`` forward) and checks the serving layer's contract:
everything is served, requests coalesce into batches, and the plan
cache converts repeated request classes into hits (> 50%, in practice
> 90%).
"""

from conftest import run_once

from repro.bench.report import render_table
from repro.serve.cli import demo


def test_serve_throughput(benchmark):
    summary = run_once(benchmark, demo, num_requests=120, quiet=True)

    total = summary["total"]
    sessions = summary["sessions"]
    stream = ("ffn-int8", "conv-int4", "attention-8b8b")
    assert sum(sessions[name]["requests"] for name in stream) == 120
    assert sessions["lra-classify"]["requests"] == 1
    assert total["requests"] == 121
    assert total["batches"] < total["requests"]  # the batcher coalesced
    assert total["mean_batch_size"] > 1.0
    assert total["p50_ms"] <= total["p95_ms"] <= total["p99_ms"]
    assert total["modelled_throughput_rps"] > 0
    assert summary["plan_cache"]["hit_rate"] > 0.5

    print("\n=== Serving engine throughput (mixed spmm + attention) ===")
    rows = [
        [
            name, s["requests"], s["batches"], f"{s['mean_batch_size']:.2f}",
            f"{s['p50_ms']:.4f}", f"{s['p95_ms']:.4f}", f"{s['p99_ms']:.4f}",
            f"{s['modelled_throughput_rps']:.0f}",
        ]
        for name, s in {**summary["sessions"], "TOTAL": total}.items()
    ]
    print(render_table(
        ["session", "req", "batches", "mean batch", "p50 ms", "p95 ms",
         "p99 ms", "model req/s"],
        rows,
    ))
    print("plan cache: {entries} plans, hit rate {hit_rate:.1%}".format(
        **summary["plan_cache"]
    ))
    benchmark.extra_info["plan_cache_hit_rate"] = summary["plan_cache"]["hit_rate"]
    benchmark.extra_info["mean_batch_size"] = total["mean_batch_size"]
    benchmark.extra_info["modelled_throughput_rps"] = total["modelled_throughput_rps"]

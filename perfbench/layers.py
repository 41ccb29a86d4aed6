"""Per-layer metrics of a traced run, derived from its spans.

Times are per completed request (the traced phase's total divided by
its completed requests) unless the name says a count, a ratio or a
percentile. A layer the workload does not reach reads 0. Kernel bytes
are computed by the cost model from the launch's operand sizes, not
measured.
"""

from __future__ import annotations

import statistics

from tracer import layer_self_times, self_times

#: (metric, unit) in report order — also the ``per_layer`` list of
#: BENCHMARK.json (the self-test asserts the two agree)
METRICS = (
    ("api.prepare_ms", "ms"),
    ("api.submit_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p95_ms", "ms"),
    ("serve.batch_size_mean", "requests"),
    ("serve.plan_ms", "ms"),
    ("serve.plan_calls", "count"),
    ("serve.plan_cache_hit_ratio", "ratio"),
    ("serve.rejected_ratio", "ratio"),
    ("transformer.forward_ms", "ms"),
    ("transformer.attention_self_ms", "ms"),
    ("transformer.dense_ms", "ms"),
    ("kernels.spmm_ms", "ms"),
    ("kernels.sddmm_ms", "ms"),
    ("kernels.softmax_ms", "ms"),
    ("kernels.launches", "count"),
    ("kernels.useful_ops", "ops"),
    ("kernels.bytes_moved", "bytes"),
    ("kernels.modelled_us", "us"),
    ("kernels.wall_over_modelled", "ratio"),
    ("formats.to_srbcrs_ms", "ms"),
    ("formats.convert_calls", "count"),
    ("lowp.quantize_ms", "ms"),
    ("lowp.quantize_calls", "count"),
    ("loadgen.lag_p95_ms", "ms"),
    ("obs.trace_overhead_ratio", "ratio"),
)

#: modelled device the cost model prices launches on
DEVICE = "A100"


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` (0 for no values)."""
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def mean(values) -> float:
    """The mean of ``values`` (0 for no values)."""
    return statistics.fmean(values) if len(values) else 0.0


def _modelled_s(launches) -> list[float]:
    from repro.runtime import DEFAULT_BACKEND, Device, get_backend

    backend = get_backend(DEFAULT_BACKEND)
    device = Device.resolve(DEVICE)
    models = {op: backend.cost(device, op=op) for op in ("spmm", "sddmm")}
    return [models[op].time(stats) for _, op, stats in launches]


def layer_metrics(untraced, traced, recorder) -> dict:
    spans = recorder.spans
    n = max(1, len(traced.latency_s))
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    duration = {}
    for sid, name, start, end, _, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        duration[sid] = end - start
    own = self_times(spans)
    attention_self = sum(
        own[sid] for sid, name, *_ in spans if name == "transformer.attention"
    )

    def per_request_ms(name: str) -> float:
        return total.get(name, 0.0) * 1e3 / n

    launches = recorder.launches
    modelled = _modelled_s(launches)
    kernel_wall = sum(duration[sid] for sid, _, _ in launches)
    lookups = traced.cache_hits + traced.cache_misses
    untraced_p50 = percentile(untraced.latency_s, 50)
    values = {
        "api.prepare_ms": per_request_ms("api.prepare"),
        "api.submit_ms": per_request_ms("api.submit"),
        "serve.queue_wait_p50_ms": percentile(traced.queue_wait_s, 50) * 1e3,
        "serve.queue_wait_p95_ms": percentile(traced.queue_wait_s, 95) * 1e3,
        "serve.batch_size_mean": (
            statistics.fmean(traced.batch_size) if traced.batch_size else 0.0
        ),
        "serve.plan_ms": per_request_ms("serve.plan"),
        "serve.plan_calls": calls.get("serve.plan", 0) / n,
        "serve.plan_cache_hit_ratio": (
            traced.cache_hits / lookups if lookups else 0.0
        ),
        "serve.rejected_ratio": traced.rejected / traced.attempted,
        "transformer.forward_ms": per_request_ms("transformer.forward"),
        "transformer.attention_self_ms": attention_self * 1e3 / n,
        "transformer.dense_ms": per_request_ms("transformer.dense"),
        "kernels.spmm_ms": per_request_ms("kernels.spmm"),
        "kernels.sddmm_ms": per_request_ms("kernels.sddmm"),
        "kernels.softmax_ms": per_request_ms("kernels.softmax"),
        "kernels.launches": len(launches) / n,
        "kernels.useful_ops": sum(s.useful_ops for _, _, s in launches) / n,
        "kernels.bytes_moved": sum(
            s.traffic.read_bytes + s.traffic.write_bytes for _, _, s in launches
        ) / n,
        "kernels.modelled_us": (
            statistics.fmean(modelled) * 1e6 if modelled else 0.0
        ),
        "kernels.wall_over_modelled": (
            kernel_wall / sum(modelled) if modelled else 0.0
        ),
        "formats.to_srbcrs_ms": per_request_ms("formats.to_srbcrs"),
        "formats.convert_calls": calls.get("formats.to_srbcrs", 0) / n,
        "lowp.quantize_ms": per_request_ms("lowp.quantize"),
        "lowp.quantize_calls": calls.get("lowp.quantize", 0) / n,
        "loadgen.lag_p95_ms": percentile(traced.lag_s, 95) * 1e3,
        "obs.trace_overhead_ratio": (
            percentile(traced.latency_s, 50) / untraced_p50 if untraced_p50 else 0.0
        ),
    }
    return {name: (values[name], unit) for name, unit in METRICS}


def top_layers(recorder, k: int = 3) -> list[dict]:
    """The ``k`` layers with the most self time in the traced phase."""
    ranked = sorted(
        layer_self_times(recorder.spans).items(), key=lambda kv: -kv[1]
    )
    return [{"layer": layer, "self_s": s} for layer, s in ranked[:k]]

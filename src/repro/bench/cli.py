"""Command-line experiment runner: regenerate the paper's evaluation.

Usage::

    python -m repro.bench                 # every table and figure
    python -m repro.bench fig14 table2    # a subset
    python -m repro.bench --count 16      # denser DLMC subsample
    python -m repro.bench --list
    python -m repro.bench serve --replay  # traffic replay -> BENCH_serve.json
    python -m repro.bench compare BENCH_serve.json baseline.json
    python -m repro.bench kernels --wall  # emulation vs fastpath, asserted

Prints the same rows the paper reports; heavy sweeps honour ``--count``.
The traffic replay (``serve --replay``, :mod:`repro.bench.loadgen`)
additionally writes schema-versioned ``BENCH_serve.json`` /
``.metrics.json`` / ``.trace.jsonl`` artifacts, and ``compare`` is the
(warn-only) regression gate over two such artifacts.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.runtime import DEFAULT_BACKEND


def _print_table1() -> None:
    from repro.baselines import capability_table

    print(capability_table())


def _print_table2() -> None:
    from repro.bench.report import render_table
    from repro.gpu.device import get_device

    rows = []
    for name in ("V100", "A100", "H100", "MI250X"):
        dev = get_device(name)
        cells = [name]
        for precision in ("fp16", "int8", "int4"):
            if dev.supports(precision):
                rate = dev.peaks[precision]
                cells.append(f"{rate.total:g} ({rate.tensor_fraction * 100:.1f}%)")
            else:
                cells.append("-")
        rows.append(cells)
    print(render_table(["GPU", "fp16", "int8", "int4"], rows))


def _print_table3() -> None:
    from repro.bench.report import render_table
    from repro.gpu.mma import supported_shapes

    rows = [
        [f"int{bits}/uint{bits}", ", ".join(s.name for s in supported_shapes(bits))]
        for bits in (4, 8)
    ]
    print(render_table(["Precision", "Supported shapes"], rows))


def _print_table4() -> None:
    from repro.bench.report import render_table
    from repro.kernels import plan_for, supported_pairs

    rows = []
    for op in ("spmm", "sddmm"):
        emulated, native = [], []
        for l, r in supported_pairs(op):
            name = f"L{l}-R{r}"
            (native if plan_for(l, r, op).is_native else emulated).append(name)
        rows.append([op.upper(), ", ".join(emulated), ", ".join(native)])
    print(render_table(["Op", "Emulated", "Native"], rows))


def _print_fig11(count: int) -> None:
    from repro.bench.figures import ABLATION_VARIANTS, fig11_ablation
    from repro.bench.report import render_table

    results = fig11_ablation()
    names = [n for n, _ in ABLATION_VARIANTS]
    rows = [
        [s, p, v] + [cell[n] for n in names]
        for (s, p, v), cell in sorted(results.items())
    ]
    print(render_table(["sparsity", "precision", "V"] + names, rows))


def _print_fig12(count: int) -> None:
    from repro.bench.figures import fig12_spmm_precision
    from repro.bench.report import render_table

    results = fig12_spmm_precision(count=count)
    rows = []
    for sparsity, per_precision in results.items():
        for precision, per_v in per_precision.items():
            rows.append([sparsity, precision, per_v[2], per_v[4], per_v[8]])
    print(render_table(["sparsity", "precision", "V=2", "V=4", "V=8"], rows))


def _print_fig13(count: int) -> None:
    from repro.bench.figures import fig13_sddmm_precision
    from repro.bench.report import render_table

    results = fig13_sddmm_precision(count=count)
    rows = []
    for sparsity, per_precision in results.items():
        for precision, cell in per_precision.items():
            rows.append([sparsity, precision, cell["basic"], cell["prefetch"]])
    print(render_table(["sparsity", "precision", "basic", "prefetch"], rows))


def _print_fig14(count: int) -> None:
    from repro.bench.figures import fig14_spmm_speedup
    from repro.bench.report import render_series
    from repro.dlmc.dataset import SPARSITIES

    results = fig14_spmm_speedup(count=count)
    for (v, n), panel in sorted(results.items()):
        libs = list(next(iter(panel.values())))
        series = {lib: [panel[s][lib] for s in SPARSITIES] for lib in libs}
        print(render_series("sparsity", list(SPARSITIES), series,
                            title=f"-- V={v} N={n} --"))
        print()


def _print_fig15(count: int) -> None:
    from repro.bench.figures import fig15_sddmm_speedup
    from repro.bench.report import render_series
    from repro.dlmc.dataset import SPARSITIES

    results = fig15_sddmm_speedup(count=count)
    for (v, k), panel in sorted(results.items()):
        libs = list(next(iter(panel.values())))
        series = {lib: [panel[s][lib] for s in SPARSITIES] for lib in libs}
        print(render_series("sparsity", list(SPARSITIES), series,
                            title=f"-- V={v} K={k} --"))
        print()


def _print_fig17(count: int) -> None:
    from repro.bench.figures import fig17_latency
    from repro.bench.report import render_table

    results = fig17_latency()
    for (sparsity, seq, heads), panel in sorted(results.items()):
        print(f"-- sparsity={sparsity} seq={seq} heads={heads} (ms) --")
        backends = list(next(iter(panel.values())))
        rows = [
            [b] + [f"{row[b]:.2f}" if row[b] is not None else "OOM"
                   for row in panel.values()]
            for b in backends
        ]
        print(render_table(["backend", "batch=2", "batch=8"], rows))
        print()


def _print_serve(count: int, backend: str | None = None) -> None:
    from repro.serve.cli import demo

    # scale the request stream with --count (the DLMC-density knob)
    demo(num_requests=max(120, count * 40), backend=backend)


def _print_backends(count: int) -> None:
    """Sweep every plannable registered backend on a fixed topology."""
    from repro.bench.report import render_table
    from repro.runtime import Device, Problem, REGISTRY

    problem = Problem(
        op="spmm", rows=512, cols=2048, inner=256, vector_length=8, sparsity=0.9
    )
    print(
        f"fixed topology: {problem.rows}x{problem.cols} @ "
        f"{problem.cols}x{problem.inner}, V={problem.vector_length}, "
        f"s={problem.sparsity}"
    )
    rows = []
    for backend in REGISTRY.backends():
        if not backend.plannable:
            continue
        for dev in Device.all():
            if not backend.supports(dev, op=problem.op):
                continue
            cands = backend.plan_candidates(problem, dev)
            if not cands:
                continue
            best = min(cands, key=lambda c: c.time_s)
            knobs = ", ".join(f"{k}={v}" for k, v in sorted(best.config.items()))
            rows.append([
                backend.name,
                dev.name,
                best.precision,
                knobs or "-",
                f"{best.time_s * 1e6:.2f}",
            ])
    print(render_table(
        ["backend", "device", "precision", "knobs", "predicted us"], rows
    ))


def _print_autotune(count: int) -> None:
    """Cold-vs-warm serving: sweep offline, warm-start, compare planners."""
    import tempfile
    import time as _time
    from pathlib import Path

    import numpy as np

    from repro import api
    from repro.autotune import ArtifactManifest, SweepConfig, run_sweep, write_artifact
    from repro.bench.report import render_table
    from repro.dlmc.generator import MatrixSpec, generate_matrix

    widths = (64, 128, 256)
    spec = MatrixSpec("transformer", 512, 512, sparsity=0.9, seed=1)
    weights = generate_matrix(spec, vector_length=8, bits=8)
    rng = np.random.default_rng(0)

    def first_contact(client: api.Client) -> dict:
        """Plan every request class once; returns hit/miss/latency stats."""
        session = client.prepare(api.SpmmRequest(lhs=weights, session="ffn"))
        cache = client.planner.cache
        cache.reset_counters()
        t0 = _time.perf_counter()
        for n in widths:
            session.plan_for(n, 8)
        planner_s = _time.perf_counter() - t0
        stats = dict(cache.stats())
        # then actually serve one request per class through the batcher
        for n in widths:
            client.run(api.SpmmRequest(
                lhs=weights, rhs=rng.integers(-128, 128, size=(512, n)),
                session="ffn",
            ))
        return {"planner_ms": planner_s * 1e3, **stats}

    # offline: sweep exactly the request classes the engine will see
    with api.open_engine(device="A100") as probe:
        probe_session = probe.prepare(api.SpmmRequest(lhs=weights, session="probe"))
        weight_bits = probe_session.weight_bits
        weights = probe_session.operand  # converted once, reused below
    config = SweepConfig(
        ops=("spmm",),
        shapes=tuple((512, 512, n) for n in widths),
        vector_lengths=(8,),
        sparsities=(weights.sparsity,),
        devices=("A100",),
        min_bits=((weight_bits, 8),),
    )
    report = run_sweep(config, repeats=max(1, count))
    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "plans.json"
        write_artifact(artifact, report.cache, ArtifactManifest.for_report(report))
        s = report.summary()
        print(
            f"sweep: {s['measured']} points in {s['elapsed_s']:.2f}s, "
            f"median cold search {s['search_s_median'] * 1e3:.2f}ms, "
            f"{s['plans']} plans shipped"
        )
        results = {}
        for mode, kwargs in (("cold", {}), ("warm", {"warm_start": artifact})):
            with api.open_engine(device="A100", **kwargs) as client:
                preloaded = len(client.planner.cache)
                results[mode] = {"preloaded": preloaded, **first_contact(client)}
    print(render_table(
        ["mode", "preloaded", "hits", "misses", "hit rate", "planner ms"],
        [
            [
                mode, r["preloaded"], r["hits"], r["misses"],
                f"{r['hit_rate']:.1%}", f"{r['planner_ms']:.2f}",
            ]
            for mode, r in results.items()
        ],
        title="-- first contact with swept request classes --",
    ))
    warm, cold = results["warm"], results["cold"]
    if warm["hit_rate"] <= 0.5:
        raise AssertionError(
            f"warm-start first-contact hit rate {warm['hit_rate']:.1%} <= 50%"
        )
    speedup = (
        f" ({cold['planner_ms'] / warm['planner_ms']:.1f}x faster)"
        if warm["planner_ms"] > 0 else ""
    )
    print(
        f"warm start: {warm['hit_rate']:.0%} first-contact hit rate, "
        f"planner {cold['planner_ms']:.2f}ms -> {warm['planner_ms']:.2f}ms"
        f"{speedup}"
    )


def _print_retune(count: int) -> None:
    """Cold vs manually-warmed vs scheduler-converged on a workload shift."""
    import tempfile
    import time as _time
    from pathlib import Path

    import numpy as np

    from repro import api
    from repro.autotune import (
        ArtifactManifest,
        RetunePolicy,
        SweepBudget,
        SweepConfig,
        manifest_path,
        run_sweep,
        write_artifact,
    )
    from repro.bench.report import render_table
    from repro.dlmc.generator import MatrixSpec, generate_matrix

    phase_a, phase_b = (64, 128), (256, 320)
    all_widths = phase_a + phase_b
    spec = MatrixSpec("transformer", 512, 512, sparsity=0.9, seed=1)
    weights = generate_matrix(spec, vector_length=8, bits=8)
    rng = np.random.default_rng(0)

    # prepare once: share the converted operand, read the weight width
    with api.open_engine(device="A100") as probe:
        ps = probe.prepare(api.SpmmRequest(lhs=weights, session="probe"))
        weight_bits, weights = ps.weight_bits, ps.operand

    def serve(client: api.Client, widths, requests_per: int = 3) -> None:
        for n in widths:
            for _ in range(requests_per):
                client.run(api.SpmmRequest(
                    lhs=weights, rhs=rng.integers(-128, 128, size=(512, n)),
                    session="ffn",
                ))

    def first_contact(client: api.Client) -> dict:
        """Plan every request class of both phases once, cold counters."""
        session = client.prepare(api.SpmmRequest(lhs=weights, session="ffn"))
        cache = client.planner.cache
        cache.reset_counters()
        t0 = _time.perf_counter()
        for n in all_widths:
            session.plan_for(n, 8)
        planner_s = _time.perf_counter() - t0
        return {"planner_ms": planner_s * 1e3, **cache.stats()}

    with tempfile.TemporaryDirectory() as tmp:
        tmpdir = Path(tmp)
        # the manually-warmed operator swept *yesterday's* mix (phase A)
        manual_cfg = SweepConfig(
            ops=("spmm",),
            shapes=tuple((512, 512, n) for n in phase_a),
            vector_lengths=(8,),
            sparsities=(weights.sparsity,),
            devices=("A100",),
            min_bits=((weight_bits, 8),),
        )
        manual_report = run_sweep(manual_cfg, repeats=max(1, count))
        manual_art = tmpdir / "manual" / "plans.json"
        write_artifact(
            manual_art, manual_report.cache,
            ArtifactManifest.for_report(manual_report),
        )

        # the scheduler-enabled engine sees the shift live; cycles are
        # driven explicitly (run_once) so the report is deterministic
        policy = RetunePolicy(
            interval_s=3600.0,
            min_requests=1,
            hot_share=0.05,
            cooldown_s=0.0,
            budget=SweepBudget(max_trials=32, max_seconds=120.0),
            repeats=max(1, count),
            artifact_dir=tmpdir / "retuned",
        )
        with api.open_engine(device="A100", retune=policy) as live:
            serve(live, phase_a)
            c1 = live.retune.run_once()
            serve(live, phase_b)  # the workload mix shifts
            c2 = live.retune.run_once()
            status = live.retune_status()
        shipped = [Path(p) for p in status.artifacts]
        for i, cycle in enumerate((c1, c2), 1):
            reasons = ", ".join(sorted({t.reason for t in cycle.triggers}))
            print(
                f"cycle {i}: snapshot {cycle.snapshot_fingerprint}, "
                f"{len(cycle.triggers)} trigger(s) ({reasons or 'none'}), "
                f"{cycle.promoted} plan(s) promoted -> "
                f"{cycle.artifact.parent.name if cycle.artifact else 'live cache only'}"
            )

        modes = (
            ("cold", {}),
            ("manual-warm", {"warm_start": manual_art}),
            ("scheduler", {"warm_start": shipped}),
        )
        results = {}
        for mode, kwargs in modes:
            with api.open_engine(device="A100", **kwargs) as client:
                results[mode] = {
                    "preloaded": len(client.planner.cache),
                    **first_contact(client),
                }
        print(render_table(
            ["mode", "preloaded", "hits", "misses", "hit rate", "planner ms"],
            [
                [
                    mode, r["preloaded"], r["hits"], r["misses"],
                    f"{r['hit_rate']:.1%}", f"{r['planner_ms']:.2f}",
                ]
                for mode, r in results.items()
            ],
            title="-- first contact with the full (shifted) workload --",
        ))
        manifest = ArtifactManifest.load(manifest_path(shipped[-1]))
        retune_info = manifest.sweep["retune"]
        print(
            f"provenance: {shipped[-1].parent.name} was triggered by "
            f"per-plan traffic {retune_info['snapshot']} "
            f"({len(retune_info['triggers'])} trigger(s))"
        )
    sched = results["scheduler"]
    if sched["misses"] or sched["hits"] != len(all_widths):
        raise AssertionError(
            f"scheduler-converged engine should hit all {len(all_widths)} "
            f"request classes on first contact, got {sched['hits']} hits / "
            f"{sched['misses']} misses"
        )
    if results["manual-warm"]["misses"] != len(phase_b):
        raise AssertionError(
            "manually-warmed engine should still cold-miss the shifted "
            "phase-B classes"
        )
    print(
        f"loop closed: no manual sweep, {sched['hit_rate']:.0%} first-contact "
        f"hit rate (cold planner {results['cold']['planner_ms']:.2f}ms -> "
        f"{sched['planner_ms']:.2f}ms)"
    )


def _print_table5(count: int) -> None:
    from repro.bench.figures import table5_accuracy
    from repro.bench.report import render_table

    results = table5_accuracy()
    rows = [[k, f"{v * 100:.2f}%"] for k, v in results.items()]
    print(render_table(["scheme", "accuracy"], rows))


EXPERIMENTS = {
    "table1": ("Table I: library capabilities", lambda c: _print_table1()),
    "table2": ("Table II: peak TOPS per GPU", lambda c: _print_table2()),
    "table3": ("Table III: MMA shapes", lambda c: _print_table3()),
    "table4": ("Table IV: precision pairs", lambda c: _print_table4()),
    "fig11": ("Fig. 11: SpMM ablation", _print_fig11),
    "fig12": ("Fig. 12: SpMM TOP/s sweep", _print_fig12),
    "fig13": ("Fig. 13: SDDMM TOP/s sweep", _print_fig13),
    "fig14": ("Fig. 14: SpMM speedups", _print_fig14),
    "fig15": ("Fig. 15: SDDMM speedups", _print_fig15),
    "fig17": ("Fig. 17: e2e Transformer latency", _print_fig17),
    "table5": ("Table V: accuracy study (trains a model)", _print_table5),
    "serve": ("Serving: batched engine throughput demo", _print_serve),
    "backends": ("Runtime: registered-backend sweep on a fixed topology", _print_backends),
    "autotune": ("Autotune: offline sweep -> warm-start cold/warm comparison", _print_autotune),
    "retune": ("Retune: telemetry-driven scheduler closing serve -> autotune on a workload shift", _print_retune),
}


def _parse_mix(text: str) -> tuple[tuple[str, float], ...]:
    """``NAME=WEIGHT,NAME=WEIGHT`` -> the ReplayConfig mix tuple."""
    pairs = []
    for part in text.split(","):
        name, sep, weight = part.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(
                f"bad mix entry {part!r}; expected NAME=WEIGHT"
            )
        try:
            pairs.append((name.strip(), float(weight)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad mix weight in {part!r}; expected a number"
            ) from None
    return tuple(pairs)


def _run_replay(args) -> int:
    from repro.bench.loadgen import ReplayConfig, render_replay_report, run_replay

    mix_kwargs = {"mix": args.mix} if args.mix else {}
    config = ReplayConfig(
        requests=args.requests,
        arrival=args.arrival,
        rate_rps=args.rate,
        seed=args.seed,
        trace_path=args.arrival_trace,
        gateway_workers=args.gateway,
        backend=args.backend,
        **mix_kwargs,
    )
    report = run_replay(config, out=args.out)
    print(render_replay_report(report))
    if args.gateway:
        print(f"wrote {args.out} (+ .metrics.json, .trace.jsonl, .health.json)")
    else:
        print(
            f"wrote {args.out} (+ .metrics.json, .trace.jsonl, .health.json, "
            f".profile.json, .folded.txt)"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        # the regression gate takes positional file paths, which the
        # experiment parser would reject — route it before argparse
        from repro.bench.loadgen import compare_main

        return compare_main(argv[1:])
    if argv[:1] == ["kernels"]:
        # the kernel wall-clock gate has its own flags (--wall, --floor)
        from repro.bench.kernels import kernels_main

        return kernels_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro bench", description=__doc__
    )
    parser.add_argument("experiments", nargs="*", help="subset to run")
    parser.add_argument("--count", type=int, default=3, help="DLMC matrices per sparsity")
    parser.add_argument("--list", action="store_true", help="list experiments")
    replay = parser.add_argument_group("traffic replay (serve --replay)")
    replay.add_argument(
        "--replay", action="store_true",
        help="run the serve traffic replay and write BENCH_serve.json",
    )
    replay.add_argument("--requests", type=int, default=120, help="replay size")
    replay.add_argument(
        "--arrival", choices=("poisson", "bursty", "uniform", "trace"),
        default="poisson", help="arrival process",
    )
    replay.add_argument("--rate", type=float, default=400.0, help="offered rps")
    replay.add_argument("--seed", type=int, default=0, help="schedule seed")
    replay.add_argument(
        "--arrival-trace", default=None, metavar="PATH",
        help="JSON list of arrival offsets (with --arrival trace)",
    )
    replay.add_argument(
        "--gateway", type=int, default=None, metavar="N",
        help="route through a repro.fleet gateway with N worker processes",
    )
    replay.add_argument(
        "--mix", type=_parse_mix, default=None, metavar="NAME=W,NAME=W",
        help="request-class mix, e.g. spmm=0.5,transformer=0.5 (classes: "
             "spmm, sddmm, attention, transformer; default "
             "spmm=0.6,sddmm=0.25,attention=0.15)",
    )
    replay.add_argument(
        "--out", default="BENCH_serve.json", help="report artifact path"
    )
    parser.add_argument(
        "--backend", default=DEFAULT_BACKEND, metavar="NAME",
        help="runtime backend 'serve' (demo and --replay) serves on; "
             "recorded in the replay artifact's config "
             f"(default: {DEFAULT_BACKEND})",
    )
    args = parser.parse_args(argv)

    if args.list:
        for key, (desc, _) in EXPERIMENTS.items():
            print(f"{key:<8} {desc}")
        return 0

    if args.replay:
        if args.experiments not in ([], ["serve"]):
            print(
                f"--replay only applies to 'serve', got {args.experiments}",
                file=sys.stderr,
            )
            return 2
        return _run_replay(args)

    selected = args.experiments or list(EXPERIMENTS)
    unknown = [e for e in selected if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; use --list", file=sys.stderr)
        return 2
    for key in selected:
        desc, fn = EXPERIMENTS[key]
        print(f"\n=== {desc} ===")
        t0 = time.time()
        if key == "serve":
            fn(args.count, backend=args.backend)
        else:
            fn(args.count)
        print(f"[{key} done in {time.time() - t0:.1f}s]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

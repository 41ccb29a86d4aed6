"""Benchmark runner for the serving stack (see perfbench/README.md).

Usage, from the repository root::

    python3 perfbench/run.py --workload model-forward --seed 1 \
        --seconds 20 --trace 0

The library is imported from ``src/`` next to this directory. A run
generates its inputs from ``--seed``, sets the program up several times
(``setup_s`` is the median), measures for ``--seconds``, checks every
output against an oracle, and prints one JSON object as the last line
of standard output. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs half the time untraced and half traced, and reports
the per-layer metrics. The line before it carries the run's context
(host, versions, backend, seed, sample counts); both, plus any trace,
are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

# this file's directory is on sys.path when it runs as a script
from layers import layer_metrics, mean, percentile, top_layers
from tracer import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-ups per run; ``setup_s`` is their median
SETUPS = 5
#: equal slices of the measured phase; ``throughput_rps`` is the median
#: of their completion rates, so one stalled stretch does not set it
SLICES = 5
#: share of requests cut from each end of the latency distribution
#: before ``latency_trimmed_mean_ms`` averages it
TRIM = 0.1


class Phase:
    """Everything one measured phase observed, per request."""

    def __init__(self) -> None:
        self.latency_s: list[float] = []    # completed and correct
        self.done_at_s: list[float] = []    # phase clock at completion
        self.modelled_s: list[float] = []
        self.queue_wait_s: list[float] = []
        self.batch_size: list[int] = []
        self.lag_s: list[float] = []        # open loop: sent - due
        self.attempted = 0
        self.wrong = 0
        self.rejected = 0   # engine admission control
        self.errors = 0
        self.active_s = 0.0
        self.cache_hits = self.cache_misses = 0
        #: closed loop: the request index the next phase continues from
        self.next_index = 0
        self._lock = threading.Lock()
        self._first_error: str | None = None

    def add_cache(self, before, after) -> None:
        self.cache_hits += after[0] - before[0]
        self.cache_misses += after[1] - before[1]

    @property
    def failed(self) -> int:
        return self.wrong + self.rejected + self.errors

    def error(self, exc: BaseException) -> None:
        from repro.errors import AdmissionError

        with self._lock:
            if isinstance(exc, AdmissionError):
                self.rejected += 1
                return
            self.errors += 1
            if self._first_error is None:
                self._first_error = "".join(
                    traceback.format_exception(type(exc), exc, exc.__traceback__)
                )
                print(self._first_error, file=sys.stderr)

    def done(self, response, check, latency_s: float, done_at_s: float) -> None:
        """Record one response; the check runs after its times were taken."""
        ok = check(response)
        with self._lock:
            if not ok:
                self.wrong += 1
                return
            self.latency_s.append(latency_s)
            self.done_at_s.append(done_at_s)
            self.modelled_s.append(float(response.request_time_s))
            self.queue_wait_s.append(float(response.queue_wait_s))
            self.batch_size.append(int(response.batch_size))


def _cache_counts(client) -> tuple[int, int]:
    """(plan-cache hits, misses) so far."""
    stats = client.planner.cache.stats()
    return stats["hits"], stats["misses"]


def closed_loop(workload, client, seconds: float, recorder=None,
                start: int = 0) -> tuple[Phase, object]:
    """One client sending its next request when the last completes.

    Building a request and checking its response pause the clock.
    Returns the phase and the (possibly replaced) client."""
    phase = Phase()
    before = _cache_counts(client)
    i = start
    rotate = getattr(workload, "rotate", None)
    while phase.active_s < seconds:
        if rotate and i > start and (i - start) % rotate == 0:
            phase.add_cache(before, _cache_counts(client))
            client.close()
            # a closed engine is cyclic garbage; left to the collector's
            # own schedule it piles up, and peak RSS then grows with the
            # number of requests a run gets through
            gc.collect()
            client = workload.open()
            before = _cache_counts(client)
        request, check = workload.next_request(i)
        if recorder is not None:
            recorder.set_request(i)
            recorder.shared_request_id = i
        phase.attempted += 1
        t0 = time.perf_counter()
        try:
            response = client.run(request)
        except Exception as exc:  # a failed request is counted, not fatal
            phase.active_s += time.perf_counter() - t0
            phase.error(exc)
        else:
            elapsed = time.perf_counter() - t0
            phase.active_s += elapsed
            phase.done(response, check, elapsed, phase.active_s)
        i += 1
    if recorder is not None:
        recorder.set_request(None)
        recorder.shared_request_id = None
    phase.add_cache(before, _cache_counts(client))
    phase.next_index = i
    return phase, client


def open_loop(workload, client, seconds: float, phase_no: int,
              recorder=None) -> Phase:
    """A single generator thread sends each request when it is due;
    latency runs from the due time to completion."""
    phase = Phase()
    schedule = workload.schedule(seconds, phase_no)
    before = _cache_counts(client)
    pending = threading.Semaphore(0)
    submitted = [0]
    start = time.perf_counter() + 0.01

    def on_done(future, due, check):
        now = time.perf_counter()
        exc = future.exception()
        if exc is not None:
            phase.error(exc)
        else:
            try:
                phase.done(future.result(), check, now - due, now - start)
            except Exception as err:  # a broken response is a failure
                phase.error(err)
        pending.release()

    def generate():
        for i, (offset, request, check) in enumerate(schedule):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            phase.lag_s.append(sent - due)
            phase.attempted += 1
            if recorder is not None:
                recorder.set_request(i)
            try:
                future = client.submit(request)
            except Exception as exc:  # refused or failed: counted
                phase.error(exc)
                continue
            submitted[0] += 1
            future.add_done_callback(
                lambda f, due=due, check=check: on_done(f, due, check)
            )

    generator = threading.Thread(target=generate, name="loadgen")
    generator.start()
    generator.join()
    deadline = time.perf_counter() + 120.0
    completed = 0
    while completed < submitted[0]:
        if not pending.acquire(timeout=max(0.0, deadline - time.perf_counter())):
            break
        completed += 1
    lost = submitted[0] - completed
    if lost:
        with phase._lock:
            phase.errors += lost
        print(f"{lost} requests never completed", file=sys.stderr)
    phase.active_s = time.perf_counter() - start
    phase.add_cache(before, _cache_counts(client))
    return phase


def run_phase(workload, client, seconds, phase_no, recorder=None, start=0):
    if workload.loop == "closed":
        return closed_loop(workload, client, seconds, recorder, start)
    return open_loop(workload, client, seconds, phase_no, recorder), client


def throughput(phase: Phase) -> float:
    """Median over ``SLICES`` equal slices of the phase clock of the
    correct completions per second in each slice."""
    import numpy as np

    width = phase.active_s / SLICES
    counts = np.bincount(
        np.minimum((np.asarray(phase.done_at_s) / width).astype(int), SLICES - 1),
        minlength=SLICES,
    )
    return float(np.median(counts)) / width


def trimmed_mean(values: list[float]) -> float:
    """The mean after cutting the ``TRIM`` share of smallest and of
    largest values."""
    cut = int(len(values) * TRIM)
    return mean(sorted(values)[cut:len(values) - cut])


def end_to_end(phase: Phase, setups: list[float]) -> dict:
    """Latency is a trimmed mean, not a median or a plain mean (see
    README.md, Steadiness): on a shared host a Python-heavy request runs
    in a fast or a slow state of its CPU, so its latencies are bimodal
    and a median between the modes jumps from run to run, while a plain
    mean follows the open-loop tail."""
    wall = trimmed_mean(phase.latency_s)
    modelled = mean(phase.modelled_s)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_trimmed_mean_ms": (wall * 1e3, "ms"),
        "success_ratio": ((phase.attempted - phase.failed) / phase.attempted, "ratio"),
        "wall_over_modelled": (wall / modelled if modelled else 0.0, "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def environment(client, seed: int) -> dict:
    import numpy
    import scipy

    from workloads import nproc

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": client.backend,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"benchmark: the library source is missing ({src / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    workload = WORKLOADS[args.workload](args.seed)
    setups = []
    client = recorder = None
    try:
        for _ in range(SETUPS):
            if client is not None:
                client.close()
                client = None
            t0 = time.perf_counter()
            client = workload.open()
            workload.warm(client)
            setups.append(time.perf_counter() - t0)
        env = environment(client, args.seed)
        if args.trace:
            untraced, client = run_phase(workload, client, args.seconds / 2, 1)
            recorder = Recorder()
            recorder.install()
            try:
                phase, client = run_phase(
                    workload, client, args.seconds / 2, 2, recorder,
                    start=untraced.next_index,
                )
            finally:
                recorder.uninstall()
        else:
            phase, client = run_phase(workload, client, args.seconds, 1)
    finally:
        if client is not None:
            client.close()

    if args.trace:
        metrics = layer_metrics(untraced, phase, recorder)
        env["top_layers_by_self_time"] = top_layers(recorder)
    else:
        metrics = end_to_end(phase, setups)
    env.update({
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "loop": workload.loop,
        "latency_samples": len(phase.latency_s),
        "attempted": phase.attempted,
        "wrong": phase.wrong,
        "rejected": phase.rejected,
        "errors": phase.errors,
        "setups_s": setups,
        "plan_cache_misses": phase.cache_misses,
        "throughput_rps": throughput(phase),
        "latency_mean_ms": mean(phase.latency_s) * 1e3,
        "latency_p50_ms": percentile(phase.latency_s, 50) * 1e3,
        "latency_p95_ms": percentile(phase.latency_s, 95) * 1e3,
        "modelled_p50_us": percentile(phase.modelled_s, 50) * 1e6,
    })
    result = {
        "correct": phase.wrong == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"info": env, "result": result}, indent=2) + "\n"
    )
    if recorder is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w") as f:
            for sid, name, start, end, parent, rid in recorder.spans:
                f.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request_id": rid,
                }) + "\n")
    print(json.dumps({"info": env}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``repro fleet`` — drive the sharded multi-process front door.

Usage::

    repro fleet serve --workers 2 --demo        # mixed traffic demo
    repro fleet serve --workers 3 --demo --kill # + chaos: SIGKILL one
    repro fleet serve --demo --pack fleet-pack  # warm-start from a pack
    repro fleet serve --demo --metrics-out fleet.metrics.json
    repro fleet status --workers 2              # boot, report, shut down
    repro fleet pack plans-a.json plans-b.json --out fleet-pack
    repro fleet pack --check fleet-pack         # verify an existing pack

The demo serves spmm + sddmm + attention sessions through the
gateway, prints the deterministic session→worker placement and the
per-worker request counts, and — with ``--kill`` — SIGKILLs a live
worker mid-stream to exercise respawn + retry-once (the demo fails if
any request errors). ``--metrics-out`` writes the gateway's merged
fleet snapshot in the standard :mod:`repro.obs` JSON form, so
``repro obs summary --metrics fleet.metrics.json`` works on it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.errors import FleetError, ReproError

__all__ = ["main"]


def _demo_requests(sessions: int):
    """(prepared request factories, one per named session) for the
    demo's mixed traffic."""
    from repro.api.requests import AttentionRequest, SddmmRequest, SpmmRequest
    from repro.core.matrix import SparseMatrix

    rng = np.random.default_rng(7)
    classes = []
    for i in range(sessions):
        dense = (rng.random((64, 64)) < 0.3).astype(np.int8)
        dense[::8, :] = 1  # keep every vector row populated
        lhs = SparseMatrix.from_dense(dense, vector_length=8)
        rhs = np.ones((64, 8), dtype=np.int8)
        classes.append((
            f"spmm-demo-{i}",
            lambda lhs=lhs, rhs=rhs, i=i: SpmmRequest(
                lhs=lhs, rhs=rhs, session=f"spmm-demo-{i}"
            ),
        ))
        mask = SparseMatrix.from_dense(dense, vector_length=8)
        a = np.ones((64, 32), dtype=np.int8)
        b = np.ones((32, 64), dtype=np.int8)
        classes.append((
            f"sddmm-demo-{i}",
            lambda mask=mask, a=a, b=b, i=i: SddmmRequest(
                mask=mask, a=a, b=b, session=f"sddmm-demo-{i}"
            ),
        ))
        classes.append((
            f"attn-demo-{i}",
            lambda i=i: AttentionRequest(
                seq_len=128, num_heads=4, session=f"attn-demo-{i}"
            ),
        ))
    return classes


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.fleet.gateway import FleetConfig, open_fleet

    if not args.demo:
        print("repro fleet serve: only --demo traffic is implemented; "
              "pass --demo", file=sys.stderr)
        return 2
    config = FleetConfig(
        workers=args.workers,
        pack=args.pack,
        max_inflight=args.max_inflight,
    )
    classes = _demo_requests(args.sessions)
    errors: list[str] = []
    retried = 0
    with open_fleet(config) as gateway:
        print(f"fleet up: {len(gateway.pool)} workers"
              + (f", pack {gateway.pack.fingerprint}" if gateway.pack else ""))
        # one priming request per class builds the placement map
        for _name, make in classes:
            gateway.run(make())
        placement = gateway.status()["placement"]
        for session, worker in sorted(placement.items()):
            print(f"  {session:<16} -> {worker}")
        futures = []
        kill_at = args.requests // 2 if args.kill else None
        victim = None
        for n in range(args.requests):
            if kill_at is not None and n == kill_at:
                victim = placement[classes[0][0]]
                print(f"chaos: SIGKILL worker {victim!r} mid-stream")
                gateway.kill_worker(victim)
            _name, make = classes[n % len(classes)]
            try:
                futures.append(gateway.submit(make()))
            except ReproError as exc:
                errors.append(f"submit: {type(exc).__name__}: {exc}")
        gateway.flush()
        for future in futures:
            try:
                future.result(config.rpc_timeout_s)
            except ReproError as exc:
                errors.append(f"result: {type(exc).__name__}: {exc}")
        status = gateway.status()
        doc = gateway.metrics.to_dict()
        retried = sum(
            int(s.get("value", 0))
            for s in doc.get("repro_fleet_retries_total", {}).get("samples", ())
        )
        routed = {
            s.get("labels", {}).get("worker"): int(s.get("value", 0))
            for s in doc.get("repro_fleet_requests_total", {}).get("samples", ())
        }
        for name, info in sorted(status["workers"].items()):
            state = "dead" if info["dead"] else (
                "alive" if info["alive"] else "down")
            print(f"  worker {name}: {state}, routed {routed.get(name, 0)}, "
                  f"restarts {info['restarts']}")
        health = gateway.health()
        print(f"health: {health.status} "
              f"({len(health.results)} objectives, "
              f"{len(health.breaches)} breaching)")
        if args.metrics_out:
            from repro.obs.export import write_snapshot

            write_snapshot(gateway.metrics_snapshot(), args.metrics_out)
            print(f"merged fleet metrics -> {args.metrics_out}")
        if victim is not None:
            print(f"survived the kill: worker {victim!r} respawned, "
                  f"{retried} request(s) retried")
    served = args.requests + len(classes) - len(errors)
    print(f"demo done: {served}/{args.requests + len(classes)} requests "
          f"served, {retried} retried, {len(errors)} errors")
    for line in errors:
        print(f"  error: {line}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.fleet.gateway import FleetConfig, open_fleet

    config = FleetConfig(workers=args.workers, pack=args.pack)
    with open_fleet(config) as gateway:
        time.sleep(max(config.heartbeat_s * 2, 0.1))
        status = gateway.status()
        print(json.dumps(status, indent=2, sort_keys=True, default=str))
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from repro.fleet.pack import FleetPack, build_pack

    if args.check:
        pack = FleetPack.load(args.check)
        problems = pack.verify()
        summary = pack.summary()
        print(f"pack {summary['root']}: version {summary['version']}, "
              f"{summary['members']} member(s), {summary['plans']} plan(s), "
              f"fingerprint {summary['fingerprint']}")
        for line in problems:
            print(f"  PROBLEM: {line}", file=sys.stderr)
        return 1 if problems else 0
    if not args.artifacts:
        print("repro fleet pack: pass plan-cache artifacts to bundle, "
              "or --check DIR to verify an existing pack", file=sys.stderr)
        return 2
    pack = build_pack(args.artifacts, args.out, version=args.version)
    summary = pack.summary()
    print(f"packed {summary['members']} artifact(s), {summary['plans']} "
          f"plan(s) -> {summary['root']} "
          f"(version {summary['version']}, "
          f"fingerprint {summary['fingerprint']})")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro fleet",
        description="sharded multi-process serving front door",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser(
        "serve", help="boot a worker fleet and serve demo traffic"
    )
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--demo", action="store_true",
                       help="serve mixed spmm/sddmm/attention traffic")
    serve.add_argument("--requests", type=int, default=48,
                       help="demo requests after the priming pass")
    serve.add_argument("--sessions", type=int, default=2,
                       help="named demo sessions per request kind")
    serve.add_argument("--max-inflight", type=int, default=32)
    serve.add_argument("--pack", default=None,
                       help="fleet-pack directory to warm-start from")
    serve.add_argument("--kill", action="store_true",
                       help="SIGKILL one worker mid-demo (failover drill)")
    serve.add_argument("--metrics-out", default=None,
                       help="write the merged fleet metrics snapshot here")
    serve.set_defaults(fn=_cmd_serve)

    status = sub.add_parser(
        "status", help="boot a fleet, print its status, shut down"
    )
    status.add_argument("--workers", type=int, default=2)
    status.add_argument("--pack", default=None)
    status.set_defaults(fn=_cmd_status)

    pack = sub.add_parser(
        "pack", help="bundle plan-cache artifacts into a fleet pack"
    )
    pack.add_argument("artifacts", nargs="*",
                      help="plan-cache JSON artifacts to bundle")
    pack.add_argument("--out", default="fleet-pack",
                      help="pack directory to write (default: fleet-pack)")
    pack.add_argument("--version", default="0")
    pack.add_argument("--check", default=None, metavar="DIR",
                      help="verify an existing pack instead of building")
    pack.set_defaults(fn=_cmd_pack)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FleetError as exc:
        print(f"repro fleet: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via `repro fleet`
    sys.exit(main())

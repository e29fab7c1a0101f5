#!/usr/bin/env python
"""Perf trajectory: pin this PR's ingress-suite numbers into the repo.

Replays the 10k-session synthetic shard suite (the same trace
``test_bench_ingress`` scales on) through the pipelined ingress and
writes throughput (sessions/sec, requests/sec) plus peak RSS to a
committed ``BENCH_<n>.json``.  One file per PR builds the in-repo
trajectory ROADMAP asks for: regressions become visible as a diff, not
just a transient CI artifact.

Optionally exports the run's metrics snapshot (canonical JSON and
Prometheus text) so CI can archive the full instrument readout next to
the benchmark numbers::

    PYTHONPATH=src python benchmarks/bench_trajectory.py \
        --out benchmarks/BENCH_6.json \
        --metrics-out metrics.json --prom-out metrics.prom

Numbers are machine-dependent by nature; the committed file records the
environment (python, cores) alongside them so trajectory diffs are read
in context.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)
sys.path.insert(0, os.path.dirname(__file__))

from test_bench_ingress import (  # noqa: E402
    N_NODES,
    SHARDS,
    SUITE_SESSIONS,
    _replay,
    _suite_trace,
)

PR_NUMBER = 10


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class _SlowWorker:
    """A deliberately under-provisioned lane for the overload probe."""

    def __init__(self, lane: int, delay: float) -> None:
        self.lane = lane
        self.delay = delay
        self.handled = 0

    def process(self, event) -> None:
        time.sleep(self.delay)
        self.handled += 1

    def finish(self):
        from repro.ingress.workers import LaneResult
        from repro.proxy.node import NodeStats

        return LaneResult(
            lane=self.lane, stats=NodeStats(), handled=self.handled
        )


def _overload_probe(
    budget: float = 0.25,
    depth: int = 512,
    events: int = 2000,
) -> dict:
    """Measure the PR's admission path: p99 predicted lane delay under
    ADAPTIVE vs binary SHED at the same queue depth, same arrivals.

    The acceptance number the overload tests pin: the adaptive
    controller keeps the prediction near the budget while binary
    shedding lets it saturate at the full queue's drain time.
    """
    from repro.ingress.pipeline import IngressConfig, IngressPipeline
    from repro.ingress.queues import ShedPolicy
    from repro.overload.admission import AdaptiveConfig
    from repro.proxy.network import ProxyNetwork
    from repro.util.rng import RngStream

    def drive(policy, adaptive=None):
        network = ProxyNetwork(
            origins={},
            rng=RngStream(0, "bench"),
            n_nodes=1,
            instrument_enabled=False,
        )
        config = IngressConfig(
            executor="thread",
            queue_depth=depth,
            policy=policy,
            adaptive=adaptive,
        )
        pipeline = IngressPipeline(
            network, [_SlowWorker(0, delay=0.002)], config
        )
        samples = []
        try:
            for index in range(events):
                pipeline.tick(float(index))
                pipeline.submit(("event", index), f"10.0.{index % 24}.1")
                samples.append(pipeline.queue_delays().get(0, 0.0))
                time.sleep(0.0005)
        finally:
            result = pipeline.close()
        tail = sorted(samples[len(samples) // 4 :])
        p99 = tail[min(len(tail) - 1, int(len(tail) * 0.99))]
        return p99, result.shed

    shed_p99, shed_count = drive(ShedPolicy.SHED)
    adaptive_p99, adaptive_count = drive(
        ShedPolicy.ADAPTIVE,
        AdaptiveConfig(
            delay_budget=budget,
            ramp_requests=64,
            duty_cycle=4,
            fairness_half_life=1.0,
        ),
    )
    return {
        "delay_budget_seconds": budget,
        "queue_depth": depth,
        "events": events,
        "shed_p99_predicted_seconds": round(shed_p99, 4),
        "adaptive_p99_predicted_seconds": round(adaptive_p99, 4),
        "shed_dropped": shed_count,
        "adaptive_dropped": adaptive_count,
    }


def _serve_probe(sessions: int = 40, seed: int = 7) -> dict:
    """Measure the PR-10 front door: requests/sec through a live
    localhost ``DetectorServer`` driven by the agent swarm over real
    sockets (keep-alive HTTP/1.1, full pipeline per request)."""
    import asyncio

    from repro.http.uri import Url
    from repro.serve.server import DetectorServer, ServeConfig
    from repro.serve.swarm import SwarmConfig, run_swarm
    from repro.util.rng import RngStream
    from repro.workload.codeen import CodeenWeekConfig, CodeenWeekExperiment

    async def drive():
        experiment = CodeenWeekExperiment(
            CodeenWeekConfig(n_sessions=sessions, n_nodes=2, seed=seed)
        )
        network, entry_url = experiment.build_network(
            RngStream(seed, "serve")
        )
        server = DetectorServer(
            network,
            default_host=Url.parse(entry_url).host,
            # The swarm names each simulated client in X-Forwarded-For.
            config=ServeConfig(trust_forwarded_for=True),
        )
        await server.start()
        started = time.perf_counter()
        result = await run_swarm(
            SwarmConfig(
                port=server.port, sessions=sessions, seed=seed,
                concurrency=16,
            ),
            entry_url,
        )
        elapsed = time.perf_counter() - started
        await server.close()
        return result, elapsed

    result, elapsed = asyncio.run(drive())
    return {
        "sessions": sessions,
        "requests": result.requests,
        "transport_errors": result.errors,
        "elapsed_seconds": round(elapsed, 3),
        "served_requests_per_sec": round(result.requests / elapsed, 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sessions", type=int, default=SUITE_SESSIONS,
        help=f"suite size in sessions (default {SUITE_SESSIONS})",
    )
    parser.add_argument(
        "--executor", default="process",
        choices=("serial", "thread", "process"),
    )
    parser.add_argument(
        "--lanes-per-node", type=int, default=SHARDS,
        help="ingress lanes per node: 1 = per-node lanes (the pre-PR-7 "
             f"layout), {SHARDS} = one lane per state shard (default)",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(__file__), f"BENCH_{PR_NUMBER}.json"
        ),
        help="trajectory JSON to write",
    )
    parser.add_argument(
        "--metrics-out", default=None,
        help="also write the run's metrics snapshot as repro.obs JSON",
    )
    parser.add_argument(
        "--prom-out", default=None,
        help="also write the snapshot in Prometheus text format",
    )
    args = parser.parse_args(argv)

    records = _suite_trace(args.sessions)
    started = time.perf_counter()
    result = _replay(
        records,
        executor=args.executor,
        queue_depth=4096,
        lanes_per_node=args.lanes_per_node,
    )
    elapsed = time.perf_counter() - started
    assert result.requests_replayed == len(records)

    # ru_maxrss is KiB on Linux.  The process executor does its work in
    # child interpreters, so report the lane-side peak too.
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    payload = {
        "bench": "ingress-shard-suite",
        "pr": PR_NUMBER,
        "sessions": args.sessions,
        "requests": len(records),
        "executor": args.executor,
        "lanes": N_NODES * args.lanes_per_node,
        "lanes_per_node": args.lanes_per_node,
        "shards": SHARDS,
        "elapsed_seconds": round(elapsed, 3),
        "sessions_per_sec": round(args.sessions / elapsed, 1),
        "requests_per_sec": round(len(records) / elapsed, 1),
        "peak_rss_kib": self_rss,
        "peak_lane_rss_kib": child_rss,
        "python": platform.python_version(),
        "cores": _cores(),
        # The PR-9 admission path under synthetic overload: adaptive
        # keeps the p99 prediction near the budget, binary SHED at the
        # same depth saturates.
        "overload": _overload_probe(),
        # The PR-10 live front door: the same pipeline served over
        # real sockets to the agent swarm.
        "serve": _serve_probe(),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {args.out}")

    if args.metrics_out or args.prom_out:
        from repro.obs.export import to_json, to_prometheus

        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(to_json(result.metrics))
                handle.write("\n")
            print(f"wrote {args.metrics_out}")
        if args.prom_out:
            with open(args.prom_out, "w", encoding="utf-8") as handle:
                handle.write(to_prometheus(result.metrics))
            print(f"wrote {args.prom_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

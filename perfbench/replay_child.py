"""The program under test for the replay workload: one
``TraceReplayEngine.replay`` in its own process, configured as
``repro replay --executor process --nodes 4`` runs it (instrumentation
off, one lane per node).

Usage (the benchmark spawns it; ``config`` is a JSON object)::

    PYTHONPATH=src python3 perfbench/replay_child.py '<config json>'

The child prints ``{"ready": <CLOCK_MONOTONIC seconds>}`` once the
network is built, replays, and writes the result JSON to
``config["result"]``.  ``config["executor"]`` may be null for the
synchronous loop; ``config["trace"]`` installs the benchmark's span
wrappers around the parent-side entry points first.
"""

from __future__ import annotations

import json
import resource
import sys
import time

# The script's own directory is on sys.path: the benchmark's helpers.
from inputs import summary_dict


def main() -> int:
    config = json.loads(sys.argv[1])

    from repro.proxy.network import ProxyNetwork
    from repro.trace.replay import ReplayConfig, TraceReplayEngine
    from repro.util.rng import RngStream

    spans = None
    if config.get("trace"):
        from tracing import SpanLog, install_replay

        spans = SpanLog()
        install_replay(spans)
    network = ProxyNetwork(
        origins={}, rng=RngStream(0, "replay"), n_nodes=config["nodes"],
        instrument_enabled=False,
    )
    engine = TraceReplayEngine(
        network, ReplayConfig(executor=config.get("executor"))
    )
    print(json.dumps({"ready": time.monotonic()}), flush=True)

    before = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    result = engine.replay(config["trace_path"], probes=config["journal_path"])
    wall = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_SELF)
    lanes = resource.getrusage(resource.RUSAGE_CHILDREN)

    metrics = result.metrics
    histograms = {}
    for name in (
        "repro_proxy_handle_seconds",
        "repro_detection_seconds",
        "repro_ingress_queue_wait_seconds",
    ):
        # One series per node/shard label set; the layout is shared.
        points = metrics.series(name)
        if points:
            histograms[name] = {
                "buckets": list(points[0].buckets),
                "counts": [sum(c) for c in zip(*(p.counts for p in points))],
                "sum": sum(p.sum for p in points),
                "count": sum(p.count for p in points),
            }
    out = {
        "wall_s": wall,
        "requests": result.requests_replayed,
        "probes": result.probes_loaded,
        "lines": result.parse_stats.lines,
        "malformed": result.parse_stats.malformed,
        "probe_malformed": result.probe_parse_stats.malformed,
        "shed": result.stats.shed,
        "census": dict(sorted(result.kind_census().items())),
        "summary": summary_dict(result.summary),
        "beacon_requests": metrics.total("repro_proxy_beacon_requests_total"),
        "cache_hits": metrics.total("repro_cache_hits_total"),
        "cache_misses": metrics.total("repro_cache_misses_total"),
        "histograms": histograms,
        "parent_cpu_s": (after.ru_utime + after.ru_stime)
        - (before.ru_utime + before.ru_stime),
        "lane_cpu_s": lanes.ru_utime + lanes.ru_stime,
        "maxrss_kb": after.ru_maxrss,
        "spans": spans.totals() if spans is not None else None,
    }
    if spans is not None:
        spans.write(config["spans_out"])
    with open(config["result"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The program under test for the serve workloads: one ``DetectorServer``
in its own process.

Usage (the benchmark spawns it; ``config`` is a JSON object)::

    PYTHONPATH=src python3 perfbench/server_child.py '<config json>'

Protocol on stdin/stdout, one JSON object per line:

* the child prints ``{"ready": <CLOCK_MONOTONIC seconds>, "port": p}``
  once the socket is listening, so set-up time is measured on the
  system-wide monotonic clock from the parent's launch;
* ``mark`` answers with the serve-stage histograms so far (the parent
  splits them by phase);
* ``stop`` closes the server, finalizes sessions, runs the socketless
  replay of the server's own live log and journal, writes the result
  JSON to ``config["result"]`` and exits.

With ``config["setup_only"]`` the child exits right after ``ready``;
the benchmark uses that to repeat set-up without serving.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys
import time

# The script's own directory is on sys.path: the benchmark's helpers.
from inputs import summary_dict


def _stages(server) -> dict:
    out = {}
    for point in server.metrics.snapshot().series("repro_serve_stage_seconds"):
        out[dict(point.labels)["stage"]] = [point.sum, point.count]
    return out


def _open_connections(server) -> float:
    return server.metrics.snapshot().total("repro_serve_open_connections")


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    config = json.loads(sys.argv[1])

    from repro.http.uri import Url
    from repro.serve.server import DetectorServer, ServeConfig
    from repro.site.generator import SiteConfig
    from repro.util.rng import RngStream
    from repro.workload.codeen import CodeenWeekConfig, CodeenWeekExperiment

    experiment = CodeenWeekExperiment(
        CodeenWeekConfig(
            n_sessions=config["sessions"], n_nodes=config["nodes"],
            seed=config["seed"], site=SiteConfig(n_pages=config["pages"]),
        )
    )
    network, entry_url = experiment.build_network(
        RngStream(config["seed"], "record")
    )
    spans = None
    if config.get("trace"):
        from tracing import SpanLog, install_serve

        spans = SpanLog()
        install_serve(spans)
    serve_config = ServeConfig(
        # The load generator is the trusted fronting proxy: it carries
        # each client's address in X-Forwarded-For.
        trust_forwarded_for=True,
        # A fronting proxy keeps its upstream connections open for the
        # whole trace; the default cap (1000) would close a pipelined
        # connection mid-stream.
        max_requests_per_connection=10**9,
        trace_path=config.get("live_trace"),
        probes_path=config.get("live_probes"),
    )

    async def serve() -> dict | None:
        server = DetectorServer(
            network, default_host=Url.parse(entry_url).host,
            config=serve_config,
        )
        await server.start()
        _emit({"ready": time.monotonic(), "port": server.port})
        if config.get("setup_only"):
            await server.close()
            return None
        loop = asyncio.get_running_loop()
        while True:
            command = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
            if command == "mark":
                _emit({"stages": _stages(server)})
            elif command in ("stop", ""):
                break
        # The generator closed its connections before sending "stop";
        # let their handlers finish so close() does not cancel them.
        for _ in range(500):
            if not _open_connections(server):
                break
            await asyncio.sleep(0.01)
        stages = _stages(server)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        server.annotate_ground_truth(_identities(config["trace_path"]))
        await server.close()
        sessions = server.finalize_sessions()
        census: dict[str, int] = {}
        for state in sessions:
            census[state.agent_kind] = census.get(state.agent_kind, 0) + 1
        snapshot = network.metrics_snapshot()
        stats = network.stats()
        return {
            "requests_handled": server.requests_handled,
            "parse_errors": server.parse_errors,
            "shed": server.shed_count,
            "census": dict(sorted(census.items())),
            "summary": summary_dict(server.session_summary()),
            "stats": {
                "beacon_requests": stats.beacon_requests,
                "pages_instrumented": stats.pages_instrumented,
                "markup_bytes": stats.instrumentation_markup_bytes,
                "cache_hits": snapshot.total("repro_cache_hits_total"),
                "cache_misses": snapshot.total("repro_cache_misses_total"),
            },
            "stages": stages,
            "maxrss_kb": usage.ru_maxrss,
            "spans": spans.totals() if spans is not None else None,
        }

    result = asyncio.run(serve())
    if result is None:
        return 0
    if spans is not None:
        spans.write(config["spans_out"])
    result["replay"] = _socketless_replay(
        config["live_trace"], config["live_probes"], config["nodes"]
    )
    with open(config["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    _emit({"done": True})
    return 0


def _identities(trace_path: str) -> dict:
    """Ground truth ``(ip, ua) -> (kind, label)`` from the recording."""
    from repro.trace.clf import read_trace

    return {
        (r.client_ip, r.user_agent): (r.agent_kind, r.true_label)
        for r in read_trace(trace_path)
        if r.agent_kind or r.true_label
    }


def _socketless_replay(trace: str, probes: str, nodes: int) -> dict:
    """Replay the live log and journal as ``repro replay`` would."""
    from repro.proxy.network import ProxyNetwork
    from repro.trace.replay import TraceReplayEngine
    from repro.util.rng import RngStream

    network = ProxyNetwork(
        origins={}, rng=RngStream(0, "replay"), n_nodes=nodes,
        instrument_enabled=False,
    )
    result = TraceReplayEngine(network).replay(trace, probes=probes)
    return {
        "requests": result.requests_replayed,
        "malformed": result.parse_stats.malformed,
        "census": dict(sorted(result.kind_census().items())),
        "summary": summary_dict(result.summary),
        "beacon_requests": result.metrics.total(
            "repro_proxy_beacon_requests_total"
        ),
    }


if __name__ == "__main__":
    sys.exit(main())

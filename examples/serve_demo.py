#!/usr/bin/env python
"""Serve the detection pipeline on a live socket, then replay the log.

Demonstrates the serve subsystem end to end:

1. build a deployment — synthetic site behind a 2-node proxy network —
   and mount it on a real listening socket with `DetectorServer`
   (asyncio, stdlib only), streaming a live CLF access log;
2. drive a mixed swarm of the repo's agent classes (human browsers,
   crawlers, harvesters, scanners) at the server over real TCP
   connections, agent identity carried in X-Forwarded-For;
3. replay the live log through a *fresh* deployment — no origin site,
   no instrumenter, no sockets — and show the detection census,
   set-algebra summary and per-session verdicts coming out identical.

Run:  python examples/serve_demo.py
"""

from __future__ import annotations

import asyncio
import os
import tempfile

from repro.http.uri import Url
from repro.proxy.network import ProxyNetwork
from repro.serve.server import DetectorServer, ServeConfig
from repro.serve.swarm import SwarmConfig, run_swarm
from repro.site.generator import SiteConfig, SiteGenerator
from repro.site.origin import OriginServer
from repro.trace.replay import ReplayConfig, replay_trace
from repro.util.rng import RngStream


async def live_run(trace_path: str, probes_path: str):
    rng = RngStream(2006, "serve-demo")

    # 1. The deployment, mounted on an ephemeral localhost port.
    website = SiteGenerator(SiteConfig(n_pages=20)).generate(rng.split("site"))
    network = ProxyNetwork(
        origins={website.host: OriginServer(website)},
        rng=rng.split("proxies"),
        n_nodes=2,
    )
    entry = f"http://{website.host}{website.home_path}"
    server = DetectorServer(
        network,
        default_host=website.host,
        config=ServeConfig(
            trace_path=trace_path,
            probes_path=probes_path,
            # The swarm below fronts every simulated client from
            # loopback and names it in X-Forwarded-For.
            trust_forwarded_for=True,
        ),
    )
    await server.start()
    print(f"serving {entry} on {server.address}")

    # 2. A mixed swarm of the existing agent classes, over real sockets.
    result = await run_swarm(
        SwarmConfig(port=server.port, sessions=40, seed=7, concurrency=12),
        entry,
    )
    server.annotate_ground_truth(result.identities())
    await server.close()
    print(
        f"swarm: {result.requests} requests over "
        f"{len(result.reports)} sessions ({result.errors} errors)"
    )

    sessions = server.finalize_sessions()
    census: dict[str, int] = {}
    for state in sessions:
        census[state.agent_kind] = census.get(state.agent_kind, 0) + 1
    return website.host, census, server.session_summary()


def main() -> None:
    tmp = tempfile.mkdtemp(prefix="serve-demo-")
    trace_path = os.path.join(tmp, "live.log.gz")
    probes_path = os.path.join(tmp, "live.keys.gz")

    host, live_census, live_summary = asyncio.run(
        live_run(trace_path, probes_path)
    )
    print("\nlive census:")
    for kind, count in sorted(live_census.items()):
        print(f"  {kind:20s} {count}")

    # 3. Replay the live log through a fresh, socketless deployment.
    fresh = ProxyNetwork(
        origins={},
        rng=RngStream(0, "replay"),
        n_nodes=2,
        instrument_enabled=False,
    )
    replayed = replay_trace(
        fresh,
        trace_path,
        probes=probes_path,
        config=ReplayConfig(default_host=host),
    )
    print(f"\nreplayed {replayed.requests_replayed} requests")
    assert replayed.kind_census() == live_census
    assert replayed.summary == live_summary
    print("replay census and summary match the live socket run exactly")
    print(f"\nartifacts kept in {tmp}")


if __name__ == "__main__":
    main()

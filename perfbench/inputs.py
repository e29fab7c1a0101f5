"""Seeded benchmark inputs: a recorded CoDeeN-week trace and its journal.

Each input set is recorded by the program's own ``record_workload`` on
the network that ``CodeenWeekExperiment.build_network(RngStream(seed,
"record"))`` builds, exactly as ``repro record`` does.  Because probe
keys are drawn from ``(node, client_ip, per-client sequence)``, a server
rebuilt from the same seed and site size re-issues the recorded keys as
long as each client's requests arrive in recorded order, so the
pre-rendered requests fetch beacon, JS and CSS probes that really hit.

An input set is cached per (seed, site size, sessions) under
``perfbench/.work/inputs``.  ``meta.json`` carries the recording's
census and the SHA-256 digest of every file, and every load re-hashes
the files, so two commits are shown to have received the same bytes.

Run as a script to record one set (the benchmark does this in a child
process so that the load generator's heap stays small)::

    PYTHONPATH=src python3 perfbench/inputs.py --seed 1 --pages 60 \
        --sessions 200 --out perfbench/.work/inputs/s1-p60-n200
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict, dataclass

TRACE = "trace.log"
JOURNAL = "keys.log"
REQUESTS = "requests.bin"
META = "meta.json"
N_NODES = 4


@dataclass(frozen=True)
class Inputs:
    """One recorded input set on disk, with its recording's census."""

    directory: str
    meta: dict

    @property
    def trace(self) -> str:
        return os.path.join(self.directory, TRACE)

    @property
    def journal(self) -> str:
        return os.path.join(self.directory, JOURNAL)

    @property
    def requests(self) -> str:
        return os.path.join(self.directory, REQUESTS)


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def ensure_inputs(
    work: str, env: dict, seed: int, pages: int, sessions: int
) -> Inputs:
    """Load the cached input set, recording it first when missing."""
    key = f"s{seed}-p{pages}-n{sessions}"
    directory = os.path.join(work, "inputs", key)
    if not os.path.exists(os.path.join(directory, META)):
        staging = f"{directory}.tmp{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        subprocess.run(
            [
                sys.executable, os.path.abspath(__file__),
                "--seed", str(seed), "--pages", str(pages),
                "--sessions", str(sessions), "--out", staging,
            ],
            env=env, check=True, stdout=subprocess.DEVNULL, timeout=600,
        )
        shutil.rmtree(directory, ignore_errors=True)
        os.replace(staging, directory)
    with open(os.path.join(directory, META), encoding="utf-8") as handle:
        meta = json.load(handle)
    for name, expected in meta["sha256"].items():
        actual = sha256(os.path.join(directory, name))
        if actual != expected:
            raise RuntimeError(
                f"cached input {key}/{name} changed on disk "
                f"({actual} != {expected}); delete it to re-record"
            )
    return Inputs(directory, meta)


def read_requests(path: str) -> tuple[list, list[int]]:
    """Pre-rendered requests as ``(client_ip, is_head, wire_bytes)``,
    and the status the recording answered each with."""
    requests, statuses = [], []
    with open(path, "rb") as handle:
        while True:
            header = handle.readline()
            if not header:
                break
            ip, head, status, length = header.decode("ascii").split("\t")
            requests.append((ip, head == "1", handle.read(int(length))))
            statuses.append(int(status))
    return requests, statuses


def summary_dict(summary) -> dict:
    """A set-algebra summary as a plain dict (JSON- and ==-comparable)."""
    return asdict(summary)


def _record(seed: int, pages: int, sessions: int, out: str) -> None:
    from repro.http.uri import Url
    from repro.serve.swarm import render_request
    from repro.site.generator import SiteConfig
    from repro.trace.clf import read_trace
    from repro.trace.recorder import record_workload
    from repro.util.rng import RngStream
    from repro.workload.codeen import CodeenWeekConfig, CodeenWeekExperiment
    from repro.workload.engine import WorkloadConfig, WorkloadEngine
    from repro.workload.mixes import CODEEN_WEEK

    os.makedirs(out, exist_ok=True)
    experiment = CodeenWeekExperiment(
        CodeenWeekConfig(
            n_sessions=sessions, n_nodes=N_NODES, seed=seed,
            site=SiteConfig(n_pages=pages),
        )
    )
    rng = RngStream(seed, "record")
    network, entry_url = experiment.build_network(rng)
    engine = WorkloadEngine(
        network, CODEEN_WEEK, entry_url, rng.split("workload"),
        WorkloadConfig(n_sessions=sessions, captcha_enabled=False),
    )
    trace = os.path.join(out, TRACE)
    journal = os.path.join(out, JOURNAL)
    result, recorder = record_workload(engine, trace, journal)

    # Wire bytes for the load generator, in recorded order: the client
    # identity travels in X-Forwarded-For, as from a fronting proxy.
    heads = 0
    with open(os.path.join(out, REQUESTS), "wb") as handle:
        for record in read_trace(trace):
            request = record.to_request()
            request.headers.set("X-Forwarded-For", record.client_ip)
            wire = render_request(request.method, request.url, request.headers)
            head = request.method.value == "HEAD"
            heads += head
            handle.write(
                f"{record.client_ip}\t{int(head)}\t{record.status}\t"
                f"{len(wire)}\n".encode()
            )
            handle.write(wire)

    census = result.kind_census()
    meta = {
        "seed": seed,
        "pages": pages,
        "sessions": sessions,
        "nodes": N_NODES,
        "default_host": Url.parse(entry_url).host,
        "requests": len(recorder.records),
        "probes": len(recorder.probes),
        "head_requests": heads,
        "census": dict(sorted(census.items())),
        "summary": summary_dict(result.summary),
        "beacon_requests": result.stats.beacon_requests,
        "pages_instrumented": result.stats.pages_instrumented,
        "sha256": {
            name: sha256(os.path.join(out, name))
            for name in (TRACE, JOURNAL, REQUESTS)
        },
    }
    with open(os.path.join(out, META), "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=1, sort_keys=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pages", type=int, required=True)
    parser.add_argument("--sessions", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    _record(args.seed, args.pages, args.sessions, args.out)


if __name__ == "__main__":
    main()

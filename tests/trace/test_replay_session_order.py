"""Pinned session ids and their order after a trace replay.

The lists below were produced by the replay engine before the
unsharded and sharded node layouts shared one code path.  They must
not move: ``shards=0`` keeps one tracker's completion order with
``sess-`` ids, ``shards>=1`` merges shards by ``(started_at, client
IP, user agent)`` with ``sNN-`` ids.
"""

from __future__ import annotations

import pytest

from repro.http.message import Method
from repro.http.uri import Url
from repro.proxy.network import ProxyNetwork
from repro.trace.clf import TraceRecord
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import ReplayConfig, TraceReplayEngine
from repro.util.rng import RngStream
from repro.workload.engine import WorkloadConfig, WorkloadEngine
from repro.workload.mixes import SMOKE

#: Per-node session numbers of the 50-session smoke recording below
#: (three nodes, concatenated in node order).
RECORDED_NUMBERS = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15, 16, 17,
    1, 2, 3, 4, 5, 7, 8, 10, 11, 13, 14, 15, 16, 17,
    1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16,
]


@pytest.fixture(scope="module")
def recorded(small_origin, small_site):
    network = ProxyNetwork(
        origins={small_site.host: small_origin},
        rng=RngStream(71, "net"),
        n_nodes=3,
    )
    recorder = TraceRecorder()
    recorder.attach(network)
    result = WorkloadEngine(
        network,
        SMOKE,
        f"http://{small_site.host}{small_site.home_path}",
        RngStream(71, "wl"),
        WorkloadConfig(n_sessions=50, captcha_enabled=False),
    ).run()
    recorder.detach(network)
    recorder.annotate_ground_truth(result.records)
    return recorder.sorted_records(), recorder.sorted_probes()


def _session_ids(records, probes=None, n_nodes=3, **config):
    network = ProxyNetwork(
        origins={},
        rng=RngStream(0, "replay"),
        n_nodes=n_nodes,
        instrument_enabled=False,
    )
    result = TraceReplayEngine(network, ReplayConfig(**config)).replay(
        list(records), probes=probes
    )
    return [(s.session_id, s.key.client_ip) for s in result.sessions]


@pytest.mark.parametrize("executor", [None, "thread"])
@pytest.mark.parametrize("shards,prefix", [(0, "sess"), (1, "s00")])
def test_recorded_trace_session_ids(recorded, executor, shards, prefix):
    records, probes = recorded
    ids = _session_ids(
        records, list(probes), assume_sorted=True, shards=shards,
        executor=executor,
    )
    assert [session_id for session_id, _ip in ids] == [
        f"{prefix}-{number:06d}" for number in RECORDED_NUMBERS
    ]


def _overlapping_trace() -> list[TraceRecord]:
    """A long session that starts first but ends last, next to two
    short ones that idle out while it is still live."""

    def record(ip: str, user_agent: str, timestamp: float) -> TraceRecord:
        return TraceRecord(
            client_ip=ip,
            timestamp=timestamp,
            method=Method.GET,
            url=Url.parse(f"http://site.test/p{int(timestamp)}.html"),
            status=200,
            size=100,
            user_agent=user_agent,
        )

    records = [record("10.0.0.1", "slow/1.0", 600.0 * i) for i in range(15)]
    records += [record("10.0.0.2", "fast/1.0", 100.0 + i) for i in range(15)]
    records += [record("10.0.0.3", "fast/1.0", 200.0 + i) for i in range(15)]
    return records


@pytest.mark.parametrize(
    "shards,expected",
    [
        # Unsharded: completion order (the short sessions idle out at a
        # housekeeping sweep, the long one only at finalization).
        (0, [("sess-000002", "10.0.0.2"), ("sess-000003", "10.0.0.3"),
             ("sess-000001", "10.0.0.1")]),
        # Sharded: merged by start time, whatever the shard count.
        (1, [("s00-000001", "10.0.0.1"), ("s00-000002", "10.0.0.2"),
             ("s00-000003", "10.0.0.3")]),
        (2, [("s01-000001", "10.0.0.1"), ("s01-000002", "10.0.0.2"),
             ("s01-000003", "10.0.0.3")]),
    ],
)
def test_unsharded_keeps_completion_order(shards, expected):
    assert _session_ids(_overlapping_trace(), n_nodes=1, shards=shards) == (
        expected
    )

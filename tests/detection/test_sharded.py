"""Sharded detection state inside a proxy node.

``ProxyNode(detection_shards=N)`` splits a node's detection state into
N :class:`~repro.detection.service.DetectionService` shards keyed by
the client-IP partition hash; node-wide reductions merge them.
"""

from __future__ import annotations

import pytest

from repro.detection.online import OnlineClassifier
from repro.detection.service import DetectionService
from repro.detection.session import session_order
from repro.detection.set_algebra import SessionSets
from repro.http.headers import Headers
from repro.http.message import Method, Request
from repro.http.uri import Url
from repro.instrument.keys import (
    BeaconKind,
    InstrumentationRegistry,
    RegisteredProbe,
)
from repro.proxy.node import ProxyNode
from repro.state.partition import partition_index
from repro.util.rng import RngStream


def _probe(client_ip: str, key: str) -> RegisteredProbe:
    return RegisteredProbe(
        kind=BeaconKind.CSS_BEACON,
        client_ip=client_ip,
        host="site.test",
        path=f"/probe-{key}.css",
        page_path="/page.html",
        issued_at=0.0,
        key=key,
    )


def _request(
    client_ip: str,
    user_agent: str = "Mozilla/5.0",
    path: str = "/page.html",
    timestamp: float = 0.0,
) -> Request:
    return Request(
        method=Method.GET,
        url=Url.parse(f"http://site.test{path}"),
        client_ip=client_ip,
        headers=Headers([("User-Agent", user_agent)]),
        timestamp=timestamp,
    )


def _stream(n_clients: int = 24, requests_each: int = 12) -> list[Request]:
    """A deterministic round-robin request stream over many sessions."""
    requests = []
    for round_no in range(requests_each):
        for client in range(n_clients):
            requests.append(
                _request(
                    f"10.0.{client // 256}.{client % 256}",
                    user_agent=f"agent-{client % 3}",
                    path=f"/p{round_no}.html",
                    timestamp=round_no * 10.0 + client * 0.01,
                )
            )
    return requests


def _node(detection_shards: int = 0, detection=None) -> ProxyNode:
    return ProxyNode(
        node_id="node-test",
        origins={},
        rng=RngStream(1, "node"),
        detection=detection,
        instrument_enabled=False,
        detection_shards=detection_shards,
    )


def _drive(node: ProxyNode, requests) -> None:
    for request in requests:
        node.handle(request)


def _census(node: ProxyNode) -> dict[tuple[str, str, float], int]:
    return {
        (s.key.client_ip, s.key.user_agent, s.started_at): s.request_count
        for s in node.analyzable_sessions()
    }


def _live(node: ProxyNode) -> list[int]:
    return [shard.detection.tracker.live_count for shard in node.state_shards]


class TestShardIndex:
    def test_stable_and_in_range(self):
        for n in (1, 2, 3, 8, 64):
            index = partition_index("1.2.3.4", n)
            assert 0 <= index < n
            assert index == partition_index("1.2.3.4", n)

    def test_single_shard_short_circuits(self):
        assert partition_index("anything", 1) == 0

    def test_ip_only_routing_ignores_user_agent(self):
        # Routing is per client IP so a shard owns every piece of state
        # (registry / cache / limiter partitions) the IP can touch; the
        # user agent only distinguishes sessions *within* a shard.
        node = _node(detection_shards=8)
        node.handle(_request("9.9.9.9", "bot/1.0"))
        node.handle(_request("9.9.9.9", "browser/2.0"))
        owner = node.shard_for("9.9.9.9")
        assert owner.session("9.9.9.9", "bot/1.0") is not None
        assert owner.session("9.9.9.9", "browser/2.0") is not None
        assert sum(_live(node)) == 2

    def test_keys_spread_across_shards(self):
        indices = {partition_index(f"10.0.0.{i}", 8) for i in range(200)}
        assert len(indices) == 8


class TestShardedService:
    @pytest.mark.parametrize("n_shards", [1, 2, 8])
    def test_matches_unsharded_service(self, n_shards):
        requests = _stream()
        plain = _node()
        sharded = _node(detection_shards=n_shards)
        _drive(plain, requests)
        _drive(sharded, requests)
        plain.finalize()
        sharded.finalize()

        assert sharded.n_state_shards == n_shards
        started = [
            sum(s.detection.tracker.total_started for s in node.state_shards)
            for node in (plain, sharded)
        ]
        assert started[0] == started[1]
        assert _census(sharded) == _census(plain)
        assert (
            SessionSets.from_sessions(sharded.analyzable_sessions()).summary()
            == SessionSets.from_sessions(plain.analyzable_sessions()).summary()
        )

    def test_requests_route_to_owning_shard(self):
        node = _node(detection_shards=4)
        node.handle(_request("9.9.9.9", "bot/1.0"))
        owner = node.shard_index_for("9.9.9.9")
        assert _live(node) == [
            1 if index == owner else 0 for index in range(4)
        ]
        assert node.session("9.9.9.9", "bot/1.0") is not None

    def test_session_ids_unique_across_shards(self):
        node = _node(detection_shards=8)
        _drive(node, _stream())
        node.finalize()
        ids = []
        for index, shard in enumerate(node.state_shards):
            for state in shard.detection.tracker.completed:
                assert state.session_id.startswith(f"s{index:02d}-")
                ids.append(state.session_id)
        assert len(ids) == len(set(ids))

    def test_merged_reductions_are_deterministically_ordered(self):
        node = _node(detection_shards=8)
        _drive(node, _stream())
        sessions = node.finalize()
        keys = [session_order(s) for s in sessions]
        assert keys == sorted(keys)
        assert len(sessions) == sum(
            len(shard.analyzable_sessions()) for shard in node.state_shards
        )
        latencies = node.detection_latencies()
        assert [l.session_id for l in latencies] == [
            s.session_id for s in sessions
        ]

    def test_note_captcha_routes_and_logs(self):
        node = _node(detection_shards=4)
        node.handle(_request("7.7.7.7", "human/1.0", timestamp=5.0))
        state = node.session("7.7.7.7", "human/1.0")
        event = node.note_captcha(state, True, timestamp=6.0)
        assert state.passed_captcha
        owner = node.shard_for("7.7.7.7")
        for shard in node.state_shards:
            assert (event in shard.detection.event_log) == (shard is owner)

    def test_event_logs_stay_on_owning_shards(self):
        node = _node(detection_shards=4)
        requests = _stream(n_clients=8, requests_each=2)
        _drive(node, requests)
        total = 0
        for shard in node.state_shards:
            own = {
                shard.session(r.client_ip, r.user_agent).session_id
                for r in requests
                if node.shard_for(r.client_ip) is shard
            }
            log = shard.detection.event_log
            assert {event.session_id for event in log} <= own
            stamps = [event.timestamp for event in log]
            assert stamps == sorted(stamps)
            total += len(log)
        assert total == 8  # one SESSION_STARTED event per session

    def test_keep_event_log_fans_out(self):
        node = _node(detection_shards=3)
        for shard in node.state_shards:
            shard.detection.keep_event_log = False
        outcomes = [
            node.handle_traced(request)[1]
            for request in _stream(n_clients=4, requests_each=2)
        ]
        assert all(not s.detection.event_log for s in node.state_shards)
        # Events are still reported per request, just not retained.
        assert sum(len(outcome.events) for outcome in outcomes) == 4

    def test_expire_idle_sweeps_every_shard(self):
        node = _node(
            detection=DetectionService(
                InstrumentationRegistry(), idle_timeout=100.0
            )
        )
        node.shard_detection(4)
        _drive(node, _stream(n_clients=12, requests_each=2))
        assert sum(_live(node)) == 12
        assert all(_live(node))
        node.housekeeping(now=1e6)
        assert _live(node) == [0, 0, 0, 0]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            _node().shard_detection(0)
        with pytest.raises(ValueError):
            _node(
                detection_shards=2,
                detection=DetectionService(InstrumentationRegistry()),
            )


class TestShardService:
    def test_preserves_registry_and_config(self):
        registry = InstrumentationRegistry()
        heard = []
        registry.add_listener(heard.append)
        plain = DetectionService(
            registry, idle_timeout=123.0, min_requests=5
        )
        registry.register(_probe("4.4.4.4", key="k-preserved"))
        node = _node(detection=plain)
        node.shard_detection(4)
        # The registry is re-partitioned into an IP-routed facade; the
        # registrations (and their per-IP order) must survive the move.
        assert [p.key for p in node.registry.iter_probes()] == [
            "k-preserved"
        ]
        assert node.registry.n_partitions == 4
        assert node.n_state_shards == 4
        for shard in node.state_shards:
            assert shard.session_idle_timeout == 123.0
            assert shard.detection.tracker.min_requests == 5
            assert shard.registry is node.registry.partition(shard.shard_id)
        assert node.session_idle_timeout == 123.0
        assert isinstance(node.classifier, OnlineClassifier)
        # Listeners migrate too: a later registration is still journaled.
        node.registry.register(_probe("5.5.5.5", key="k-after"))
        assert [p.key for p in heard] == ["k-preserved", "k-after"]

    def test_refuses_after_traffic(self):
        node = _node()
        node.handle(_request("1.1.1.1"))
        with pytest.raises(RuntimeError):
            node.shard_detection(2)

    def test_resharding_a_sharded_service(self):
        node = _node(
            detection=DetectionService(
                InstrumentationRegistry(), min_requests=7
            )
        )
        node.shard_detection(2)
        node.shard_detection(2)  # same count: a no-op
        node.shard_detection(8)
        assert node.n_state_shards == 8
        assert all(
            shard.detection.tracker.min_requests == 7
            for shard in node.state_shards
        )


class TestMergeSessions:
    def test_sorts_across_groups(self):
        node = _node(detection_shards=8)
        _drive(node, _stream(n_clients=16, requests_each=12))
        merged = node.finalize()
        groups = [shard.analyzable_sessions() for shard in node.state_shards]
        assert len(merged) == sum(len(g) for g in groups) == 16
        keys = [session_order(s) for s in merged]
        assert keys == sorted(keys)

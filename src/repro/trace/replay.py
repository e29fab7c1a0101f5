"""Streaming trace replay: feed an access log through the detection
pipeline in global timestamp order.

This is how BOTracle/BotGraph-style evaluations work — the classifier is
judged on a recorded request log rather than on scripted clients.  The
engine heap-merges any number of trace sources (plus an optional probe
journal) into one time-ordered event stream and admits it through the
:mod:`repro.ingress` pipeline: every event lands on its client's lane
(one per node, or per node shard), each lane handles its events in
admission order and sweeps housekeeping on its own event clock, and the
merged lane results reduce to the same census/set-algebra/latency shape
the synthetic engine produces
(:class:`~repro.workload.results.SessionCensus`), so every analysis and
reporting consumer works unchanged.

Replay networks should be built with ``instrument_enabled=False``: the
pages were already instrumented when the trace was recorded, and the
probe journal re-creates the original registrations — minting fresh
probes would register keys the recorded clients never fetch.  Origins
are optional; requests with no route are answered 502, which feeds the
per-session status counters but no detection evidence, so a census does
not need the original site at all.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Union

from repro.detection.online import DetectionLatency
from repro.detection.session import SessionState
from repro.detection.set_algebra import SetAlgebraSummary
from repro.ml.batch import BatchVerdict
from repro.obs.flight import FlightFrame
from repro.obs.registry import MetricsSnapshot
from repro.obs.spans import SpanConfig, SpanTree
from repro.proxy.network import NetworkStats, ProxyNetwork
from repro.trace.clf import ParseStats, TraceRecord, read_trace
from repro.trace.recorder import ProbeRecord, read_probe_journal
from repro.workload.results import SessionCensus, apply_session_identities

if TYPE_CHECKING:  # imported lazily at run time (package-cycle-free)
    from repro.ingress.batcher import MicroBatchConfig
    from repro.ml.adaboost import AdaBoostModel
    from repro.overload.admission import AdaptiveConfig, OverloadReport
    from repro.overload.ladder import LadderConfig

TraceSource = Union[str, Iterable[TraceRecord]]
ProbeSource = Union[str, Iterable[ProbeRecord]]

#: Merge priorities: at equal timestamps, a page's probe registrations
#: must land in the table before the fetches they explain.
_PROBE_EVENT = 0
_REQUEST_EVENT = 1


@dataclass(frozen=True)
class ReplayConfig:
    """Replay parameters.

    ``assume_sorted`` skips the per-source sort for logs already in
    timestamp order (the recorder writes sorted files; real access logs
    usually are too) — required for constant-memory streaming.
    ``shards`` > 0 hash-partitions each node's detection state into that
    many shards before the first event (0 keeps the network as built).

    Events stream onto per-lane ingress queues (one lane per node,
    ``queue_depth`` events each, None = unbounded) consumed by the
    ``executor``'s lane workers: ``serial`` (inline, also what None
    runs), ``thread`` or ``process``.  The executor choice and queue
    depth never change results; ``shed`` opts the full-queue behaviour
    into counted load shedding and needs an explicit ``executor``.
    ``scorer_model`` additionally micro-batches §4.2 ensemble scoring
    per lane under the ``batch`` count/latency budgets.
    """

    housekeeping_interval: float = 600.0
    assume_sorted: bool = False
    default_host: str | None = None
    strict: bool = False
    shards: int = 0
    executor: str | None = None
    queue_depth: int | None = None
    shed: bool = False
    #: Delay-budget admission (``ShedPolicy.ADAPTIVE``): shed at the
    #: front door when the lane's predicted queue delay exceeds the
    #: budget, with hysteresis and per-IP fairness.  Mutually exclusive
    #: with ``shed`` (which is the binary full-queue policy).
    adaptive: "AdaptiveConfig | None" = None
    #: Graduated response ladder (throttle -> CAPTCHA -> block) driven
    #: live from micro-batch checkpoint verdicts; needs
    #: ``scorer_model`` and a pipelined executor.
    ladder: "LadderConfig | None" = None
    #: Lane granularity for the pipelined path: 1 = one lane per node;
    #: the node's detection shard count = one lane per
    #: :class:`~repro.proxy.node.NodeShard`, so process lanes scale
    #: with cores instead of node count.  Results are invariant.
    lanes_per_node: int = 1
    scorer_model: "AdaBoostModel | None" = None
    batch: "MicroBatchConfig | None" = None
    #: Virtual-time flight-recorder sampling interval (None = off):
    #: per-lane plus admission-side recorders on an absolute grid, so
    #: every executor produces the same frames.
    flight_interval: float | None = None
    #: Tail-sampling budgets for causal span tracing (None = off): one
    #: tracer per lane; the virtual view of the retained trees is the
    #: same on every executor.
    spans: SpanConfig | None = None

    def __post_init__(self) -> None:
        if self.housekeeping_interval < 0:
            raise ValueError("housekeeping_interval must be non-negative")
        if self.flight_interval is not None and self.flight_interval <= 0:
            raise ValueError(
                "flight_interval must be positive (or None to disable)"
            )
        if self.shards < 0:
            raise ValueError("shards must be non-negative")
        if self.executor is not None:
            from repro.ingress.executors import EXECUTOR_KINDS

            if self.executor not in EXECUTOR_KINDS:
                raise ValueError(
                    f"executor must be one of {EXECUTOR_KINDS}, "
                    f"got {self.executor!r}"
                )
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError(
                "queue_depth must be >= 1 (or None for unbounded)"
            )
        if self.shed and self.executor is None:
            raise ValueError("shed requires a pipelined executor")
        if self.shed and self.queue_depth is None:
            raise ValueError(
                "shed with queue_depth=None can never shed (an "
                "unbounded queue never refuses): set a queue_depth"
            )
        if self.adaptive is not None:
            if self.shed:
                raise ValueError(
                    "shed and adaptive are mutually exclusive shedding "
                    "policies"
                )
            if self.executor not in ("thread", "process"):
                raise ValueError(
                    "adaptive admission needs a queued executor "
                    "(thread or process)"
                )
        if self.ladder is not None:
            if self.executor is None:
                raise ValueError(
                    "ladder requires a pipelined executor"
                )
            if self.scorer_model is None:
                raise ValueError(
                    "ladder requires scorer_model (checkpoint verdicts "
                    "drive the escalation)"
                )
        if self.lanes_per_node < 1:
            raise ValueError("lanes_per_node must be >= 1")
        if self.lanes_per_node > 1 and self.executor is None:
            raise ValueError(
                "lanes_per_node > 1 requires a pipelined executor"
            )


@dataclass
class ReplayResult(SessionCensus):
    """Everything one trace replay produced (census-compatible)."""

    sessions: list[SessionState]
    summary: SetAlgebraSummary
    stats: NetworkStats
    latencies: list[DetectionLatency]
    requests_replayed: int = 0
    probes_loaded: int = 0
    first_timestamp: float = 0.0
    last_timestamp: float = 0.0
    #: Micro-batched ensemble verdicts, when the pipelined replay ran
    #: with a scorer model attached (empty otherwise).
    ml_verdicts: list[BatchVerdict] = field(default_factory=list)
    #: Trace-file and probe-journal parse accounting, kept separate so
    #: journal corruption is never misreported as access-log damage.
    parse_stats: ParseStats = field(default_factory=ParseStats)
    probe_parse_stats: ParseStats = field(default_factory=ParseStats)
    #: Deployment-wide metrics snapshot, and the merged flight-recorder
    #: timeline (empty unless ``flight_interval`` was configured).
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    flight: list[FlightFrame] = field(default_factory=list)
    #: Tail-sampled span trees, merged in (lane, seq) order (empty
    #: unless ``spans`` was configured).
    spans: list[SpanTree] = field(default_factory=list)
    #: Network-wide graduated-response ladder state (None unless the
    #: ladder was enabled).
    ladder: dict | None = None
    #: Adaptive admission ledger (None unless ``adaptive`` was set).
    overload: "OverloadReport | None" = None

    @property
    def span(self) -> float:
        """Virtual seconds between the first and last replayed request."""
        return max(0.0, self.last_timestamp - self.first_timestamp)


class TraceReplayEngine:
    """Replays trace records through a proxy network in event order."""

    def __init__(
        self,
        network: ProxyNetwork,
        config: ReplayConfig | None = None,
    ) -> None:
        self._network = network
        self._config = config or ReplayConfig()

    @property
    def network(self) -> ProxyNetwork:
        """The network being replayed into."""
        return self._network

    def replay(
        self,
        *sources: TraceSource,
        probes: ProbeSource | None = None,
    ) -> ReplayResult:
        """Replay one or more trace sources (paths or record iterables).

        Multiple sources — e.g. one log per front-end node — are merged
        by timestamp on the fly; each individual source must be sorted
        when ``assume_sorted`` is set, and is sorted here otherwise.
        Probe-journal registrations are admitted with ``force`` (key
        material is never shed) and ride the same lane queue as their
        IP's requests, which keeps every registration ahead of the
        fetches it explains.
        """
        if not sources:
            raise ValueError("replay needs at least one trace source")
        # Deferred import: repro.trace's package init imports this
        # module, and the ingress package imports trace machinery.
        from repro.ingress.batcher import MicroBatchConfig
        from repro.ingress.pipeline import (
            IngressConfig,
            IngressPipeline,
            replay_workers,
        )
        from repro.ingress.queues import ShedPolicy
        from repro.ingress.workers import PROBE_EVENT, REQUEST_EVENT

        cfg = self._config
        if cfg.shards:
            self._network.shard_detection(cfg.shards)
        parse_stats = ParseStats()
        probe_parse_stats = ParseStats()

        streams = [
            self._events(
                self._trace_records(src, parse_stats), _REQUEST_EVENT, index
            )
            for index, src in enumerate(sources)
        ]
        if probes is not None:
            streams.append(
                self._events(
                    self._probe_records(probes, probe_parse_stats),
                    _PROBE_EVENT,
                    len(streams),
                )
            )

        if cfg.adaptive is not None:
            policy = ShedPolicy.ADAPTIVE
        elif cfg.shed:
            policy = ShedPolicy.SHED
        else:
            policy = ShedPolicy.BLOCK
        ingress_config = IngressConfig(
            executor=cfg.executor or "serial",
            queue_depth=cfg.queue_depth,
            policy=policy,
            housekeeping_interval=cfg.housekeeping_interval,
            lanes_per_node=cfg.lanes_per_node,
            batch=cfg.batch or MicroBatchConfig(),
            scorer_model=cfg.scorer_model,
            flight_interval=cfg.flight_interval,
            spans=cfg.spans,
            adaptive=cfg.adaptive,
            ladder=cfg.ladder,
        )
        pipeline = IngressPipeline(
            self._network,
            replay_workers(self._network, ingress_config),
            ingress_config,
        )

        identities: dict[tuple[str, str], tuple[str, str]] = {}
        for timestamp, priority, _stream, _seq, item in heapq.merge(*streams):
            pipeline.tick(timestamp)
            if priority == _PROBE_EVENT:
                pipeline.submit(
                    (PROBE_EVENT, item), item.client_ip, force=True
                )
                continue
            if item.agent_kind or item.true_label:
                identities[(item.client_ip, item.user_agent)] = (
                    item.agent_kind,
                    item.true_label,
                )
            pipeline.submit((REQUEST_EVENT, item), item.client_ip)

        ingress = pipeline.close()
        sessions = ingress.sessions
        apply_session_identities(sessions, identities)
        return ReplayResult(
            sessions=sessions,
            summary=ingress.session_sets().summary(),
            stats=ingress.stats,
            latencies=ingress.latencies,
            requests_replayed=ingress.handled,
            probes_loaded=ingress.probes_loaded,
            first_timestamp=ingress.first_timestamp,
            last_timestamp=ingress.last_timestamp,
            parse_stats=parse_stats,
            probe_parse_stats=probe_parse_stats,
            ml_verdicts=ingress.ml_verdicts,
            metrics=ingress.metrics,
            flight=ingress.flight,
            spans=ingress.spans,
            ladder=ingress.ladder,
            overload=ingress.overload,
        )

    # -- stream plumbing ----------------------------------------------------

    def _trace_records(
        self, source: TraceSource, stats: ParseStats
    ) -> Iterator[TraceRecord]:
        cfg = self._config
        if isinstance(source, str):
            records: Iterable[TraceRecord] = read_trace(
                source,
                default_host=cfg.default_host,
                stats=stats,
                strict=cfg.strict,
            )
        else:
            records = source
        if cfg.assume_sorted:
            yield from records
        else:
            yield from sorted(records, key=lambda r: r.timestamp)

    def _probe_records(
        self, source: ProbeSource, stats: ParseStats
    ) -> Iterator[ProbeRecord]:
        cfg = self._config
        if isinstance(source, str):
            records: Iterable[ProbeRecord] = read_probe_journal(
                source, stats=stats, strict=cfg.strict
            )
        else:
            records = source
        if cfg.assume_sorted:
            yield from records
        else:
            yield from sorted(records, key=lambda p: p.issued_at)

    @staticmethod
    def _events(records: Iterable, priority: int, stream: int):
        """Wrap records as sortable (time, priority, stream, seq, record)
        events; stream/seq break ties so records are never compared."""
        for seq, record in enumerate(records):
            time = (
                record.timestamp
                if priority == _REQUEST_EVENT
                else record.issued_at
            )
            yield (time, priority, stream, seq, record)


def replay_trace(
    network: ProxyNetwork,
    *sources: TraceSource,
    probes: ProbeSource | None = None,
    config: ReplayConfig | None = None,
) -> ReplayResult:
    """One-call replay: build the engine, merge, replay, reduce."""
    return TraceReplayEngine(network, config).replay(*sources, probes=probes)

"""The workload engine: replay a population through a proxy network.

Sessions are sampled from a mix and given start times by an
:class:`~repro.trace.arrival.ArrivalProfile`.  Two driving modes:

* ``"sequential"`` (the seed behaviour) runs sessions one at a time —
  per-session results are identical to a full interleave because the
  tracker keys state by <IP, User-Agent>, but the network never sees a
  realistic arrival order;
* ``"interleaved"`` coroutine-steps every live session by next-event
  time (:class:`~repro.trace.interleave.InterleavedScheduler`), so the
  proxy handles requests in true global timestamp order — required for
  burst/diurnal arrival profiles and honest rate-limit behaviour.

Both modes attach ground-truth labels to the tracker's session state —
evaluation metadata the detectors never read — run the optional CAPTCHA
funnel, and invoke :meth:`ProxyNetwork.housekeeping` periodically so
idle-session rotation and probe-table expiry actually happen during the
replay rather than only at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.base import SessionBudget
from repro.agents.population import PopulationMix
from repro.captcha.service import CaptchaConfig, CaptchaService
from repro.captcha.challenge import CaptchaOutcome
from repro.ml.dataset import Dataset, SessionExample
from repro.obs.spans import SpanConfig
from repro.proxy.network import ProxyNetwork
from repro.trace.arrival import ArrivalProfile, UniformArrival
from repro.util.rng import RngStream
from repro.util.timeutil import WEEK
from repro.workload.results import (
    SessionCensus,
    WorkloadResult,
    apply_session_identities,
    session_identities,
)
from repro.workload.session_run import SessionRecord, SessionRunner

__all__ = [
    "SessionCensus",
    "WorkloadConfig",
    "WorkloadEngine",
    "WorkloadResult",
]

_MODES = ("sequential", "interleaved", "pipelined")


@dataclass(frozen=True)
class WorkloadConfig:
    """Size and options of one workload replay.

    ``housekeeping_interval`` is the virtual-seconds period between
    :meth:`ProxyNetwork.housekeeping` sweeps (0 disables them);
    ``arrival`` shapes session start times, but non-uniform profiles only
    make sense with ``mode="interleaved"`` — the sequential driver cannot
    overlap sessions, so a flash crowd degenerates back into a queue.
    ``shards`` > 0 hash-partitions each node's detection state into that
    many shards before traffic starts (0 keeps the network as built);
    shard count never changes results, only the scaling architecture.

    ``mode="pipelined"`` admits sessions through the ingress subsystem:
    sessions are routed by their client IP's sticky node onto per-lane
    queues (``queue_depth`` bounds each, None = unbounded) and every
    lane drives its own sessions in event-time order on the configured
    ``executor`` — ``serial``, ``thread``, or a true-parallel
    ``process`` pool.  Census, summary and verdicts are identical to
    ``mode="interleaved"``; only within-node request order is defined,
    which is exactly the order that affects any state.
    """

    n_sessions: int = 1000
    duration: float = WEEK
    collect_features: bool = False
    captcha_enabled: bool = True
    captcha: CaptchaConfig = field(default_factory=CaptchaConfig)
    budget: SessionBudget = field(default_factory=SessionBudget)
    mode: str = "sequential"
    arrival: ArrivalProfile = field(default_factory=UniformArrival)
    housekeeping_interval: float = 600.0
    shards: int = 0
    executor: str = "serial"
    queue_depth: int | None = None
    #: Pipelined mode only: shed (and count) whole sessions instead of
    #: blocking when a lane queue is full.  Needs a bounded queue.
    shed: bool = False
    #: Pipelined mode only: delay-budget admission with per-IP fairness
    #: (``ShedPolicy.ADAPTIVE``); an :class:`AdaptiveConfig` or None.
    adaptive: object | None = None
    #: Pipelined lane granularity: 1 = one lane per node; the detection
    #: shard count = one lane per :class:`~repro.proxy.node.NodeShard`.
    lanes_per_node: int = 1
    #: Virtual-time flight-recorder sampling interval (None = off).
    #: Works in every mode: sequential/interleaved runs tick per-node
    #: recorders per handled request; pipelined lanes record their own.
    flight_interval: float | None = None
    #: Tail-sampling budgets for causal span tracing (None = off).
    #: Pipelined mode only — the other drivers interleave all nodes'
    #: requests on one call stack, which a per-lane tracer cannot
    #: represent.
    spans: SpanConfig | None = None

    def __post_init__(self) -> None:
        if self.n_sessions < 1:
            raise ValueError("n_sessions must be >= 1")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.mode not in _MODES:
            raise ValueError(
                f"mode must be one of {_MODES}, got {self.mode!r}"
            )
        if self.housekeeping_interval < 0:
            raise ValueError("housekeeping_interval must be non-negative")
        if self.shards < 0:
            raise ValueError("shards must be non-negative")
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
        if self.lanes_per_node < 1:
            raise ValueError("lanes_per_node must be >= 1")
        if self.lanes_per_node > 1 and self.mode != "pipelined":
            raise ValueError(
                "lanes_per_node > 1 requires mode='pipelined'"
            )
        if self.flight_interval is not None and self.flight_interval <= 0:
            raise ValueError(
                "flight_interval must be positive (or None to disable)"
            )
        if self.spans is not None and self.mode != "pipelined":
            raise ValueError("span tracing requires mode='pipelined'")
        if self.shed or self.adaptive is not None:
            if self.mode != "pipelined":
                raise ValueError(
                    "load shedding requires mode='pipelined'"
                )
            if self.shed and self.adaptive is not None:
                raise ValueError(
                    "shed and adaptive are mutually exclusive shedding "
                    "policies"
                )
        if self.shed and self.queue_depth is None:
            raise ValueError(
                "shed with queue_depth=None can never shed (an "
                "unbounded queue never refuses): set a queue_depth"
            )
        if self.adaptive is not None and self.executor not in (
            "thread",
            "process",
        ):
            raise ValueError(
                "adaptive admission needs a queued executor "
                "(thread or process)"
            )


class WorkloadEngine:
    """Drives a mix through a network and collects every measurement."""

    def __init__(
        self,
        network: ProxyNetwork,
        mix: PopulationMix,
        entry_url: str,
        rng: RngStream,
        config: WorkloadConfig | None = None,
    ) -> None:
        self._network = network
        self._mix = mix
        self._entry_url = entry_url
        self._rng = rng
        self._config = config or WorkloadConfig()

    @property
    def network(self) -> ProxyNetwork:
        """The proxy network this engine drives (tap point for recording)."""
        return self._network

    @property
    def config(self) -> WorkloadConfig:
        """The replay parameters."""
        return self._config

    def run(self) -> WorkloadResult:
        """Replay the whole workload and reduce the results."""
        cfg = self._config
        if cfg.shards:
            self._network.shard_detection(cfg.shards)
        agents = self._mix.sample_many(
            self._rng.split("population"), self._entry_url, cfg.n_sessions
        )
        starts = cfg.arrival.sample(
            self._rng.split("starts"), len(agents), cfg.duration
        )

        if cfg.mode == "pipelined":
            return self._run_pipelined(agents, starts)

        captcha = CaptchaService(cfg.captcha)
        captcha_rng = self._rng.split("captcha")
        examples: list[SessionExample] = []

        def session_done(record: SessionRecord) -> None:
            self._annotate_session(record, captcha, captcha_rng)
            if record.example is not None:
                examples.append(record.example)

        recorders = self._flight_recorders()
        if cfg.mode == "interleaved":
            records = self._run_interleaved(agents, starts, session_done)
        else:
            records = self._run_sequential(agents, starts, session_done)

        sessions = self._network.finalize_sessions()
        # Backfill sessions that idle-rotated before their live
        # annotation pass could label them.
        apply_session_identities(sessions, session_identities(records))
        summary = self._network.session_sets().summary()
        flight = []
        if recorders is not None:
            from repro.obs.flight import merge_flight

            flight = merge_flight(
                [recorder.frames for recorder in recorders],
                [
                    node.metrics_snapshot()
                    for node in self._network.nodes
                ],
            )
            self._handler = None
        return WorkloadResult(
            records=records,
            sessions=sessions,
            summary=summary,
            stats=self._network.stats(),
            latencies=self._network.detection_latencies(),
            dataset=Dataset(examples=examples),
            captcha=captcha,
            metrics=self._metrics_snapshot(captcha),
            flight=flight,
        )

    def _flight_recorders(self):
        """Per-node flight recorders for the non-pipelined drivers.

        Installs a handler wrapper (``self._handler``) that ticks the
        owning node's recorder on each request's event timestamp before
        handling it — the same absolute sampling grid pipelined lanes
        record on.  Returns None (and leaves ``self._handler`` as the
        plain network handler) when no flight interval is configured.
        """
        from repro.obs.flight import FlightRecorder

        cfg = self._config
        self._handler = self._network.handle
        if not cfg.flight_interval:
            return None
        recorders = [
            FlightRecorder(
                cfg.flight_interval,
                node.metrics,
                snapshot=node.metrics_snapshot,
            )
            for node in self._network.nodes
        ]

        def handler(request):
            recorders[
                self._network.node_index_for(request.client_ip)
            ].tick(request.timestamp)
            return self._network.handle(request)

        self._handler = handler
        return recorders

    def _metrics_snapshot(self, captcha: CaptchaService):
        """Network metrics plus the engine-level CAPTCHA funnel.

        The pipelined mode exports the funnel inside each lane worker;
        the sequential/interleaved drivers own the funnel here, so its
        counters are collected into a side registry and merged in.
        """
        from repro.ingress.workers import export_captcha_stats
        from repro.obs.registry import MetricsRegistry, merge_snapshots

        funnel = MetricsRegistry()
        export_captcha_stats(funnel, captcha.stats)
        return merge_snapshots(
            [self._network.metrics_snapshot(), funnel.snapshot()]
        )

    # -- driving modes ------------------------------------------------------

    def _run_sequential(
        self, agents, starts, session_done
    ) -> list[SessionRecord]:
        cfg = self._config
        runner = SessionRunner(
            self._handler,
            budget=cfg.budget,
            collect_features=cfg.collect_features,
        )
        records: list[SessionRecord] = []
        # Session end times are not monotone (an early long session can
        # outlive many later ones), so sweeps key off the furthest point
        # the virtual clock has reached — a raw ended_at comparison
        # would let one long session starve housekeeping for the rest
        # of the run.
        last_sweep = 0.0
        clock = 0.0
        for agent, start in zip(agents, starts):
            record = runner.run(agent, start)
            records.append(record)
            session_done(record)
            clock = max(clock, record.ended_at)
            if (
                cfg.housekeeping_interval
                and clock - last_sweep >= cfg.housekeeping_interval
            ):
                self._network.housekeeping(clock)
                last_sweep = clock
        return records

    def _run_pipelined(self, agents, starts) -> WorkloadResult:
        """Admit sessions through the ingress; lanes drive their own.

        Ground-truth annotation and the CAPTCHA funnel run inside the
        lane workers (per-IP RNG splits make the outcomes identical to
        the other modes), so this path assembles the result purely from
        the merged lane outputs — which is what lets the ``process``
        executor run each node in a separate interpreter.
        """
        # Deferred import: the ingress package reaches back into
        # workload machinery (session records, the scheduler).
        from repro.ingress.pipeline import IngressConfig, IngressPipeline
        from repro.ingress.queues import ShedPolicy
        from repro.ingress.workers import SESSION_EVENT, WorkloadLaneWorker

        cfg = self._config
        captcha_rng = self._rng.split("captcha")
        workers = []
        for node in self._network.nodes:
            # Per-IP captcha splits make outcomes identical whichever
            # lane state (whole node or single shard) runs the session.
            for state in node.lane_states(cfg.lanes_per_node):
                workers.append(
                    WorkloadLaneWorker(
                        len(workers),
                        state,
                        budget=cfg.budget,
                        collect_features=cfg.collect_features,
                        housekeeping_interval=cfg.housekeeping_interval,
                        captcha_enabled=cfg.captcha_enabled,
                        captcha_config=cfg.captcha,
                        captcha_rng=captcha_rng,
                        taps=self._network.taps,
                        flight_interval=cfg.flight_interval,
                        spans=cfg.spans,
                    )
                )
        pipeline = IngressPipeline(
            self._network,
            workers,
            IngressConfig(
                executor=cfg.executor,
                queue_depth=cfg.queue_depth,
                policy=(
                    ShedPolicy.ADAPTIVE
                    if cfg.adaptive is not None
                    else (
                        ShedPolicy.SHED if cfg.shed else ShedPolicy.BLOCK
                    )
                ),
                adaptive=cfg.adaptive,
                housekeeping_interval=cfg.housekeeping_interval,
                lanes_per_node=cfg.lanes_per_node,
                flight_interval=cfg.flight_interval,
                spans=cfg.spans,
            ),
        )
        for index, (agent, start) in enumerate(zip(agents, starts)):
            pipeline.tick(start)
            pipeline.submit(
                (SESSION_EVENT, index, agent, start), agent.client_ip
            )
        ingress = pipeline.close()

        indexed_records = sorted(
            (pair for lane in ingress.lanes for pair in lane.records or ()),
            key=lambda pair: pair[0],
        )
        records = [record for _index, record in indexed_records]
        examples = [
            example
            for _index, example in sorted(
                (
                    pair
                    for lane in ingress.lanes
                    for pair in lane.examples or ()
                ),
                key=lambda pair: pair[0],
            )
        ]
        captcha = CaptchaService(cfg.captcha)
        for lane in ingress.lanes:
            if lane.captcha_stats is not None:
                captcha.stats.absorb(lane.captcha_stats)

        sessions = ingress.sessions
        apply_session_identities(sessions, session_identities(records))
        return WorkloadResult(
            records=records,
            sessions=sessions,
            summary=ingress.session_sets().summary(),
            stats=ingress.stats,
            latencies=ingress.latencies,
            dataset=Dataset(examples=examples),
            captcha=captcha,
            metrics=ingress.metrics,
            flight=ingress.flight,
            spans=ingress.spans,
            overload=ingress.overload,
        )

    def _run_interleaved(
        self, agents, starts, session_done
    ) -> list[SessionRecord]:
        # Imported here: repro.trace.interleave drives sessions via
        # repro.workload.session_run, so a module-level import would be
        # circular through the two packages' __init__ modules.
        from repro.trace.interleave import InterleavedScheduler

        cfg = self._config
        scheduler = InterleavedScheduler(
            self._handler,
            budget=cfg.budget,
            collect_features=cfg.collect_features,
            housekeeping=self._network.housekeeping,
            housekeeping_interval=cfg.housekeeping_interval,
        )
        return scheduler.run(agents, starts, on_session_end=session_done)

    # -- annotation ---------------------------------------------------------

    def _annotate_session(
        self,
        record: SessionRecord,
        captcha: CaptchaService,
        captcha_rng: RngStream,
    ) -> None:
        """Attach ground truth and run the CAPTCHA funnel for one session.

        Runs the moment a session ends — its tracker state is still live
        then, in either driving mode.  The CAPTCHA stream is split per
        client IP, so outcomes are independent of session ordering.
        """
        node = self._network.node_for(record.client_ip)
        state = node.session(record.client_ip, record.user_agent)
        if state is None:
            return
        state.true_label = record.true_label
        state.agent_kind = record.agent_kind

        if self._config.captcha_enabled:
            outcome = captcha.run_for_session(
                captcha_rng.split(f"captcha-{record.client_ip}"),
                is_human=record.true_label == "human",
            )
            if outcome is CaptchaOutcome.PASSED:
                node.note_captcha(state, True, record.ended_at)
            elif outcome is CaptchaOutcome.FAILED:
                node.note_captcha(state, False, record.ended_at)

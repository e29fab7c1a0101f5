"""The live front door: a proxy network behind ``asyncio.start_server``.

:class:`DetectorServer` mounts an existing
:class:`~repro.proxy.network.ProxyNetwork` — instrumentation rewriter,
admission, sharded detection, CAPTCHA policy and all — on a real
listening socket.  Each connection is framed by
:mod:`repro.serve.http11`; each admitted request is stamped onto the
server's virtual clock and handled by its sticky node on a thread
executor, serialized per node by an asyncio lock so node state needs no
extra synchronisation (the lane-per-shard discipline, transplanted to
sockets).

Determinism across the socket boundary: timestamps are strictly
increasing microseconds assigned on the event loop, so sorting the live
CLF log reproduces exactly the per-node handling order the live run
used — replaying the log through a fresh network yields the same
census and verdict set (the record→replay invariance, now bridged over
TCP).  To keep that bridge intact the trace logs only requests that
reached a node: admission sheds and the server-local CAPTCHA endpoints
never entered detection, so they are counted in metrics but stay out
of the log (the same out-of-band funnel the record CLI documents).

Client identity: by default a request is keyed on its socket peer's
address, which a client cannot pick.  ``trust_forwarded_for`` opts into
taking it from ``X-Forwarded-For`` instead, for a server behind a
fronting proxy or load generator that puts the real client there (the
``repro serve --swarm`` loopback swarm does).  Never enable it for
untrusted peers: any of them could pick its own address and walk away
from its per-IP state.

Shutdown: :meth:`DetectorServer.close` stops accepting, lets requests
already inside a node finish and answers them with ``Connection:
close``, hangs up idle keep-alive connections, and only then shuts the
handler pool and writes the access log and probe journal.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.captcha.challenge import CHALLENGE_PATH
from repro.http.headers import Headers
from repro.http.message import (
    Method,
    Request,
    Response,
    error_response,
    html_response,
)
from repro.obs.sockets import ServeMetrics
from repro.serve.http11 import (
    Http11Limits,
    HttpParseError,
    ParsedRequest,
    read_request,
    render_response,
)
from repro.trace.clf import (
    TraceRecord,
    format_clf_line,
    open_trace_file,
    write_trace,
)
from repro.trace.recorder import ProbeRecord, write_probe_journal

if TYPE_CHECKING:
    from repro.overload.admission import AdaptiveConfig
    from repro.overload.ladder import LadderConfig
    from repro.proxy.network import ProxyNetwork

#: Server-local CAPTCHA verification endpoint (the challenge page posts
#: here); lives next to the ladder's CHALLENGE_PATH redirect target.
VERIFY_PATH = "/__captcha__/verify"

#: The token a solver must echo back.  A stand-in for a distorted-text
#: test: the *transport* of the funnel is real, the puzzle is not.
_CHALLENGE_TOKEN = "not-a-robot"

_CHALLENGE_PAGE = f"""<html><body>
<h1>Are you human?</h1>
<form method="POST" action="{VERIFY_PATH}">
<p>Type <b>{_CHALLENGE_TOKEN}</b> to continue:</p>
<input name="answer" autofocus>
<button>Submit</button>
</form>
</body></html>"""


@dataclass(frozen=True)
class ServeConfig:
    """Front-door parameters."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``server.port``).
    port: int = 0
    #: Idle seconds before a keep-alive connection is dropped.
    keep_alive_timeout: float = 15.0
    max_requests_per_connection: int = 1000
    #: Resolve client identity from ``X-Forwarded-For`` when present;
    #: only safe behind a trusted fronting proxy.
    trust_forwarded_for: bool = False
    #: Live CLF access log (``.gz`` compresses); None keeps it in
    #: memory only (``server.records``).
    trace_path: str | None = None
    #: Probe journal written at close; None skips it.
    probes_path: str | None = None
    #: Handler threads; per-node locks serialize each node, so this
    #: bounds cross-node parallelism.
    handler_threads: int = 4
    #: Admission policy: "block" queues on the node lock, "shed"
    #: refuses (503) once a node's backlog hits ``max_pending_per_node``,
    #: "adaptive" runs the delay-budget controller per node lane.
    policy: str = "block"
    max_pending_per_node: int = 64
    adaptive: "AdaptiveConfig | None" = None
    #: Enable the graduated response ladder on every node, escalated
    #: from live detection verdicts; the CAPTCHA endpoints feed
    #: exonerations/condemnations back per client IP.
    ladder: "LadderConfig | None" = None
    #: Wall seconds between node housekeeping sweeps (0 disables).
    housekeeping_interval: float = 600.0
    limits: Http11Limits = field(default_factory=Http11Limits)

    def __post_init__(self) -> None:
        if self.policy not in ("block", "shed", "adaptive"):
            raise ValueError(
                f"policy must be block/shed/adaptive, got {self.policy!r}"
            )
        if self.policy == "adaptive" and self.adaptive is None:
            object.__setattr__(self, "policy", "adaptive")
        if self.keep_alive_timeout <= 0:
            raise ValueError("keep_alive_timeout must be positive")
        if self.max_requests_per_connection < 1:
            raise ValueError("max_requests_per_connection must be >= 1")
        if self.max_pending_per_node < 1:
            raise ValueError("max_pending_per_node must be >= 1")
        if self.housekeeping_interval < 0:
            raise ValueError("housekeeping_interval must be non-negative")


class DetectorServer:
    """Serve a proxy network's request path over real sockets."""

    def __init__(
        self,
        network: "ProxyNetwork",
        default_host: str | None = None,
        config: ServeConfig | None = None,
    ) -> None:
        self._network = network
        self._default_host = default_host
        self._config = config or ServeConfig()
        self.metrics = ServeMetrics()
        self._server: asyncio.base_events.Server | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._locks = [asyncio.Lock() for _ in network.nodes]
        self._pending = [0] * len(network.nodes)
        #: EWMA of per-node handle seconds, seeding the adaptive
        #: controller's predicted queue delay.
        self._ewma = [0.005] * len(network.nodes)
        self._controller = None
        if self._config.policy == "adaptive":
            from repro.overload.admission import (
                AdaptiveConfig,
                DelayBudgetController,
            )

            self._controller = DelayBudgetController(
                self._config.adaptive or AdaptiveConfig(),
                lanes=len(network.nodes),
                metrics=self.metrics.registry,
            )
        self._epoch: float | None = None
        self._last_us = 0
        #: Open connections by handler task, and the subset waiting for
        #: their next request (what close() may hang up on).
        self._handlers: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._idle: dict[asyncio.Task, asyncio.StreamReader] = {}
        self._closing = False
        self._trace_handle = None
        self._housekeeper: asyncio.Task | None = None
        #: Every exchange that reached a node, in completion order
        #: (the live log holds the same lines, streamed).
        self.records: list[TraceRecord] = []
        self.probes: list[ProbeRecord] = []
        self._identities: dict[tuple[str, str], tuple[str, str]] = {}
        self.requests_handled = 0
        self.parse_errors = 0
        self.shed_count = 0

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and arm the pipeline attachments."""
        if self._server is not None:
            raise RuntimeError("server already started")
        cfg = self._config
        self._epoch = time.monotonic()
        self._pool = ThreadPoolExecutor(
            max_workers=cfg.handler_threads,
            thread_name_prefix="repro-serve",
        )
        if cfg.ladder is not None:
            for node in self._network.nodes:
                node.enable_ladder(cfg.ladder)
        for node in self._network.nodes:
            node.registry.add_listener(self._observe_probe)
        if cfg.trace_path is not None:
            self._trace_handle = open_trace_file(cfg.trace_path, "wt")
        self._server = await asyncio.start_server(
            self._on_connection, cfg.host, cfg.port
        )
        if cfg.housekeeping_interval:
            self._housekeeper = asyncio.get_running_loop().create_task(
                self._housekeeping_loop()
            )

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        """``http://host:port`` of the listening socket."""
        return f"http://{self._config.host}:{self.port}"

    async def serve_forever(self) -> None:
        """Serve until cancelled."""
        if self._server is None:
            raise RuntimeError("server not started")
        await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, end every connection, write the logs.

        Requests already being handled are answered first; idle
        keep-alive connections are hung up.  A connection still open
        after ``keep_alive_timeout`` (a peer that stopped reading) is
        aborted.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
        await self._close_connections()
        if self._housekeeper is not None:
            self._housekeeper.cancel()
            try:
                await self._housekeeper
            except asyncio.CancelledError:
                pass
            self._housekeeper = None
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for node in self._network.nodes:
            node.registry.remove_listener(self._observe_probe)
        if self._trace_handle is not None:
            self._trace_handle.close()
            self._trace_handle = None
            if self._identities and self._config.trace_path is not None:
                # The live stream was written before identities were
                # known; rewrite it sorted and annotated at shutdown.
                write_trace(self._config.trace_path, self.sorted_records())
        if self._config.probes_path is not None:
            write_probe_journal(
                self._config.probes_path, self.sorted_probes()
            )

    async def _close_connections(self) -> None:
        # An idle handler reads end-of-stream and returns by itself; a
        # cancelled one would make the stream machinery log a traceback.
        for task, reader in self._idle.items():
            self._handlers[task].transport.pause_reading()
            reader.feed_eof()
        if not self._handlers:
            return
        _done, stuck = await asyncio.wait(
            list(self._handlers), timeout=self._config.keep_alive_timeout
        )
        for task in stuck:
            self._handlers[task].transport.abort()
        if stuck:
            await asyncio.wait(stuck)

    # -- results ------------------------------------------------------------

    def annotate_ground_truth(
        self, identities: dict[tuple[str, str], tuple[str, str]]
    ) -> None:
        """Learn ``(client_ip, user_agent) -> (kind, label)`` identities.

        Typically fed from :meth:`SwarmResult.identities`.  Applied when
        records are read back (and to the trace file at :meth:`close`),
        writing the synthetic ground truth into the CLF ``ident`` /
        ``authuser`` fields exactly like a recorded workload would.
        """
        self._identities.update(identities)

    def sorted_records(self) -> list[TraceRecord]:
        """Captured exchanges in timestamp order (stamps are unique),
        annotated with any learned ground truth."""
        records = []
        for record in self.records:
            identity = self._identities.get(
                (record.client_ip, record.user_agent)
            )
            if identity is not None:
                record = record.with_ground_truth(*identity)
            records.append(record)
        records.sort(key=lambda r: r.timestamp)
        return records

    def sorted_probes(self) -> list[ProbeRecord]:
        """Journalled registrations in issue order."""
        return sorted(self.probes, key=lambda p: p.issued_at)

    def finalize_sessions(self):
        """Finalize the network's sessions (call after traffic stops).

        Any identities learned via :meth:`annotate_ground_truth` are
        backfilled onto the finalized sessions, exactly as the replay
        engine does for records carrying ground truth.
        """
        from repro.workload.results import apply_session_identities

        sessions = self._network.finalize_sessions()
        apply_session_identities(sessions, self._identities)
        return sessions

    def session_summary(self):
        """Set-algebra summary (after :meth:`finalize_sessions`)."""
        return self._network.session_sets().summary()

    # -- connection handling ------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        m = self.metrics
        m.connections.inc()
        task = asyncio.current_task()
        self._handlers[task] = writer
        m.open_connections.set(len(self._handlers))
        peer = writer.get_extra_info("peername")
        peer_ip = peer[0] if peer else "0.0.0.0"
        accepted = time.perf_counter()
        served = 0
        try:
            while not self._closing:
                self._idle[task] = reader
                try:
                    parsed = await asyncio.wait_for(
                        read_request(
                            reader,
                            default_host=self._default_host,
                            limits=self._config.limits,
                        ),
                        timeout=self._config.keep_alive_timeout,
                    )
                except asyncio.TimeoutError:
                    m.timeouts.inc()
                    break
                except HttpParseError as exc:
                    self.parse_errors += 1
                    m.note_parse_error(exc.status)
                    await self._write(
                        writer,
                        error_response(exc.status, exc.message),
                        head=False,
                        keep_alive=False,
                    )
                    break
                except (ConnectionResetError, OSError):
                    break
                finally:
                    del self._idle[task]
                if parsed is None:
                    break
                served += 1
                if served == 1:
                    m.observe_stage(
                        "accept", time.perf_counter() - accepted
                    )
                else:
                    m.keepalive_reuses.inc()
                m.observe_stage("parse", parsed.parse_seconds)
                keep_alive = (
                    parsed.keep_alive
                    and served < self._config.max_requests_per_connection
                )
                response, head = await self._dispatch(parsed, peer_ip)
                keep_alive = keep_alive and not self._closing
                try:
                    await self._write(
                        writer, response, head=head, keep_alive=keep_alive
                    )
                except (ConnectionResetError, BrokenPipeError, OSError):
                    break
                if not keep_alive:
                    break
        finally:
            del self._handlers[task]
            m.open_connections.set(len(self._handlers))
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        head: bool,
        keep_alive: bool,
    ) -> None:
        started = time.perf_counter()
        writer.write(render_response(response, head=head, keep_alive=keep_alive))
        await writer.drain()
        self.metrics.observe_stage("write", time.perf_counter() - started)

    # -- request dispatch ---------------------------------------------------

    async def _dispatch(
        self, parsed: ParsedRequest, peer_ip: str
    ) -> tuple[Response, bool]:
        cfg = self._config
        m = self.metrics
        head = parsed.method is Method.HEAD
        client_ip = peer_ip
        if cfg.trust_forwarded_for:
            forwarded = parsed.headers.get("X-Forwarded-For")
            if forwarded:
                client_ip = forwarded.split(",")[0].strip() or peer_ip
                # Consumed as addressing metadata; the pipeline sees the
                # same header set a replayed trace record will rebuild.
                parsed.headers.remove("X-Forwarded-For")
        request = Request(
            method=parsed.method,
            url=parsed.url,
            client_ip=client_ip,
            headers=parsed.headers,
            timestamp=self._stamp(),
        )

        if request.url.path.startswith("/__captcha__"):
            response = self._captcha(request, parsed.body)
            m.note_request(response.status)
            return response, head

        index = self._network.node_index_for(client_ip)
        if not self._admit(index, client_ip):
            self.shed_count += 1
            m.shed.inc()
            response = error_response(
                503, "overloaded: request shed at admission"
            )
            response.headers.set("Retry-After", "1")
            m.note_request(response.status)
            return response, head

        node = self._network.nodes[index]
        self._pending[index] += 1
        try:
            async with self._locks[index]:
                started = time.perf_counter()
                response = await asyncio.get_running_loop().run_in_executor(
                    self._pool, self._handle_on_node, node, request
                )
                elapsed = time.perf_counter() - started
        finally:
            self._pending[index] -= 1
        self._ewma[index] += 0.2 * (elapsed - self._ewma[index])
        m.observe_stage("handle", elapsed)

        for tap in self._network.taps:
            tap(request, response)
        self._log(request, response)
        self.requests_handled += 1
        m.note_request(response.status)
        return response, head

    def _handle_on_node(self, node, request: Request) -> Response:
        """Runs on the handler pool, serialized by the node's lock."""
        response, outcome = node.handle_traced(request)
        if self._config.ladder is not None and outcome is not None:
            verdict = outcome.verdict
            if verdict is not None:
                from repro.detection.verdict import Label

                ladder = node.ladder_for(request.client_ip)
                if ladder is not None:
                    ladder.observe_verdict(
                        request.client_ip,
                        -1.0 if verdict.label is Label.ROBOT else 1.0,
                        request.timestamp,
                    )
        return response

    def _admit(self, index: int, client_ip: str) -> bool:
        cfg = self._config
        if cfg.policy == "shed":
            return self._pending[index] < cfg.max_pending_per_node
        if self._controller is not None:
            predicted = (self._pending[index] + 1) * self._ewma[index]
            return self._controller.admit(index, client_ip, predicted)
        return True

    # -- CAPTCHA funnel -----------------------------------------------------

    def _captcha(self, request: Request, body: bytes) -> Response:
        """Serve the ladder's challenge page and its verify endpoint.

        Out-of-band by design: these exchanges feed the ladder, not the
        detectors, and leave no access-log footprint (the record CLI
        documents the same property for the simulated funnel).
        """
        if request.url.path == CHALLENGE_PATH:
            return html_response(_CHALLENGE_PAGE, uncacheable=True)
        if request.url.path == VERIFY_PATH:
            answer = _form_field(
                body.decode("latin-1") if body else request.url.query,
                "answer",
            )
            passed = answer == _CHALLENGE_TOKEN
            node = self._network.node_for(request.client_ip)
            ladder = node.ladder_for(request.client_ip)
            if ladder is not None:
                ladder.note_captcha_result(
                    request.client_ip, passed, request.timestamp
                )
            if passed:
                response = Response(
                    status=302, headers=Headers([("Location", "/")])
                )
                return response
            return error_response(403, "challenge failed")
        return error_response(404)

    # -- plumbing -----------------------------------------------------------

    def _stamp(self) -> float:
        """Next virtual timestamp: strictly increasing microseconds.

        Assigned on the event loop, so stamp order is exactly the order
        requests enter their per-node locks — which makes the sorted
        trace replay in the same per-node order the live run handled.
        """
        assert self._epoch is not None
        now_us = int((time.monotonic() - self._epoch) * 1_000_000)
        if now_us <= self._last_us:
            now_us = self._last_us + 1
        self._last_us = now_us
        return now_us / 1_000_000

    def _log(self, request: Request, response: Response) -> None:
        record = TraceRecord.from_exchange(request, response)
        self.records.append(record)
        if self._trace_handle is not None:
            self._trace_handle.write(format_clf_line(record))
            self._trace_handle.write("\n")

    def _observe_probe(self, probe) -> None:
        # Registry listener; fires on handler threads (list.append is
        # atomic under the GIL).
        self.probes.append(ProbeRecord.from_probe(probe))

    async def _housekeeping_loop(self) -> None:
        interval = self._config.housekeeping_interval
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(interval)
            for index, node in enumerate(self._network.nodes):
                async with self._locks[index]:
                    await loop.run_in_executor(
                        self._pool, node.housekeeping, self._stamp()
                    )


def _form_field(encoded: str, name: str) -> str | None:
    """Minimal ``application/x-www-form-urlencoded`` field lookup."""
    for pair in encoded.split("&"):
        key, sep, value = pair.partition("=")
        if sep and key == name:
            return _unquote_plus(value)
    return None


def _unquote_plus(value: str) -> str:
    value = value.replace("+", " ")
    out = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "%" and index + 2 < len(value) + 1:
            hex_part = value[index + 1 : index + 3]
            try:
                out.append(chr(int(hex_part, 16)))
                index += 3
                continue
            except ValueError:
                pass
        out.append(char)
        index += 1
    return "".join(out)

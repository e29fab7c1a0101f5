"""Per-session state: identity, counters and evidence flags.

§3 defines a session as "a stream of HTTP requests and responses
associated with a unique <IP, User-Agent> pair, that has not been idle for
more than an hour", and the analysis "only consider[s] sessions that have
sent more than 10 requests".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.http.message import Method, Request, Response
from repro.http.status import StatusClass


@dataclass(frozen=True)
class SessionKey:
    """The <IP, User-Agent> pair that identifies a session."""

    client_ip: str
    user_agent: str

    def __str__(self) -> str:
        agent = self.user_agent if len(self.user_agent) <= 40 else (
            self.user_agent[:37] + "..."
        )
        return f"<{self.client_ip}, {agent}>"


@dataclass
class SessionState:
    """Everything the detector remembers about one session.

    Evidence fields record the 1-based request index at which each signal
    *first* fired (None = never) — these indices are the Figure 2 samples.
    """

    session_id: str
    key: SessionKey
    started_at: float
    last_request_at: float = 0.0
    request_count: int = 0

    # -- evidence (first-occurrence request indices) -----------------------
    css_beacon_at: int | None = None
    beacon_js_at: int | None = None
    js_executed_at: int | None = None
    mouse_event_at: int | None = None
    hidden_link_at: int | None = None
    ua_mismatch_at: int | None = None
    captcha_passed_at: int | None = None
    wrong_key_fetches: int = 0

    # -- aggregate counters (cheap; always maintained) ---------------------
    head_requests: int = 0
    get_requests: int = 0
    post_requests: int = 0
    cgi_requests: int = 0
    status_2xx: int = 0
    status_3xx: int = 0
    status_4xx: int = 0
    status_5xx: int = 0
    bytes_served: int = 0
    beacon_bytes_served: int = 0

    # Ground truth for evaluation only — set by the workload generator,
    # never read by any detector.
    true_label: str = ""
    agent_kind: str = ""

    # Scratch space other components may attach (e.g. the ML feature
    # accumulator when dataset collection is enabled).
    attachments: dict[str, object] = field(default_factory=dict)

    # -- membership predicates used by the set algebra ---------------------

    @property
    def in_css_set(self) -> bool:
        """S_CSS: downloaded the beacon CSS file."""
        return self.css_beacon_at is not None

    @property
    def in_js_set(self) -> bool:
        """S_JS: executed the embedded JavaScript (UA probe fetched)."""
        return self.js_executed_at is not None

    @property
    def in_mouse_set(self) -> bool:
        """S_MM: produced a correctly keyed mouse-event fetch."""
        return self.mouse_event_at is not None

    @property
    def followed_hidden_link(self) -> bool:
        """Fetched a hidden-trap page."""
        return self.hidden_link_at is not None

    @property
    def ua_mismatched(self) -> bool:
        """JavaScript-echoed UA disagreed with the UA header."""
        return self.ua_mismatch_at is not None

    @property
    def passed_captcha(self) -> bool:
        """Solved the optional CAPTCHA."""
        return self.captcha_passed_at is not None

    @property
    def is_human_by_set_algebra(self) -> bool:
        """Membership in S_H = (S_CSS ∪ S_MM) − (S_JS − S_MM)."""
        in_union = self.in_css_set or self.in_mouse_set
        in_js_only = self.in_js_set and not self.in_mouse_set
        return in_union and not in_js_only

    @property
    def idle_since(self) -> float:
        """Timestamp of the last request (idle time starts here)."""
        return self.last_request_at

    # -- updates ------------------------------------------------------------

    def note_request(self, request: Request) -> int:
        """Record an incoming request; returns its 1-based index."""
        self.request_count += 1
        self.last_request_at = request.timestamp
        if request.method is Method.HEAD:
            self.head_requests += 1
        elif request.method is Method.POST:
            self.post_requests += 1
        else:
            self.get_requests += 1
        if request.path_kind.value == "cgi":
            self.cgi_requests += 1
        return self.request_count

    def note_response(self, response: Response, from_beacon: bool = False) -> None:
        """Record the response paired with the latest request."""
        klass = response.status_class
        if klass is StatusClass.SUCCESS:
            self.status_2xx += 1
        elif klass is StatusClass.REDIRECT:
            self.status_3xx += 1
        elif klass is StatusClass.CLIENT_ERROR:
            self.status_4xx += 1
        elif klass is StatusClass.SERVER_ERROR:
            self.status_5xx += 1
        self.bytes_served += response.size
        if from_beacon:
            self.beacon_bytes_served += response.size

    def mark_first(self, attribute: str, request_index: int) -> bool:
        """Set a first-occurrence index if unset; True when newly set."""
        if getattr(self, attribute) is None:
            setattr(self, attribute, request_index)
            return True
        return False


def session_order(state: SessionState) -> tuple[float, str, str]:
    """Merge order for sessions gathered from several detection shards.

    ``(started_at, client_ip, user_agent)`` depends on neither the
    shard count nor the lane layout, so merged session lists come out
    the same for every partitioning.
    """
    return (state.started_at, state.key.client_ip, state.key.user_agent)

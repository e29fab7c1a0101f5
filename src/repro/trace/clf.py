"""Common/Combined Log Format traces: the interchange format of the
trace subsystem.

A :class:`TraceRecord` is one access-log line — exactly the fields a
CoDeeN node would log for one request/response pair.  The module reads
and writes NCSA Combined Log Format so that (a) any workload this
simulator runs can be exported as a standard access log, and (b) real
access logs can be replayed through the detection pipeline
(:mod:`repro.trace.replay`), the way BOTracle and BotGraph evaluate
their detectors.

Two deliberate extensions, both backward compatible with real logs:

* timestamps carry optional fractional seconds
  (``[06/Feb/2006:00:12:07.318204 +0000]``) so a replay preserves the
  simulator's sub-second event ordering; plain second-resolution stamps
  parse fine;
* the normally unused ``ident``/``authuser`` fields carry the synthetic
  ground truth (agent kind and "human"/"robot" label) when a trace is
  exported by the recorder — evaluation metadata the detectors never
  read.  Real logs have ``-`` there and simply replay unlabelled.

Reading is streaming (constant memory) and gzip-transparent; malformed
lines are counted and skipped rather than aborting a multi-gigabyte
replay (set ``strict=True`` to raise instead).
"""

from __future__ import annotations

import gzip
import re
from dataclasses import dataclass, field, replace
from typing import IO, Iterable, Iterator

from repro.http.headers import Headers
from repro.http.message import Method, Request, Response
from repro.http.uri import Url

#: Virtual second 0 of every exported trace, rendered in CLF dates.
#: The paper's CoDeeN week was captured in Feb 2006; the exact anchor is
#: arbitrary because replays only use differences between timestamps.
TRACE_EPOCH = "06/Feb/2006:00:00:00"

_EPOCH_YEAR = 2006
_EPOCH_MONTH = 2
_EPOCH_DAY = 6

_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)
_MONTH_INDEX = {name: i + 1 for i, name in enumerate(_MONTHS)}

#: Days in each month of a non-leap year (index 1..12).
_MONTH_DAYS = (0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)

_QUOTED = r'"((?:[^"\\]|\\.)*)"'
_LINE_RE = re.compile(
    r"^(?P<ip>\S+)\s+(?P<ident>\S+)\s+(?P<user>\S+)\s+"
    r"\[(?P<time>[^\]]+)\]\s+"
    rf"(?P<request>{_QUOTED})\s+"
    r"(?P<status>\d{3})\s+(?P<size>\d+|-)"
    rf"(?:\s+(?P<referer>{_QUOTED})\s+(?P<agent>{_QUOTED}))?\s*$"
)
_TIME_RE = re.compile(
    r"^(?P<day>\d{1,2})/(?P<month>[A-Za-z]{3})/(?P<year>\d{4})"
    r":(?P<hour>\d{2}):(?P<minute>\d{2}):(?P<second>\d{2})"
    r"(?:\.(?P<fraction>\d{1,6}))?"
    r"(?:\s+(?P<sign>[+-])(?P<zh>\d{2})(?P<zm>\d{2}))?$"
)


class TraceParseError(ValueError):
    """A CLF line (or one of its fields) could not be parsed."""


@dataclass
class ParseStats:
    """Counters for one reading pass over a trace file."""

    lines: int = 0
    parsed: int = 0
    malformed: int = 0
    #: First few offending lines, for diagnostics.
    samples: list[str] = field(default_factory=list)

    _MAX_SAMPLES = 5

    def note_malformed(self, line: str) -> None:
        """Count one bad line, keeping a short sample for the report."""
        self.malformed += 1
        if len(self.samples) < self._MAX_SAMPLES:
            self.samples.append(line.rstrip("\n")[:200])


@dataclass(frozen=True)
class TraceRecord:
    """One access-log line: a request and what was answered.

    ``agent_kind``/``true_label`` round-trip through the CLF
    ``ident``/``authuser`` fields; empty strings render as ``-``.
    """

    client_ip: str
    timestamp: float
    method: Method
    url: Url
    status: int
    size: int
    user_agent: str = ""
    referer: str | None = None
    agent_kind: str = ""
    true_label: str = ""

    @classmethod
    def from_exchange(
        cls, request: Request, response: Response
    ) -> "TraceRecord":
        """Capture one request/response pair flowing through a proxy."""
        return cls(
            client_ip=request.client_ip,
            timestamp=request.timestamp,
            method=request.method,
            url=request.url,
            status=response.status,
            size=response.size,
            user_agent=request.user_agent,
            referer=request.referer,
        )

    def to_request(self) -> Request:
        """Rebuild the proxy-side request this line describes."""
        headers = Headers()
        if self.user_agent:
            headers.set("User-Agent", self.user_agent)
        if self.referer:
            headers.set("Referer", self.referer)
        return Request(
            method=self.method,
            url=self.url,
            client_ip=self.client_ip,
            headers=headers,
            timestamp=self.timestamp,
        )

    def with_ground_truth(self, kind: str, label: str) -> "TraceRecord":
        """Copy of this record annotated with synthetic ground truth."""
        return replace(self, agent_kind=kind, true_label=label)


# -- timestamp rendering ----------------------------------------------------


def format_clf_time(timestamp: float) -> str:
    """Virtual seconds -> ``06/Feb/2006:00:12:07.318204 +0000``.

    Fractional digits are emitted only when the timestamp has them, so a
    whole-second trace is byte-identical to standard CLF.
    """
    if timestamp < 0:
        raise ValueError(f"timestamp must be non-negative, got {timestamp}")
    whole = int(timestamp)
    micros = int(round((timestamp - whole) * 1_000_000))
    if micros == 1_000_000:  # rounding carried into the next second
        whole += 1
        micros = 0

    day = _EPOCH_DAY - 1 + whole // 86_400
    month = _EPOCH_MONTH
    year = _EPOCH_YEAR
    while day >= _days_in_month(year, month):
        day -= _days_in_month(year, month)
        month += 1
        if month > 12:
            month = 1
            year += 1
    rem = whole % 86_400
    hh, rem = divmod(rem, 3600)
    mm, ss = divmod(rem, 60)
    base = (
        f"{day + 1:02d}/{_MONTHS[month - 1]}/{year}:{hh:02d}:{mm:02d}:{ss:02d}"
    )
    if micros:
        base += f".{micros:06d}"
    return base + " +0000"


def parse_clf_time(text: str) -> float:
    """``06/Feb/2006:00:12:07[.ffffff] [+zzzz]`` -> virtual seconds.

    Any absolute date parses; the result is seconds since
    :data:`TRACE_EPOCH` (UTC), so real logs land on the same virtual
    clock the simulator uses.  Dates before the epoch are rejected.
    """
    match = _TIME_RE.match(text.strip())
    if match is None:
        raise TraceParseError(f"unparseable CLF timestamp: {text!r}")
    month = _MONTH_INDEX.get(match.group("month").title())
    if month is None:
        raise TraceParseError(f"unknown month in timestamp: {text!r}")
    year = int(match.group("year"))
    day = int(match.group("day"))
    days = _days_since_epoch(year, month, day)
    seconds = (
        days * 86_400
        + int(match.group("hour")) * 3600
        + int(match.group("minute")) * 60
        + int(match.group("second"))
    )
    if match.group("sign"):
        offset = int(match.group("zh")) * 3600 + int(match.group("zm")) * 60
        if match.group("sign") == "+":
            seconds -= offset
        else:
            seconds += offset
    # Whole microseconds, divided once, so that parsing inverts
    # format_clf_time exactly for any microsecond-resolution timestamp.
    micros = seconds * 1_000_000 + int(
        (match.group("fraction") or "0").ljust(6, "0")
    )
    if micros < 0:
        raise TraceParseError(
            f"timestamp predates the trace epoch ({TRACE_EPOCH}): {text!r}"
        )
    return micros / 1_000_000


def _is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def _days_in_month(year: int, month: int) -> int:
    if month == 2 and _is_leap(year):
        return 29
    return _MONTH_DAYS[month]


def _days_since_epoch(year: int, month: int, day: int) -> int:
    if not 1 <= month <= 12 or not 1 <= day <= _days_in_month(year, month):
        raise TraceParseError(f"invalid date: {year}-{month}-{day}")
    days = 0
    for y in range(_EPOCH_YEAR, year):
        days += 366 if _is_leap(y) else 365
    for m in range(1, month):
        days += _days_in_month(year, m)
    days += day - 1
    # Anchor at Feb 6 rather than Jan 1.
    days -= _MONTH_DAYS[1] + _EPOCH_DAY - 1
    return days


# -- line rendering ---------------------------------------------------------


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _unquote(value: str) -> str:
    return value.replace('\\"', '"').replace("\\\\", "\\")


def format_clf_line(record: TraceRecord) -> str:
    """Render one record as a Combined Log Format line (no newline)."""
    ident = record.agent_kind or "-"
    user = record.true_label or "-"
    request = f"{record.method.value} {record.url} HTTP/1.1"
    referer = record.referer or "-"
    return (
        f"{record.client_ip} {ident} {user} "
        f"[{format_clf_time(record.timestamp)}] "
        f"{_quote(request)} {record.status} {record.size} "
        f"{_quote(referer)} {_quote(record.user_agent or '-')}"
    )


def parse_clf_line(
    line: str, default_host: str | None = None
) -> TraceRecord:
    """Parse one access-log line; raises :class:`TraceParseError`.

    ``default_host`` resolves origin-form request targets (``GET /x``)
    as real servers log them; exported traces use absolute URLs and do
    not need it.
    """
    match = _LINE_RE.match(line)
    if match is None:
        raise TraceParseError(f"unparseable CLF line: {line!r}")

    request_line = _unquote(match.group("request")[1:-1])
    parts = request_line.split()
    if len(parts) == 3:
        method_text, target, _protocol = parts
    elif len(parts) == 2:
        method_text, target = parts
    else:
        raise TraceParseError(f"unparseable request field: {request_line!r}")
    try:
        method = Method(method_text.upper())
    except ValueError:
        raise TraceParseError(f"unsupported method: {method_text!r}") from None

    if target.startswith("/"):
        if default_host is None:
            raise TraceParseError(
                f"origin-form target {target!r} needs a default_host"
            )
        target = f"http://{default_host}{target}"
    try:
        url = Url.parse(target)
    except ValueError as exc:
        raise TraceParseError(str(exc)) from None

    size_text = match.group("size")
    referer_group = match.group("referer")
    referer = _unquote(referer_group[1:-1]) if referer_group else "-"
    agent_group = match.group("agent")
    agent = _unquote(agent_group[1:-1]) if agent_group else "-"
    ident = match.group("ident")
    user = match.group("user")
    return TraceRecord(
        client_ip=match.group("ip"),
        timestamp=parse_clf_time(match.group("time")),
        method=method,
        url=url,
        status=int(match.group("status")),
        size=0 if size_text == "-" else int(size_text),
        user_agent="" if agent == "-" else agent,
        referer=None if referer == "-" else referer,
        agent_kind="" if ident == "-" else ident,
        true_label="" if user == "-" else user,
    )


# -- file I/O ---------------------------------------------------------------


def open_trace_file(path: str, mode: str = "rt") -> IO[str]:
    """Open a trace file for text I/O, transparently handling gzip.

    Reading sniffs the gzip magic; writing gzips when the path ends in
    ``.gz``.
    """
    if "r" in mode:
        with open(path, "rb") as probe:
            magic = probe.read(2)
        if magic == b"\x1f\x8b":
            return gzip.open(path, "rt", encoding="utf-8")
        return open(path, "r", encoding="utf-8")
    if path.endswith(".gz"):
        return gzip.open(path, mode if "t" in mode else mode + "t",
                         encoding="utf-8")
    return open(path, mode.replace("t", ""), encoding="utf-8")


def read_trace(
    source: str | IO[str] | Iterable[str],
    default_host: str | None = None,
    stats: ParseStats | None = None,
    strict: bool = False,
) -> Iterator[TraceRecord]:
    """Stream records from a trace file, path or line iterable.

    Malformed lines (and blank lines / ``#`` comments) are skipped and
    counted in ``stats``; with ``strict=True`` the first malformed line
    raises :class:`TraceParseError` instead.
    """
    stats = stats if stats is not None else ParseStats()
    close_after = False
    if isinstance(source, str):
        lines: Iterable[str] = open_trace_file(source)
        close_after = True
    else:
        lines = source
    try:
        for line in lines:
            stats.lines += 1
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                record = parse_clf_line(stripped, default_host=default_host)
            except TraceParseError:
                if strict:
                    raise
                stats.note_malformed(line)
                continue
            stats.parsed += 1
            yield record
    finally:
        if close_after:
            lines.close()  # type: ignore[union-attr]


def write_trace(path: str, records: Iterable[TraceRecord]) -> int:
    """Write records as CLF lines (gzipped for ``.gz``); returns count."""
    written = 0
    with open_trace_file(path, "wt") as handle:
        for record in records:
            handle.write(format_clf_line(record))
            handle.write("\n")
            written += 1
    return written

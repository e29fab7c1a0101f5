"""Benchmark-side spans: timing wrappers around the program's public
entry points, installed from outside ``src/`` for a traced run.

A span is ``(name, start, end, parent, request_id)``; spans are kept in
memory and written as JSON lines when the run ends.  The parent is the
innermost span open on the same thread, so a span opened inside
``NodeShard.handle_traced`` (detection, instrumentation) nests under it
and inherits its request id.  A layer's self time is its span time
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict


class SpanLog:
    """In-memory span store shared by every installed wrapper."""

    def __init__(self) -> None:
        # name, start, end, parent index (-1 = root), request id
        self.spans: list[tuple[str, float, float, int, str]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, owner, attribute: str, name: str, request_id=None) -> None:
        """Replace ``owner.attribute`` by a timing wrapper (for the rest
        of the process).  ``request_id(args)`` names a root span's
        request; nested spans take their parent's."""
        original = getattr(owner, attribute)
        log = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = log._stack()
            if stack:
                parent, rid = stack[-1]
            else:
                parent = -1
                rid = request_id(args) if request_id else ""
            with log._lock:
                index = len(log.spans)
                log.spans.append((name, 0.0, 0.0, parent, rid))
            stack.append((index, rid))
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                log.spans[index] = (name, start, end, parent, rid)

        setattr(owner, attribute, wrapper)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds and total self seconds."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, _rid in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _parent, _rid) in enumerate(self.spans):
            covered = _covered(children.get(index, ()), start, end)
            entry = out.setdefault(name, {"count": 0, "total": 0.0, "self": 0.0})
            entry["count"] += 1
            entry["total"] += end - start
            entry["self"] += (end - start) - covered
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, rid in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "request": rid}
                ))
                handle.write("\n")


def _covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def install_serve(log: SpanLog) -> None:
    """Wrap the node, detection and instrumentation entry points."""
    from repro.detection.service import DetectionService
    from repro.instrument.rewriter import PageInstrumenter
    from repro.proxy.node import NodeShard

    log.wrap(
        NodeShard, "handle_traced", "proxy.node.handle",
        request_id=lambda args: f"{args[1].client_ip}@{args[1].timestamp}",
    )
    log.wrap(DetectionService, "handle_request", "detection.service.handle")
    log.wrap(PageInstrumenter, "instrument", "instrument.rewriter.instrument")


def install_replay(log: SpanLog) -> None:
    """Wrap the parent-side replay entry points (CLF and journal
    parsing, ingress submission).  Lane-side work runs in child
    interpreters, out of a wrapper's reach; it is read from the
    replay's merged metrics instead."""
    import repro.trace.clf as clf
    import repro.trace.recorder as recorder
    from repro.ingress.pipeline import IngressPipeline

    log.wrap(clf, "parse_clf_line", "trace.clf.parse")
    log.wrap(recorder, "parse_probe_line", "trace.recorder.probe_parse")
    log.wrap(IngressPipeline, "submit", "ingress.submit")

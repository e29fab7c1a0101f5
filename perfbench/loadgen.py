"""A lean single-process HTTP/1.1 load generator over pipelined
keep-alive connections.

Requests are pre-rendered wire bytes.  Each client IP is pinned to one
connection and a connection answers in order, so every client's
requests reach the server in recorded order, which is what makes the
rebuilt server re-issue the recorded probe keys.  The loop is plain
non-blocking sockets under ``selectors``: no asyncio, no per-request
objects beyond a few floats, so the generator's own cost stays small
next to the server's.

Two phases share the connections:

* :func:`open_loop` sends request *i* at ``start + i / rate`` whatever
  the server does, and times each request from that due time to its
  last response byte;
* :func:`closed_loop` keeps a fixed window of requests in flight per
  connection and reports completions over wall time.
"""

from __future__ import annotations

import selectors
import socket
import time
import zlib
from collections import deque


#: Seconds without a single response before the server counts as hung.
STALL_TIMEOUT = 30.0


class Lost(Exception):
    """The server closed a connection, or stopped answering, with
    requests still unanswered."""


class _Conn:
    __slots__ = ("sock", "out", "inbuf", "inflight", "queue")

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        #: (request index, is_head) in send order.
        self.inflight: deque = deque()
        #: Request indices this connection will send (closed loop).
        self.queue: deque = deque()


class LoadGenerator:
    """Pipelined keep-alive connections to one server."""

    def __init__(self, host: str, port: int, requests, connections: int):
        self.requests = requests
        self.conns = [_Conn(host, port) for _ in range(connections)]
        self.pin = [
            zlib.crc32(ip.encode()) % connections for ip, _h, _b in requests
        ]
        self.status = [0] * len(requests)
        self.done_at = [0.0] * len(requests)
        # select(2) takes a microsecond timeout; epoll rounds up to whole
        # milliseconds, which would make every fixed-rate send late.
        self.selector = selectors.SelectSelector()
        for conn in self.conns:
            self.selector.register(conn.sock, selectors.EVENT_READ, conn)
        self._progress = time.perf_counter()

    def close(self) -> None:
        """Close every connection (before the server stops)."""
        for conn in self.conns:
            self.selector.unregister(conn.sock)
            conn.sock.close()
        self.selector.close()

    # -- plumbing -----------------------------------------------------------

    def _send(self, conn: _Conn, index: int) -> None:
        _ip, head, wire = self.requests[index]
        conn.inflight.append((index, head))
        if conn.out:
            conn.out += wire
            return
        try:
            sent = conn.sock.send(wire)
        except BlockingIOError:
            sent = 0
        if sent < len(wire):
            conn.out += wire[sent:]
            self.selector.modify(
                conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn
            )

    def _flush(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            return
        del conn.out[:sent]
        if not conn.out:
            self.selector.modify(conn.sock, selectors.EVENT_READ, conn)

    def _poll(self, timeout: float, on_done) -> None:
        ready = self.selector.select(timeout)
        if not ready and time.perf_counter() - self._progress > STALL_TIMEOUT:
            raise Lost(f"server answered nothing for {STALL_TIMEOUT:.0f} s")
        for key, events in ready:
            conn = key.data
            if events & selectors.EVENT_WRITE:
                self._flush(conn)
            if events & selectors.EVENT_READ:
                try:
                    chunk = conn.sock.recv(1 << 18)
                except (BlockingIOError, InterruptedError):
                    continue
                except ConnectionError:
                    chunk = b""
                if not chunk:
                    raise Lost("server closed a connection mid-stream")
                conn.inbuf += chunk
                self._frame(conn, on_done)

    def _frame(self, conn: _Conn, on_done) -> None:
        """Cut complete responses off the connection's input buffer."""
        buf = conn.inbuf
        pos = 0
        now = time.perf_counter()
        while conn.inflight:
            end = buf.find(b"\r\n\r\n", pos)
            if end < 0:
                break
            index, head = conn.inflight[0]
            header = bytes(buf[pos:end]).lower()
            length = 0
            at = header.find(b"\r\ncontent-length:")
            if at >= 0:
                stop = header.find(b"\r\n", at + 2)
                length = int(header[at + 17 : stop if stop >= 0 else None])
            total = end + 4 + (0 if head else length)
            if len(buf) < total:
                break
            conn.inflight.popleft()
            self._progress = now
            self.status[index] = int(header[9:12])
            self.done_at[index] = now
            pos = total
            on_done(conn, index)
        if pos:
            del buf[:pos]

    # -- phases ---------------------------------------------------------------

    def open_loop(self, indices, rate: float) -> tuple[list[float], list[float]]:
        """Send ``indices`` at a fixed rate; wait for every answer.

        Returns ``(latency_s, late_s)`` per request: due time to last
        response byte, and how late the generator sent it."""
        due_gap = 1.0 / rate
        late = []
        outstanding = [0]

        def done(_conn, _index):
            outstanding[0] -= 1

        self._progress = time.perf_counter()
        start = self._progress + 0.01
        sent = 0
        total = len(indices)
        while sent < total or outstanding[0]:
            now = time.perf_counter()
            while sent < total and start + sent * due_gap <= now:
                index = indices[sent]
                late.append(now - (start + sent * due_gap))
                self._send(self.conns[self.pin[index]], index)
                outstanding[0] += 1
                sent += 1
            if sent < total:
                wait = start + sent * due_gap - time.perf_counter()
                self._poll(max(0.0, wait), done)
            else:
                self._poll(1.0, done)
        latency = [
            self.done_at[index] - (start + i * due_gap)
            for i, index in enumerate(indices)
        ]
        return latency, late

    def closed_loop(self, indices, window: int) -> float:
        """Send ``indices`` keeping ``window`` in flight per connection;
        returns the wall seconds from first send to last answer."""
        for index in indices:
            self.conns[self.pin[index]].queue.append(index)
        outstanding = [len(indices)]

        def done(conn, _index):
            outstanding[0] -= 1
            if conn.queue:
                self._send(conn, conn.queue.popleft())

        start = self._progress = time.perf_counter()
        for conn in self.conns:
            for _ in range(min(window, len(conn.queue))):
                self._send(conn, conn.queue.popleft())
        while outstanding[0]:
            self._poll(1.0, done)
        return time.perf_counter() - start

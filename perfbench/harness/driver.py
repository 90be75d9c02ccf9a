"""The benchmark's own load generator: closed and open loop over raw sockets.

One thread and one ``selectors`` loop drive every connection, so the
client's CPU cost per request stays small and is measured
(``time.process_time``).  Each connection speaks the gateway's line
dialect; a REPRO-FRAME/2 message is one more "wire" whose response is
still one line, so both protocols share this driver.

The open loop times every request from when it was **due**, not from
when it was sent, and sends everything that fell due on each wake-up.
A stalled generator therefore shows up as latency (and as
``late``), never as a quietly lighter load (coordinated omission).
"""

from __future__ import annotations

import math
import selectors
import socket
import time
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from harness.gateway import http_head, parse_http_response
from harness.spans import SpanRecorder

_DRAIN_TIMEOUT_S = 10.0
_RECV_BYTES = 1 << 18


@dataclass
class PhaseRecord:
    """Everything one phase saw, one slot per request sent.

    Attributes:
        wire: index into the phase's wire list of each request.
        sent: when each request was written (perf_counter seconds).
        due: when each request was due (open loop; equals ``sent``
            in a closed loop).
        recv: when each response line arrived (0.0 if none).
        responses: each raw response line without its newline.
        started / deadline: the measured window.
        start_sample / end_sample: ``(probe value, client CPU seconds)``
            at ``started`` and at ``deadline``.
        dropped_connections: connections that closed, reset or never
            opened.
        reloads: ``(sent, done, status, reply)`` per reload posted;
            status 0 when no reply came.
    """

    wire: list[int] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    due: list[float] = field(default_factory=list)
    recv: list[float] = field(default_factory=list)
    responses: list[bytes | None] = field(default_factory=list)
    started: float = 0.0
    deadline: float = 0.0
    start_sample: tuple[object, float] = (None, 0.0)
    end_sample: tuple[object, float] = (None, 0.0)
    dropped_connections: int = 0
    reloads: list[tuple[float, float, int, dict]] = field(
        default_factory=list
    )

    @property
    def attempted(self) -> int:
        return len(self.wire)

    @property
    def client_cpu_s(self) -> float:
        """This process's CPU time between the two samples."""
        return self.end_sample[1] - self.start_sample[1]

    def probe_per_answer_us(self) -> float | None:
        """Probe delta (gateway CPU seconds) per answered request, in
        microseconds, over the whole phase."""
        first, last = self.start_sample[0], self.end_sample[0]
        answered = self.answered_in_window()
        if first is None or last is None or not answered:
            return None
        return (last - first) / answered * 1e6

    def answered_in_window(self) -> int:
        """Responses that arrived before the deadline."""
        return sum(1 for t in self.recv if 0.0 < t <= self.deadline)

    def latencies(self) -> list[float]:
        """Seconds from due time to response, answered requests only."""
        return [r - d for d, r in zip(self.due, self.recv) if r > 0.0]


def _sample(probe: Callable[[], object] | None) -> tuple[object, float]:
    return (probe() if probe else None, time.process_time())


class _Conn:
    def __init__(self, address: tuple[str, int]) -> None:
        self.inflight: deque[int] = deque()
        self.inbuf = b""
        self.outbuf = b""
        try:
            self.sock = socket.create_connection(address, timeout=10)
        except OSError:
            # The gateway is gone: every request on this connection is
            # recorded and counted as unanswered.
            self.sock = None
            self.alive = False
            return
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.alive = True


class _Loop:
    """Connections, the selector, and the shared :class:`PhaseRecord`."""

    def __init__(
        self,
        address: tuple[str, int],
        connections: int,
        spans: SpanRecorder | None,
        span_name: str,
        parent: int | None,
    ) -> None:
        self.record = PhaseRecord()
        self.selector = selectors.DefaultSelector()
        self.conns = [_Conn(address) for _ in range(max(1, connections))]
        for conn in self.conns:
            if conn.alive:
                self.selector.register(conn.sock, selectors.EVENT_READ, conn)
            else:
                self.record.dropped_connections += 1
        self.spans = spans
        self.span_name = span_name
        self.parent = parent
        self.answers = 0

    def send(self, conn: _Conn, payloads: list[tuple[int, bytes, float]],
             now: float) -> None:
        """Queue ``(wire index, bytes, due)`` requests on *conn*."""
        if not conn.alive:
            for index, _, due in payloads:
                self._slot(index, now, due)
            return
        for index, _, due in payloads:
            conn.inflight.append(self._slot(index, now, due))
        self._write(conn, b"".join(p[1] for p in payloads))

    def _slot(self, index: int, now: float, due: float) -> int:
        record = self.record
        record.wire.append(index)
        record.sent.append(now)
        record.due.append(due)
        record.recv.append(0.0)
        record.responses.append(None)
        return len(record.wire) - 1

    def _write(self, conn: _Conn, data: bytes) -> None:
        data = conn.outbuf + data
        try:
            sent = conn.sock.send(data) if data else 0
        except BlockingIOError:
            sent = 0
        except OSError:
            self._drop(conn)
            return
        conn.outbuf = data[sent:]
        events = selectors.EVENT_READ
        if conn.outbuf:
            events |= selectors.EVENT_WRITE
        self.selector.modify(conn.sock, events, conn)

    def _drop(self, conn: _Conn) -> None:
        if conn.alive:
            conn.alive = False
            self.record.dropped_connections += 1
            self.selector.unregister(conn.sock)
            conn.sock.close()
            conn.inflight.clear()

    def poll(self, timeout: float) -> list[tuple[_Conn, int]]:
        """Wait up to *timeout*; returns ``(conn, answered)`` per read."""
        answered = []
        for key, mask in self.selector.select(max(0.0, timeout)):
            conn = key.data
            if not isinstance(conn, _Conn):
                key.data(mask)
                continue
            if mask & selectors.EVENT_WRITE:
                self._write(conn, b"")
                if not conn.alive:
                    continue
            if mask & selectors.EVENT_READ:
                answered.append((conn, self._read(conn)))
        return answered

    def _read(self, conn: _Conn) -> int:
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return 0
        except OSError:
            data = b""
        if not data:
            self._drop(conn)
            return 0
        now = time.perf_counter()
        lines = (conn.inbuf + data).split(b"\n")
        conn.inbuf = lines.pop()
        record = self.record
        spans = self.spans
        for line in lines:
            if not conn.inflight:
                break
            seq = conn.inflight.popleft()
            record.recv[seq] = now
            record.responses[seq] = line
            self.answers += 1
            if spans is not None:
                spans.add(self.span_name, record.sent[seq], now,
                          self.parent, seq)
        return len(lines)

    def pending(self) -> bool:
        return any(c.alive and c.inflight for c in self.conns)

    def close(self) -> None:
        for conn in self.conns:
            if conn.alive:
                self.selector.unregister(conn.sock)
                conn.sock.close()
        self.selector.close()


def closed_loop(
    address: tuple[str, int],
    wires: Sequence[bytes],
    *,
    connections: int,
    window: int,
    seconds: float,
    probe: Callable[[], object] | None = None,
    spans: SpanRecorder | None = None,
    span_name: str = "request",
    parent: int | None = None,
    offset: int = 0,
    min_answers: int = 0,
) -> PhaseRecord:
    """Keep *window* requests in flight on each connection for *seconds*,
    or until *min_answers* responses have arrived, whichever is later.

    Requests cycle through *wires* starting at *offset*; a response
    frees its slot for the next request.  After the deadline no new
    request is sent and the in-flight ones are drained.  A phase whose
    connections all drop ends early, its requests unanswered.
    """
    loop = _Loop(address, connections, spans, span_name, parent)
    record = loop.record
    n = len(wires)
    cursor = offset

    def take(count: int, now: float) -> list[tuple[int, bytes, float]]:
        nonlocal cursor
        batch = []
        for _ in range(count):
            index = cursor % n
            batch.append((index, wires[index], now))
            cursor += 1
        return batch

    try:
        record.started = time.perf_counter()
        record.deadline = record.started + seconds
        record.start_sample = _sample(probe)
        for conn in loop.conns:
            loop.send(conn, take(window, record.started), record.started)
        closed = False
        while True:
            now = time.perf_counter()
            if not closed and now >= record.deadline:
                if loop.answers >= min_answers or not loop.pending():
                    record.deadline = now
                    record.end_sample = _sample(probe)
                    closed = True
            if not loop.pending() or now > record.deadline + _DRAIN_TIMEOUT_S:
                break
            wait = 0.05 if now >= record.deadline else min(
                0.05, record.deadline - now)
            for conn, answered in loop.poll(wait):
                now = time.perf_counter()
                if answered and conn.alive and not closed and (
                    now < record.deadline
                    or loop.answers < min_answers
                ):
                    loop.send(conn, take(answered, now), now)
        if not closed:
            record.deadline = time.perf_counter()
            record.end_sample = _sample(probe)
    finally:
        loop.close()
    return record


def open_loop(
    address: tuple[str, int],
    wires: Sequence[bytes],
    *,
    rate: float,
    seconds: float,
    connections: int,
    reloads: Sequence[tuple[float, bytes]] = (),
    probe: Callable[[], object] | None = None,
    spans: SpanRecorder | None = None,
    parent: int | None = None,
    offset: int = 0,
) -> PhaseRecord:
    """Send request ``k`` at ``t0 + k / rate`` for *seconds*, whatever
    the responses do, dealing requests round-robin over *connections*.

    *reloads* are ``(offset_s, body)`` pairs: at each offset the
    driver posts ``POST /reload`` with *body* on its own connection and
    records when the reply arrived, without pausing the schedule.  A
    reload the gateway does not accept is recorded with status 0.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    loop = _Loop(address, connections, spans, "request", parent)
    record = loop.record
    n = len(wires)
    total = int(rate * seconds)
    pending_reloads = sorted(reloads)
    open_reloads: dict[socket.socket, tuple[float, list[bytes]]] = {}

    def post_reload(body: bytes) -> None:
        sent = time.perf_counter()
        try:
            sock = socket.create_connection(address, timeout=10)
        except OSError:
            record.reloads.append((sent, time.perf_counter(), 0, {}))
            return
        try:
            sock.sendall(http_head("POST", "/reload", len(body)) + body)
        except OSError:
            sock.close()
            record.reloads.append((sent, time.perf_counter(), 0, {}))
            return
        sock.setblocking(False)
        open_reloads[sock] = (sent, [])
        loop.selector.register(sock, selectors.EVENT_READ,
                               lambda _mask: on_reload_reply(sock))

    def on_reload_reply(sock: socket.socket) -> None:
        sent, chunks = open_reloads[sock]
        try:
            chunk = sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if chunk:
            chunks.append(chunk)
            return
        done = time.perf_counter()
        loop.selector.unregister(sock)
        sock.close()
        del open_reloads[sock]
        try:
            status, reply = parse_http_response(b"".join(chunks))
        except (ValueError, IndexError):
            status, reply = 0, {}
        record.reloads.append((sent, done, status, reply))
        if spans is not None:
            spans.add("serve.reload", sent, done, parent, None)

    try:
        t0 = time.perf_counter() + 0.005
        record.started = t0
        record.deadline = t0 + seconds
        record.start_sample = _sample(probe)
        closed = False
        sent = 0
        while True:
            now = time.perf_counter()
            due_now = min(total, math.floor((now - t0) * rate) + 1)
            if sent < due_now:
                lanes: list[list[tuple[int, bytes, float]]] = [
                    [] for _ in loop.conns
                ]
                for k in range(sent, due_now):
                    index = (offset + k) % n
                    lanes[k % len(lanes)].append(
                        (index, wires[index], t0 + k / rate)
                    )
                for conn, batch in zip(loop.conns, lanes):
                    if batch:
                        loop.send(conn, batch, now)
                sent = due_now
            while pending_reloads and now >= t0 + pending_reloads[0][0]:
                post_reload(pending_reloads.pop(0)[1])
            if not closed and now >= record.deadline:
                record.end_sample = _sample(probe)
                closed = True
            if sent >= total and not pending_reloads and \
                    not loop.pending() and not open_reloads:
                break
            if now > record.deadline + _DRAIN_TIMEOUT_S:
                break
            wait = t0 + sent / rate - now if sent < total else 0.05
            if not closed:
                wait = min(wait, record.deadline - now)
            loop.poll(max(0.0, wait))
        if not closed:
            record.end_sample = _sample(probe)
    finally:
        for sock in open_reloads:
            loop.selector.unregister(sock)
            sock.close()
        loop.close()
    return record

"""The detection gateway: an asyncio server mounting any ``Detector``.

Structure (one listening port, both dialects of ``protocol.py``):

- A reader per connection admits each payload line through the
  :class:`~repro.serve.admission.AdmissionController`, capturing the
  current :class:`~repro.serve.store.StoreVersion` **at admission time**
  — a concurrent hot-swap never changes which signature generation
  answers an already-admitted request.
- One drain task takes every queued job per wake-up and runs
  ``detector.inspect`` on each without awaiting (pure CPU, microseconds
  per payload — see Experiment 4 — so one coroutine suffices; process
  fan-out stays in ``repro.parallel`` for offline batches).
- A writer per connection emits responses strictly in request order, so
  clients correlate by position exactly like the offline engine's
  per-index ``EngineRun`` vectors.  It sends every response resolved at
  the head of its connection's :class:`_Outbox` with one write.

Per-connection pipelining is bounded: once ``max_inflight_per_connection``
responses are outstanding the reader stops reading, the socket buffer
fills, and the client blocks — backpressure reaches the edge without
any protocol support.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from collections import deque
from dataclasses import dataclass, field

from repro.serve.admission import (
    DEFAULT_COST_THRESHOLD,
    DEFAULT_HIGH_WATER,
    AdmissionController,
    BackpressurePolicy,
    QueueClosed,
    Shed,
    check_queue_settings,
)
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    HttpMessage,
    ProtocolError,
    answer_http,
    decode_framed_request,
    encode_detection,
    encode_error,
    encode_framed_request,
    encode_shed,
    encode_surface_detection,
    frame_header_size,
    is_http_request_line,
    reload_rejection,
)
from repro.obs.prometheus import render_exposition
from repro.serve.store import SignatureStore, StoreError, StoreVersion
from repro.serve.telemetry import Telemetry, surfaces_section
from repro.surfaces import (
    InjectionSurface,
    LEGACY_SURFACES,
    ScoreRequest,
    parse_surfaces,
    score_request,
)

__all__ = ["DetectionGateway", "GatewayConfig"]


@dataclass
class GatewayConfig:
    """Tunables of one gateway instance.

    Attributes:
        host: bind address.
        port: bind port (0 picks an ephemeral port, reported by ``start``).
        queue_bound: admission queue capacity.
        policy: full-queue behaviour (``block``, ``shed`` or ``cost``).
        max_inflight_per_connection: pipelining window per connection.
        drain_timeout: seconds to wait for queued work at shutdown.
        cost_threshold: ``cost`` policy shed threshold.
        high_water: queue-depth fraction where cost shedding begins.
        allow_reload: accept ``POST /reload`` on this gateway's own
            control plane.  Fleet shards set this False — their reloads
            arrive only through the supervisor's two-phase protocol, so
            a client reaching one shard's data port can never split the
            fleet across generations.
        surfaces: default injection-surface selection for framed
            requests that do not name one (``repro serve --surfaces``);
            frames carrying an explicit ``surfaces`` field always win.

    String ``policy``/``surfaces`` values are parsed here, once, and the
    queue settings checked, so a bad one fails where the config is
    built, before a fleet forks a shard.
    """

    host: str = "127.0.0.1"
    port: int = 0
    queue_bound: int = 1024
    policy: BackpressurePolicy | str = BackpressurePolicy.BLOCK
    max_inflight_per_connection: int = 64
    drain_timeout: float = 10.0
    cost_threshold: float = DEFAULT_COST_THRESHOLD
    high_water: float = DEFAULT_HIGH_WATER
    allow_reload: bool = True
    surfaces: tuple[InjectionSurface, ...] | str = LEGACY_SURFACES

    def __post_init__(self) -> None:
        check_queue_settings(self.queue_bound, self.high_water)
        self.policy = BackpressurePolicy(self.policy)
        if isinstance(self.surfaces, str):
            self.surfaces = parse_surfaces(self.surfaces)


@dataclass(slots=True)
class _Job:
    """One admitted inspection: work + the generation that answers it.

    ``work`` is the raw payload string (line protocol) or a
    :class:`~repro.surfaces.ScoreRequest` (framed full-request mode);
    the drain task branches on the type and fills in ``response``.
    """

    work: str | ScoreRequest
    snapshot: StoreVersion
    outbox: _Outbox
    admitted_at: float = field(default_factory=time.perf_counter)
    response: bytes | None = None


class _Outbox:
    """One connection's responses, in request order.

    Entries are admitted :class:`_Job` s (answered once the drain task
    sets their ``response``) and ready answers (``bytes``: protocol
    errors).  The drain task wakes the writer after answering; the
    writer then :meth:`take` s every answered entry at the head, so
    jobs serviced in one batch leave in one write.  At ``limit``
    entries the reader waits in :meth:`room` — the pipelining window.
    """

    __slots__ = ("_entries", "_limit", "_ready", "_room", "_closed")

    def __init__(self, limit: int) -> None:
        self._entries: deque[_Job | bytes] = deque()
        self._limit = max(1, limit)
        self._ready: asyncio.Future | None = None  # writer's wake-up
        self._room: asyncio.Future | None = None  # reader's wake-up
        self._closed = False

    def push(self, entry: _Job | bytes) -> None:
        """Append the next request's entry (call after :meth:`room`)."""
        self._entries.append(entry)
        if type(entry) is bytes:
            self.wake()

    def wake(self) -> None:
        """Tell a waiting writer that an entry was answered."""
        _release(self._ready)
        self._ready = None

    async def room(self) -> None:
        """Wait until the window has a free slot (or the outbox closed)."""
        while len(self._entries) >= self._limit and not self._closed:
            self._room = asyncio.get_running_loop().create_future()
            await self._room

    async def take(self) -> list[bytes]:
        """Every answered response at the head, in order; waits for at
        least one.  Returns ``[]`` once closed with nothing left."""
        entries = self._entries
        while True:
            taken = []
            while entries:
                head = entries[0]
                data = head if type(head) is bytes else head.response
                if data is None:
                    break
                entries.popleft()
                taken.append(data)
            if taken or (self._closed and not entries):
                _release(self._room)
                self._room = None
                return taken
            self._ready = asyncio.get_running_loop().create_future()
            await self._ready

    def close(self) -> None:
        """No more entries will be taken or pushed: the reader finished
        or the writer died.  Unblocks whichever side is waiting."""
        self._closed = True
        _release(self._ready)
        _release(self._room)


class DetectionGateway:
    """Serves a :class:`SignatureStore` over TCP/HTTP with admission
    control and telemetry.

    Args:
        store: versioned detector holder (hot-swapped via ``POST /reload``).
        config: server tunables.
        telemetry: metrics sink; created (and shared with the store, if
            the store has none) when omitted.
    """

    def __init__(
        self,
        store: SignatureStore,
        config: GatewayConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.store = store
        self.config = config or GatewayConfig()
        self.telemetry = telemetry or Telemetry()
        if store.telemetry is None:
            store.telemetry = self.telemetry
        self.admission = AdmissionController(
            queue_bound=self.config.queue_bound,
            policy=self.config.policy,
            telemetry=self.telemetry,
            cost_threshold=self.config.cost_threshold,
            high_water=self.config.high_water,
        )
        # Only the cost policy reads a price; block and shed never pay
        # for one.
        self._cost_fn = (
            _default_cost
            if self.admission.policy is BackpressurePolicy.COST
            else None
        )
        # Live-state gauges: evaluated at scrape time, so /metrics shows
        # the instantaneous queue depth and deployed signature generation
        # without the data plane pushing updates anywhere.
        registry = self.telemetry.registry
        registry.gauge(
            "repro_queue_depth",
            "Admission queue depth at scrape time.",
            function=lambda: float(self.admission.depth),
        )
        registry.gauge(
            "repro_store_version",
            "Deployed signature store generation.",
            function=lambda: float(self.store.version),
        )
        self._routes = {
            ("GET", "/healthz"): self._healthz,
            ("GET", "/stats"): self._stats,
            ("GET", "/metrics"): self._metrics,
            ("POST", "/reload"): self._reload,
            ("POST", "/inspect"): self._inspect,
        }
        self._server: asyncio.base_events.Server | None = None
        self._drainer: asyncio.Task | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._stopped = asyncio.Event()

    # -- lifecycle -----------------------------------------------------

    async def start(
        self, *, sock: socket.socket | None = None
    ) -> tuple[str, int]:
        """Bind, start the drain task, and return the bound ``(host, port)``.

        Args:
            sock: an already-bound listening socket to serve on instead
                of binding ``config.host:port`` — how fleet shards share
                one port (their own ``SO_REUSEPORT`` socket, or a
                fork-inherited listener).
        """
        if self._server is not None:
            raise RuntimeError("gateway already started")
        self._drainer = asyncio.get_running_loop().create_task(
            self._drain_loop()
        )
        # Stream limit above MAX_LINE_BYTES so our own oversized-line
        # handling (answer an error, keep the connection) gets to run
        # before asyncio's reader gives up.
        if sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=sock,
                limit=4 * MAX_LINE_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port,
                limit=4 * MAX_LINE_BYTES,
            )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def stop(self) -> None:
        """Graceful drain: stop accepting, service the queue, then close."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.admission.drain(self.config.drain_timeout)
        if self._drainer is not None:
            self._drainer.cancel()
            await asyncio.gather(self._drainer, return_exceptions=True)
        for writer in list(self._connections):
            writer.close()
        self._stopped.set()

    async def serve_forever(self) -> None:
        """Start and run until cancelled; drains on the way out."""
        host, port = await self.start()
        detector = self.store.current().detector.name
        print(
            f"repro.serve: detector={detector} on {host}:{port} "
            f"(queue={self.config.queue_bound}, "
            f"policy={self.config.policy.value})"
        )
        try:
            await self._stopped.wait()
        except asyncio.CancelledError:
            await self.stop()
            raise

    # -- data plane ----------------------------------------------------

    async def _admit(
        self,
        outbox: _Outbox,
        work: str | ScoreRequest,
        *,
        cost: float | None = None,
    ) -> None:
        """Admit one unit of work and append its entry to ``outbox``;
        the entry is answered with the response bytes (detection, shed
        notice, or error)."""
        job = _Job(work, self.store.current(), outbox)
        outbox.push(job)
        if cost is None and self._cost_fn is not None:
            cost = self._cost_fn(work if isinstance(work, str) else "")
        try:
            await self.admission.submit(job, cost=cost)
        except Shed as exc:
            job.response = encode_shed(str(exc))
            outbox.wake()
        except QueueClosed as exc:
            job.response = encode_error(str(exc))
            outbox.wake()

    async def _answer(self, work: str | ScoreRequest, **kwargs) -> dict:
        """Full admission path for one in-process request; the decoded
        response object."""
        outbox = _Outbox(1)
        await self._admit(outbox, work, **kwargs)
        outbox.close()
        (data,) = await outbox.take()
        return json.loads(data)

    async def inspect(self, payload: str) -> dict:
        """In-process client: run ``payload`` through the full admission
        path and return the decoded response object."""
        return await self._answer(payload)

    async def inspect_request(
        self,
        request,
        surfaces: tuple[InjectionSurface, ...] = LEGACY_SURFACES,
    ) -> dict:
        """In-process framed-mode client: full admission path, decoded
        surface-attributed response."""
        frame = encode_framed_request(request, surfaces)
        body_len = len(frame) - frame.index(b"\n") - 2
        return await self._answer(
            ScoreRequest(request=request, surfaces=surfaces),
            cost=float(body_len),
        )

    async def _drain_loop(self) -> None:
        """Service every queued job per wake-up, without awaiting.

        Nothing else runs until the batch is done, so each job still
        answers from its admission-time snapshot and the queue bound
        still counts admitted-but-unserviced work.  A writer woken by
        several of the batch's jobs runs once, after it.
        """
        while True:
            batch = await self.admission.get_batch()
            for job in batch:
                try:
                    job.response = self._service(job)
                except Exception as exc:  # detector bug: answer, don't die
                    self.telemetry.increment("errors")
                    job.response = encode_error(f"detector error: {exc}")
                job.outbox.wake()
            self.admission.task_done(len(batch))

    def _service(self, job: _Job) -> bytes:
        """Inspect one job with its admission-time snapshot and encode
        the response."""
        work, snapshot = job.work, job.snapshot
        started = time.perf_counter()
        if isinstance(work, str):
            detection = snapshot.detector.inspect(work)
        else:
            detection = score_request(
                snapshot.detector.inspect, work.request, work.surfaces
            )
        finished = time.perf_counter()
        self.telemetry.record_inspection(
            detection.alert, finished - started, finished - job.admitted_at
        )
        if isinstance(work, str):
            return encode_detection(detection, snapshot.version)
        self.telemetry.record_surfaces(detection)
        return encode_surface_detection(detection, snapshot.version)

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.telemetry.increment("connections")
        self._connections.add(writer)
        try:
            try:
                first = await reader.readline()
            except ValueError:  # line exceeded even the stream limit
                self.telemetry.increment("protocol_errors")
                writer.write(encode_error("line too long"))
                await writer.drain()
                return
            if not first:
                return
            if is_http_request_line(first):
                await answer_http(
                    reader, writer, self._routes, self.telemetry, first
                )
            else:
                await self._serve_lines(reader, writer, first)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_lines(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        first: bytes,
    ) -> None:
        """The line protocol: one payload per line, responses in order."""
        outbox = _Outbox(self.config.max_inflight_per_connection)
        flusher = asyncio.get_running_loop().create_task(
            self._flush_responses(outbox, writer)
        )
        line = first
        try:
            while line:
                await outbox.room()
                frame_size = None
                bad_header = None
                try:
                    frame_size = frame_header_size(line)
                except ProtocolError as exc:
                    # A malformed frame header: the client meant to
                    # frame, so treating the line as a payload would be
                    # wrong; answer the error and resync at next line.
                    bad_header = exc
                if bad_header is not None:
                    self.telemetry.increment("protocol_errors")
                    outbox.push(encode_error(str(bad_header)))
                elif frame_size is not None:
                    await self._serve_frame(reader, outbox, frame_size)
                elif len(line) > MAX_LINE_BYTES:
                    self.telemetry.increment("protocol_errors")
                    outbox.push(encode_error("line too long"))
                else:
                    # Every line is one payload — including the empty
                    # line: a request with no query string is still a
                    # request the offline engine would score, and
                    # skipping it would desync response ordering.
                    payload = line.rstrip(b"\r\n").decode(
                        "utf-8", errors="replace"
                    )
                    await self._admit(outbox, payload)
                line = await _read_line(reader)
                while line is None:
                    # An oversized line was skipped through its newline:
                    # answer it once, in order, and read the next one.
                    self.telemetry.increment("protocol_errors")
                    await outbox.room()
                    outbox.push(encode_error("line too long"))
                    line = await _read_line(reader)
        finally:
            outbox.close()
            await flusher

    async def _serve_frame(
        self,
        reader: asyncio.StreamReader,
        outbox: _Outbox,
        frame_size: int,
    ) -> None:
        """Read and admit one framed full-request message.

        The header line is already consumed; this reads exactly the
        declared body bytes plus the line-aligning newline, decodes the
        request, and admits a surface-aware job priced by body size.
        """
        body = await reader.readexactly(frame_size)
        # The frame body is followed by a newline that keeps the
        # connection line-aligned; absorb it (tolerating EOF).
        trailer = await reader.readline()
        if trailer not in (b"\n", b"\r\n", b""):
            self.telemetry.increment("protocol_errors")
            outbox.push(encode_error("frame body not newline-terminated"))
            return
        try:
            request, surfaces = decode_framed_request(
                body, default_surfaces=self.config.surfaces
            )
        except ProtocolError as exc:
            self.telemetry.increment("protocol_errors")
            outbox.push(encode_error(str(exc)))
            return
        self.telemetry.increment("framed")
        await self._admit(
            outbox,
            ScoreRequest(request=request, surfaces=surfaces),
            cost=float(frame_size),
        )

    @staticmethod
    async def _flush_responses(
        outbox: _Outbox, writer: asyncio.StreamWriter
    ) -> None:
        """Send each run of answered responses with one write."""
        try:
            while True:
                taken = await outbox.take()
                if not taken:
                    return
                writer.write(b"".join(taken))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            return
        finally:
            outbox.close()

    # -- control plane (routes of protocol.answer_http) ---------------

    async def _healthz(self, message: HttpMessage) -> tuple[int, dict]:
        current = self.store.current()
        return 200, {
            "status": "draining" if self.admission.closed else "ok",
            "detector": current.detector.name,
            "version": current.version,
            "queue_depth": self.admission.depth,
        }

    async def _stats(self, message: HttpMessage) -> tuple[int, dict]:
        current = self.store.current()
        return 200, {
            "store": {
                "detector": current.detector.name,
                "version": current.version,
                "source": current.source,
            },
            "queue_depth": self.admission.depth,
            "surfaces": surfaces_section(
                self.telemetry.raw_state()["counters"]
            ),
            **self.telemetry.snapshot(),
        }

    async def _metrics(self, message: HttpMessage) -> tuple[int, str]:
        return 200, render_exposition(self.telemetry.registry)

    async def _reload(self, message: HttpMessage) -> tuple[int, dict]:
        if not self.config.allow_reload:
            return 403, {
                "error": "reload is fleet-managed on this shard; "
                         "POST /reload to the supervisor control "
                         "plane instead",
                "version": self.store.version,
            }
        try:
            text, source = self.store.reload_input(message.body)
            published = self.store.swap_json(text, source=source)
        except StoreError as exc:
            return 400, reload_rejection(exc, exc.reason, self.store.version)
        return 200, {
            "version": published.version,
            "source": published.source,
            "detector": published.detector.name,
        }

    async def _inspect(self, message: HttpMessage) -> tuple[int, dict]:
        result = await self.inspect(message.body)
        if result.get("shed") or "error" in result:
            return 503, result
        return 200, result


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next line (``b""`` at EOF), or ``None`` for a line longer
    than the stream limit, discarded up to and including its newline.

    ``StreamReader.readline`` raises on such a line after dropping only
    what it has buffered, so the line's unread tail would come back as
    lines of its own; this skips through to the newline instead.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError as exc:
        skip = exc.consumed
    while True:
        # The overrun left *skip* bytes buffered; drop them and look for
        # the newline in what follows.
        await reader.readexactly(skip)
        try:
            await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as exc:
            skip = exc.consumed
        else:
            return None


def _default_cost(payload: str) -> float:
    """Default request price: the payload's UTF-8 byte length."""
    return float(len(payload.encode("utf-8", errors="replace")))


def _release(waiter: asyncio.Future | None) -> None:
    """Resume the coroutine parked on ``waiter``, if any."""
    if waiter is not None and not waiter.done():
        waiter.set_result(None)

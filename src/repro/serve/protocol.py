"""Wire protocol of the detection gateway: line-delimited TCP plus HTTP.

One listening port speaks both dialects, disambiguated by the first
line of a connection:

- **Line protocol** (the data plane): every line the client sends is one
  detector-visible payload (exactly what
  :meth:`~repro.http.request.HttpRequest.payload` yields — query string
  plus form body, which never contains a newline).  The gateway answers
  each line with one JSON object: ``{"alert": bool, "score": float,
  "matched": [sids], "version": n}``, or ``{"shed": true, ...}`` when
  admission control refused the request.
- **Framed full-request mode** (wire format v2, same data plane): a line
  shaped like ``REPRO-FRAME/2 <nbytes>`` announces one whole HTTP
  request as an ``nbytes``-long JSON document (method, path, query,
  headers, body, optional ``stored`` pairs and ``surfaces`` selection)
  followed by a newline.  The gateway extracts the selected injection
  surfaces, scores each one, and answers with one JSON line carrying the
  legacy fields **plus** surface attribution.  Frames and plain lines
  may be interleaved on one connection; responses stay in request order.
- **HTTP/1.x** (the control plane): a first line shaped like
  ``METHOD /path HTTP/1.x`` switches the connection to one-shot HTTP.
  Routes: ``GET /healthz``, ``GET /stats``, ``GET /metrics``
  (Prometheus text format), ``POST /reload``, ``POST /inspect``.
  :func:`answer_http` is the one read/dispatch/respond path for both
  the gateway's port and the fleet supervisor's control port; each
  server supplies only its ``(method, path)`` route table.

Keeping framing in one module means the gateway, the load generator,
and the tests all parse and emit identical bytes.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass, field
from contextlib import suppress
from typing import TYPE_CHECKING, Awaitable, Callable

from repro.http.request import HttpRequest
from repro.ids.rules import Detection
from repro.obs.prometheus import CONTENT_TYPE
from repro.surfaces import (
    InjectionSurface,
    LEGACY_SURFACES,
    format_surfaces,
    parse_surfaces,
)

if TYPE_CHECKING:
    from repro.serve.telemetry import Telemetry

__all__ = [
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "HttpMessage",
    "ProtocolError",
    "answer_http",
    "decode_framed_request",
    "decode_response",
    "encode_detection",
    "encode_error",
    "encode_framed_request",
    "encode_shed",
    "encode_surface_detection",
    "frame_header_size",
    "http_response",
    "is_http_request_line",
    "read_http_message",
    "reload_rejection",
]

_HTTP_REQUEST_LINE = re.compile(
    rb"^[A-Z]+ \S+ HTTP/1\.[01]\r?\n?$"
)

MAX_LINE_BYTES = 64 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Most header lines one control-plane request may carry, and most
#: bytes all of them may hold together; each line is also bounded by
#: the server's stream limit.
MAX_HEADER_LINES = 100
MAX_HEAD_BYTES = MAX_LINE_BYTES

#: Seconds a server keeps discarding input after answering a malformed
#: request: closing with unread input makes the kernel reset the
#: connection, and the client would lose the 400.
LINGER_SECONDS = 1.0

#: Wire format v2: the frame header magic.  The version is part of the
#: magic so a v3 framing can coexist on the same port; a header the
#: gateway does not recognize falls through to the line protocol, where
#: it scores as an (inert) payload — old gateways never crash on new
#: clients, they just answer ``alert: false``.
FRAME_MAGIC = b"REPRO-FRAME/2"
FRAME_VERSION = 2
MAX_FRAME_BYTES = MAX_BODY_BYTES


class ProtocolError(ValueError):
    """Malformed input on either dialect."""


def is_http_request_line(line: bytes) -> bool:
    """True when ``line`` opens an HTTP/1.x exchange rather than the
    line protocol."""
    return _HTTP_REQUEST_LINE.match(line) is not None


def encode_detection(detection: Detection, version: int) -> bytes:
    """One data-plane response line for a serviced inspection."""
    return (
        json.dumps(
            {
                "alert": bool(detection.alert),
                "score": float(detection.score),
                "matched": [int(s) for s in detection.matched_sids],
                "version": version,
            },
            separators=(",", ":"),
        ).encode()
        + b"\n"
    )


def encode_shed(reason: str) -> bytes:
    """Response line for a request refused by admission control."""
    return (
        json.dumps(
            {"shed": True, "error": reason}, separators=(",", ":")
        ).encode()
        + b"\n"
    )


def encode_error(reason: str) -> bytes:
    """Response line for a request the gateway could not process."""
    return (
        json.dumps(
            {"error": reason}, separators=(",", ":")
        ).encode()
        + b"\n"
    )


def frame_header_size(line: bytes) -> int | None:
    """Declared frame-body size when ``line`` is a v2 frame header.

    Returns ``None`` for anything that is not a frame header (the line
    then belongs to the plain line protocol).

    Raises:
        ProtocolError: a recognized header with a malformed or
            out-of-bounds size — the client *meant* to frame, so
            treating the line as a payload would desync the stream.
    """
    if not line.startswith(FRAME_MAGIC + b" "):
        return None
    rest = line[len(FRAME_MAGIC) + 1:].strip()
    try:
        size = int(rest)
    except ValueError as exc:
        raise ProtocolError(f"bad frame header: {line!r}") from exc
    if size < 0 or size > MAX_FRAME_BYTES:
        raise ProtocolError(f"bad frame size: {size}")
    return size


def encode_framed_request(
    request: HttpRequest,
    surfaces: tuple[InjectionSurface, ...] | None = None,
) -> bytes:
    """One framed (wire format v2) full-request message.

    The frame body is compact JSON; a trailing newline keeps the
    connection line-aligned for whatever message follows.
    """
    document: dict = {
        "v": FRAME_VERSION,
        "method": request.method,
        "path": request.path,
        "query": request.query,
        "headers": dict(request.headers),
        "body": request.body,
    }
    if getattr(request, "stored", ()):
        document["stored"] = [list(pair) for pair in request.stored]
    if surfaces is not None:
        document["surfaces"] = format_surfaces(surfaces)
    body = json.dumps(document, separators=(",", ":")).encode()
    return FRAME_MAGIC + b" " + str(len(body)).encode() + b"\n" + body + b"\n"


def decode_framed_request(
    data: bytes,
    *,
    default_surfaces: tuple[InjectionSurface, ...] = LEGACY_SURFACES,
) -> tuple[HttpRequest, tuple[InjectionSurface, ...]]:
    """Parse one frame body into a request plus its surface selection.

    A frame without an explicit ``surfaces`` list gets
    ``default_surfaces`` — the legacy query+form selection unless the
    server was configured otherwise (``repro serve --surfaces``), so a
    framed client that only upgraded its framing sees exactly the
    verdicts the line protocol gave it.

    Raises:
        ProtocolError: undecodable JSON, wrong version, wrong field
            types, or an unknown surface name.
    """
    try:
        document = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"bad frame body: {exc}") from exc
    if not isinstance(document, dict):
        raise ProtocolError("frame body must be a JSON object")
    if document.get("v") != FRAME_VERSION:
        raise ProtocolError(
            f"unsupported frame version: {document.get('v')!r}"
        )
    headers = document.get("headers", {})
    stored_raw = document.get("stored", [])
    if not isinstance(headers, dict) or not isinstance(stored_raw, list):
        raise ProtocolError("bad frame field types")
    try:
        stored = tuple(
            (str(pair[0]), str(pair[1])) for pair in stored_raw
        )
    except (IndexError, TypeError) as exc:
        raise ProtocolError(f"bad stored pairs: {exc}") from exc
    request = HttpRequest(
        method=str(document.get("method", "GET")).upper(),
        host=str(document.get("host", "localhost")),
        path=str(document.get("path", "/")),
        query=str(document.get("query", "")),
        headers={
            str(k).lower(): str(v) for k, v in headers.items()
        },
        body=str(document.get("body", "")),
        stored=stored,
    )
    selection = document.get("surfaces")
    if selection is None:
        return request, default_surfaces
    try:
        return request, parse_surfaces(str(selection))
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def encode_surface_detection(detection, version: int) -> bytes:
    """Response line for a framed request: legacy fields + attribution.

    *detection* is a :class:`repro.surfaces.SurfaceDetection`; the first
    four keys are exactly :func:`encode_detection`'s, so a client that
    only reads the legacy shape can ignore the rest.
    """
    attribution = detection.attribution()
    return (
        json.dumps(
            {
                "alert": bool(detection.alert),
                "score": float(detection.score),
                "matched": [int(s) for s in detection.matched_sids],
                "version": version,
                "surfaces": attribution["surfaces"],
                "verdicts": attribution["verdicts"],
            },
            separators=(",", ":"),
        ).encode()
        + b"\n"
    )


def decode_response(line: bytes) -> dict:
    """Client side: parse one data-plane response line.

    Raises:
        ProtocolError: when the line is not a JSON object.
    """
    try:
        decoded = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad response line: {exc}") from exc
    if not isinstance(decoded, dict):
        raise ProtocolError(f"bad response line: {line!r}")
    return decoded


@dataclass
class HttpMessage:
    """A parsed one-shot HTTP request.

    Attributes:
        method: upper-cased verb.
        path: request target (no host).
        headers: lower-cased header names.
        body: decoded body text.
    """

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: str = ""


async def _head_line(reader: asyncio.StreamReader) -> bytes:
    """One request-head line; a line past the stream limit is a
    protocol error, not a crash."""
    try:
        return await reader.readline()
    except ValueError as exc:
        raise ProtocolError("request head line too long") from exc


async def read_http_message(
    reader: asyncio.StreamReader, first_line: bytes
) -> HttpMessage:
    """Read the remainder of an HTTP request whose request line was
    already consumed.

    Raises:
        ProtocolError: a request line that is not HTTP/1.x, a malformed
            or over-long head, more than :data:`MAX_HEADER_LINES` header
            lines or :data:`MAX_HEAD_BYTES` header bytes, or an oversized
            body.
    """
    if not is_http_request_line(first_line):
        raise ProtocolError(
            "control plane speaks HTTP only; payload lines go to the "
            "data port"
        )
    parts = first_line.decode("latin-1").split()
    method, path = parts[0], parts[1]
    headers: dict[str, str] = {}
    lines = head_bytes = 0
    while True:
        line = await _head_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        lines += 1
        head_bytes += len(line)
        if lines > MAX_HEADER_LINES:
            raise ProtocolError(
                f"more than {MAX_HEADER_LINES} header lines"
            )
        if head_bytes > MAX_HEAD_BYTES:
            raise ProtocolError(
                f"more than {MAX_HEAD_BYTES} header bytes"
            )
        text = line.decode("latin-1").rstrip("\r\n")
        if ":" not in text:
            raise ProtocolError(f"malformed header line: {text!r}")
        name, value = text.split(":", 1)
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as exc:
        raise ProtocolError(
            f"bad content-length: {length_text!r}"
        ) from exc
    if length > MAX_BODY_BYTES:
        raise ProtocolError(f"body too large: {length} bytes")
    body = b""
    if length > 0:
        body = await reader.readexactly(length)
    return HttpMessage(
        method=method, path=path, headers=headers,
        body=body.decode("utf-8", errors="replace"),
    )


async def answer_http(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    routes: dict[tuple[str, str], Callable[[HttpMessage], Awaitable]],
    telemetry: Telemetry,
    first_line: bytes | None = None,
) -> None:
    """Read one HTTP request (from its first line unless the caller
    consumed that), route it by ``(method, path)``, write the answer.

    A malformed request is a 400 counted in ``protocol_errors``; a path
    in the table under another method is 405, any other path 404.  A
    connection that closes before sending anything gets no answer.
    """
    try:
        if first_line is None:
            first_line = await _head_line(reader)
            if not first_line:
                return
        message = await read_http_message(reader, first_line)
    except (ProtocolError, asyncio.IncompleteReadError) as exc:
        telemetry.increment("protocol_errors")
        writer.write(http_response(400, {"error": str(exc)}))
        writer.write_eof()
        with suppress(asyncio.TimeoutError):
            await asyncio.wait_for(_discard(reader), LINGER_SECONDS)
        return
    route = routes.get((message.method, message.path))
    if route is not None:
        status, payload = await route(message)
    elif any(path == message.path for _, path in routes):
        status, payload = 405, {
            "error": f"{message.method} not allowed on {message.path}"
        }
    else:
        status, payload = 404, {"error": f"no route {message.path}"}
    writer.write(http_response(status, payload))
    await writer.drain()


async def _discard(reader: asyncio.StreamReader) -> None:
    """Read and drop input until EOF, at most :data:`MAX_BODY_BYTES`."""
    discarded = 0
    while discarded < MAX_BODY_BYTES:
        chunk = await reader.read(MAX_LINE_BYTES)
        if not chunk:
            return
        discarded += len(chunk)


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


def reload_rejection(error: Exception, reason: str, version: int) -> dict:
    """The ``POST /reload`` answer for a refused candidate: why, and
    the generation that keeps serving."""
    return {
        "error": str(error), "reason": reason, "rejected": True,
        "version": version,
    }


def http_response(status: int, payload: dict | str) -> bytes:
    """Serialize a one-shot HTTP response (connection closes after).

    A dict payload renders as JSON; a string payload is the
    ``/metrics`` route's Prometheus text exposition, sent verbatim.
    """
    if isinstance(payload, str):
        body = payload.encode()
        media = CONTENT_TYPE
    else:
        body = json.dumps(payload, indent=1).encode()
        media = "application/json"
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {media}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body

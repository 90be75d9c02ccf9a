"""HTTP request model and raw-request parsing.

pSigene's unit of analysis is a single HTTP request: during crawling and
testing "what we see ... is the entire HTTP request payload and we extract the
SQL query from it by leaving out the HTTP address, the port, and the path"
(Section II-A).  :class:`HttpRequest` is that unit.  The paper's extraction —
query string plus urlencoded form body, flattened — survives as
:meth:`HttpRequest.flat_payload`; the surface-aware successor is
:meth:`HttpRequest.surfaces`, which yields ``(surface, locator, value)``
triples across every injection channel of the request (see
:mod:`repro.surfaces`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.http.url import parse_query, split_url


class RequestParseError(ValueError):
    """Raised when a raw HTTP request cannot be parsed."""


@dataclass(frozen=True)
class HttpRequest:
    """One HTTP request as seen on the wire.

    Attributes:
        method: HTTP verb, upper-cased (``GET``, ``POST``...).
        host: target host, no port.
        path: URL path, always beginning with ``/``.
        query: raw (undecoded) query string, without the leading ``?``.
        headers: request headers; names lower-cased.
        body: request body; for form POSTs this carries the parameter string.
        label: optional ground-truth tag (``"attack"``/``"benign"``) used by
            the evaluation harness; it is never visible to detectors.
        stored: previously-stored ``(key, value)`` pairs this request
            replays — the second-order injection channel, where the attack
            entered on an earlier request and resurfaces here.
    """

    method: str = "GET"
    host: str = "localhost"
    path: str = "/"
    query: str = ""
    headers: dict[str, str] = field(default_factory=dict)
    body: str = ""
    label: str | None = None
    stored: tuple[tuple[str, str], ...] = ()

    def surfaces(self, selection=None) -> list:
        """Detector-visible values across every injection channel.

        Returns :class:`repro.surfaces.SurfaceValue` triples —
        ``(surface, locator, value)`` — in canonical extraction order.
        *selection* restricts which surfaces are walked (a tuple of
        :class:`repro.surfaces.InjectionSurface`); ``None`` walks all.
        This supersedes :meth:`payload`, which flattened the query and
        form channels into one string and ignored the rest.
        """
        from repro.surfaces import extract_surfaces

        return extract_surfaces(self, selection)

    def flat_payload(self) -> str:
        """The paper's flattened payload: query string plus form body.

        For code paths that genuinely want the legacy two-channel
        extraction (the line protocol, corpus serialization).  New
        detection code should use :meth:`surfaces` and score per surface.
        """
        if self.body and self._is_form_body():
            if self.query:
                return self.query + "&" + self.body
            return self.body
        return self.query

    def _is_form_body(self) -> bool:
        ctype = self.headers.get("content-type", "")
        return (
            "x-www-form-urlencoded" in ctype
            or (not ctype and self.method == "POST")
        )

    def parameters(self) -> list[tuple[str, str]]:
        """Ordered, still-encoded ``(name, value)`` pairs of the payload."""
        return parse_query(self.flat_payload())

    def url(self) -> str:
        """Reassemble the request URL (scheme-less)."""
        if self.query:
            return f"{self.host}{self.path}?{self.query}"
        return f"{self.host}{self.path}"

    @classmethod
    def from_url(
        cls,
        url: str,
        *,
        method: str = "GET",
        label: str | None = None,
    ) -> "HttpRequest":
        """Build a request from a URL string."""
        host, path, query = split_url(url)
        return cls(method=method.upper(), host=host, path=path, query=query, label=label)

    @classmethod
    def parse(cls, raw: str, *, label: str | None = None) -> "HttpRequest":
        """Parse a raw HTTP/1.x request string.

        Tolerates both ``\\r\\n`` and ``\\n`` line endings.  Raises
        :class:`RequestParseError` on a malformed request line.
        """
        text = raw.replace("\r\n", "\n")
        if "\n\n" in text:
            head, body = text.split("\n\n", 1)
        else:
            head, body = text, ""
        lines = head.split("\n")
        parts = lines[0].split()
        if len(parts) < 2:
            raise RequestParseError(f"malformed request line: {lines[0]!r}")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line.strip():
                continue
            if ":" not in line:
                raise RequestParseError(f"malformed header line: {line!r}")
            name, value = line.split(":", 1)
            headers[name.strip().lower()] = value.strip()
        host, path, query = split_url(target)
        if host in ("", "/") or target.startswith("/"):
            host = headers.get("host", "localhost").split(":")[0]
            _, path, query = split_url("x://" + headers.get("host", "localhost") + target)
        return cls(
            method=method,
            host=host,
            path=path,
            query=query,
            headers=headers,
            body=body.strip("\n"),
            label=label,
        )

    def to_raw(self) -> str:
        """Serialize back to a raw HTTP/1.1 request string."""
        target = self.path + (f"?{self.query}" if self.query else "")
        lines = [f"{self.method} {target} HTTP/1.1", f"Host: {self.host}"]
        for name, value in self.headers.items():
            if name == "host":
                continue
            lines.append(f"{name.title()}: {value}")
        raw = "\r\n".join(lines) + "\r\n\r\n"
        if self.body:
            raw += self.body
        return raw

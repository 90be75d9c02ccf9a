"""Per-surface extractors: structured payloads → ``SurfaceValue`` triples.

Each extractor walks one channel of a request and yields the raw values
a detector should score, with locator provenance.  Extraction never
raises on attacker-controlled input — a malformed JSON body or a bogus
multipart boundary still yields *something* to score (the undecodable
text itself), mirroring how the URL codec treats malformed escapes.

The extractors are pure functions of the request object; they only read
the attributes :class:`~repro.http.request.HttpRequest` declares
(``query``, ``headers``, ``body``, ``method``, ``stored``), so anything
shaped like a request can be extracted from.
"""

from __future__ import annotations

import json

from repro.surfaces.model import (
    InjectionSurface,
    LEGACY_SURFACES,
    SurfaceValue,
)

__all__ = [
    "INSPECTED_HEADER_SKIP",
    "extract_surfaces",
    "legacy_flatten",
    "scoring_units",
]

#: Headers never inspected as an injection surface: structural framing
#: (host/length/encoding) plus ``cookie``, which the COOKIE surface
#: parses properly instead of scoring as one opaque blob.
INSPECTED_HEADER_SKIP: frozenset[str] = frozenset({
    "host",
    "content-length",
    "content-type",
    "cookie",
    "connection",
    "transfer-encoding",
    "accept-encoding",
    "keep-alive",
    "upgrade",
    "expect",
})

#: Nested-JSON recursion cap: a string leaf that itself parses as JSON
#: is re-walked (the nesting evasion), but only this deep.
_MAX_JSON_DEPTH = 6


def _content_type(request) -> str:
    return request.headers.get("content-type", "")


def _is_form_body(request) -> bool:
    """The legacy form-body condition, verbatim (parity-critical)."""
    ctype = _content_type(request)
    return (
        "x-www-form-urlencoded" in ctype
        or (not ctype and request.method == "POST")
    )


# -- query / form (the paper's channels) -------------------------------


def _extract_query(request) -> list[SurfaceValue]:
    if not request.query:
        return []
    return [SurfaceValue(
        InjectionSurface.QUERY, "query-string", request.query
    )]


def _extract_form(request) -> list[SurfaceValue]:
    if not (request.body and _is_form_body(request)):
        return []
    return [SurfaceValue(
        InjectionSurface.FORM_BODY, "form-body", request.body
    )]


# -- JSON body ---------------------------------------------------------


def _walk_json(node, path: str, depth: int, out: list[SurfaceValue]) -> None:
    """Harvest every string leaf of *node*, recording its JSON path.

    A string leaf that itself parses as a JSON object or array is walked
    again with a ``!json`` locator step — the nesting trick of smuggling
    a payload inside a JSON-encoded string survives one ``json.loads``
    but not a recursive harvest.
    """
    if isinstance(node, dict):
        for key, value in node.items():
            _walk_json(value, f"{path}.{key}", depth, out)
        return
    if isinstance(node, list):
        for index, value in enumerate(node):
            _walk_json(value, f"{path}[{index}]", depth, out)
        return
    if isinstance(node, str):
        out.append(SurfaceValue(InjectionSurface.JSON_BODY, path, node))
        stripped = node.strip()
        if depth < _MAX_JSON_DEPTH and stripped[:1] in ("{", "["):
            try:
                nested = json.loads(stripped)
            except (json.JSONDecodeError, RecursionError):
                return
            if isinstance(nested, (dict, list)):
                _walk_json(nested, f"{path}!json", depth + 1, out)


def _extract_json(request) -> list[SurfaceValue]:
    if not request.body or "json" not in _content_type(request):
        return []
    try:
        document = json.loads(request.body)
    except (json.JSONDecodeError, RecursionError):
        # Malformed JSON is still attacker-chosen text reaching the
        # app's parser — score the raw body rather than going blind.
        return [SurfaceValue(
            InjectionSurface.JSON_BODY, "$!malformed", request.body
        )]
    out: list[SurfaceValue] = []
    _walk_json(document, "$", 0, out)
    return out


# -- multipart ---------------------------------------------------------


def _multipart_boundary(ctype: str) -> str | None:
    for param in ctype.split(";")[1:]:
        name, _, value = param.strip().partition("=")
        if name.strip().lower() == "boundary":
            value = value.strip()
            if value[:1] == '"' and value[-1:] == '"':
                value = value[1:-1]
            return value or None
    return None


def _disposition_params(head: str) -> dict[str, str]:
    """``name`` / ``filename`` out of a Content-Disposition header."""
    params: dict[str, str] = {}
    for line in head.split("\n"):
        if not line.lower().lstrip().startswith("content-disposition"):
            continue
        for param in line.split(";")[1:]:
            key, _, value = param.strip().partition("=")
            value = value.strip().rstrip("\r")
            if value[:1] == '"' and value[-1:] == '"':
                value = value[1:-1]
            params[key.strip().lower()] = value
    return params


def _extract_multipart(request) -> list[SurfaceValue]:
    ctype = _content_type(request)
    if not request.body or "multipart/" not in ctype:
        return []
    boundary = _multipart_boundary(ctype)
    if boundary is None:
        # No boundary parameter: the body cannot be split, but it is
        # still attacker-controlled bytes the app may try to parse.
        return [SurfaceValue(
            InjectionSurface.MULTIPART, "part:!unbounded", request.body
        )]
    out: list[SurfaceValue] = []
    chunks = request.body.split("--" + boundary)
    # chunks[0] is the preamble; a chunk of "--..." is the terminator.
    for index, chunk in enumerate(chunks[1:]):
        if chunk.startswith("--"):
            break
        part = chunk.lstrip("\r\n")
        for sep in ("\r\n\r\n", "\n\n"):
            if sep in part:
                head, content = part.split(sep, 1)
                break
        else:
            head, content = "", part
        params = _disposition_params(head)
        name = params.get("name", f"part{index}")
        filename = params.get("filename")
        if filename:
            out.append(SurfaceValue(
                InjectionSurface.MULTIPART,
                f"part:{name}:filename",
                filename,
            ))
        content = content.rstrip("\r\n")
        if content or not filename:
            out.append(SurfaceValue(
                InjectionSurface.MULTIPART, f"part:{name}", content
            ))
    return out


# -- cookies -----------------------------------------------------------


def _extract_cookies(request) -> list[SurfaceValue]:
    header = request.headers.get("cookie", "")
    if not header:
        return []
    out: list[SurfaceValue] = []
    seen: dict[str, int] = {}
    for chunk in header.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, value = chunk.partition("=")
        name = name.strip()
        repeat = seen.get(name, 0)
        seen[name] = repeat + 1
        # Duplicate cookie names are legal on the wire and a classic
        # smuggling vector; each occurrence gets its own locator.
        locator = name if repeat == 0 else f"{name}#{repeat + 1}"
        out.append(SurfaceValue(
            InjectionSurface.COOKIE, locator, value.strip()
        ))
    return out


# -- headers -----------------------------------------------------------


def _extract_headers(request) -> list[SurfaceValue]:
    out: list[SurfaceValue] = []
    for name, value in request.headers.items():
        if name in INSPECTED_HEADER_SKIP or not value:
            continue
        out.append(SurfaceValue(InjectionSurface.HEADER, name, value))
    return out


# -- second order ------------------------------------------------------


def _extract_second_order(request) -> list[SurfaceValue]:
    out: list[SurfaceValue] = []
    for key, value in getattr(request, "stored", ()):
        out.append(SurfaceValue(
            InjectionSurface.SECOND_ORDER, f"stored:{key}", value
        ))
    return out


_EXTRACTORS = {
    InjectionSurface.QUERY: _extract_query,
    InjectionSurface.FORM_BODY: _extract_form,
    InjectionSurface.JSON_BODY: _extract_json,
    InjectionSurface.MULTIPART: _extract_multipart,
    InjectionSurface.COOKIE: _extract_cookies,
    InjectionSurface.HEADER: _extract_headers,
    InjectionSurface.SECOND_ORDER: _extract_second_order,
}


def extract_surfaces(
    request,
    surfaces: tuple[InjectionSurface, ...] | None = None,
) -> list[SurfaceValue]:
    """All ``(surface, locator, value)`` triples of *request*.

    Surfaces are walked in canonical order (query, form, json,
    multipart, cookie, header, second-order) regardless of the order
    *surfaces* lists them, so extraction output is deterministic for a
    given selection.
    """
    selected = (
        frozenset(surfaces) if surfaces is not None
        else frozenset(InjectionSurface)
    )
    out: list[SurfaceValue] = []
    for surface in InjectionSurface:
        if surface in selected:
            out.extend(_EXTRACTORS[surface](request))
    return out


def legacy_flatten(request) -> str:
    """The paper's flattened payload: query string plus form body.

    Byte-identical to ``HttpRequest.flat_payload()`` — the
    query/form surface values joined in legacy order — which the parity
    test and the ``surfaces-legacy-parity`` conformance path pin.
    """
    values = [
        sv.value
        for sv in extract_surfaces(request, LEGACY_SURFACES)
        if sv.value
    ]
    return "&".join(values)


def scoring_units(
    request,
    surfaces: tuple[InjectionSurface, ...] | None = None,
) -> list[SurfaceValue]:
    """The values a detector actually scores for one request.

    Identical to :func:`extract_surfaces` except for the paper's
    channels: the query string and the urlencoded form body are scored
    as **one** flattened unit (one SQL query can span both — that is the
    paper's extraction, and scoring them separately would change legacy
    verdicts).  The merged unit is always emitted when either legacy
    surface is selected, even when empty: the offline engine scores the
    empty payload too, and verdict parity requires the same here.
    """
    selection = surfaces if surfaces is not None else LEGACY_SURFACES
    selected = frozenset(selection)
    units: list[SurfaceValue] = []
    legacy_selected = any(s in selected for s in LEGACY_SURFACES)
    if legacy_selected:
        query = request.query if InjectionSurface.QUERY in selected else ""
        form_values = (
            [sv.value for sv in _extract_form(request)]
            if InjectionSurface.FORM_BODY in selected else []
        )
        parts = [v for v in [query, *form_values] if v]
        surface = (
            InjectionSurface.FORM_BODY
            if form_values and not query
            else InjectionSurface.QUERY
        )
        locator = "query-string"
        if form_values and query:
            locator = "query-string+form-body"
        elif form_values:
            locator = "form-body"
        units.append(SurfaceValue(surface, locator, "&".join(parts)))
    for surface in InjectionSurface:
        if surface in LEGACY_SURFACES or surface not in selected:
            continue
        units.extend(_EXTRACTORS[surface](request))
    return units

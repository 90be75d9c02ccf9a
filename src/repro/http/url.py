"""URL encoding/decoding and query-string handling, implemented from scratch.

The paper extracts the SQL query from the HTTP request payload "by leaving out
the HTTP address, the port, and the path (typically a ``?`` indicates the start
of the query string)" (Section II-A).  This module provides the low-level URL
machinery that extraction rests on: percent decoding/encoding, ``+``-as-space
handling, and query-string splitting into ordered parameter pairs.

Nothing here depends on :mod:`urllib`; the codec is part of the reproduced
substrate so its behaviour (e.g. tolerance of malformed escapes, double
encoding) is fully under our control and testable.
"""

from __future__ import annotations

import re

#: Characters that never need escaping in a query component (RFC 3986
#: unreserved set).  Everything else is percent-encoded by :func:`quote`.
_UNRESERVED = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)

# Only ASCII hex digits form an escape: the classes are spelled out, not
# ``\d``/IGNORECASE, so ``%٣٣`` (Arabic-Indic digits) stays verbatim.
_ESCAPE = re.compile(r"%[0-9a-fA-F]{2}")
_ESCAPE_OR_PLUS = re.compile(r"%[0-9a-fA-F]{2}|\+")

_HEX = "0123456789abcdefABCDEF"

#: Escape text (any letter case) → decoded character; ``"+"`` → space is
#: only reachable through ``_ESCAPE_OR_PLUS``.
_DECODED: dict[str, str] = {
    f"%{hi}{lo}": chr(int(hi + lo, 16)) for hi in _HEX for lo in _HEX
}
_DECODED["+"] = " "


def _decode_match(match: re.Match[str]) -> str:
    return _DECODED[match.group()]


def unquote(text: str, *, plus_as_space: bool = False) -> str:
    """Decode percent-escapes in *text*.

    Malformed escapes (``%`` not followed by two hex digits) are passed
    through verbatim, mirroring how IDSes must treat attacker-controlled
    input: decoding never fails.  Decoding is one left-to-right pass, so
    a decoded ``%`` never starts a new escape (``%2541`` → ``%41``).

    Args:
        text: the raw (possibly escaped) string.
        plus_as_space: when true, ``+`` decodes to a space, as in
            ``application/x-www-form-urlencoded`` payloads.
    """
    if "%" not in text and not (plus_as_space and "+" in text):
        return text
    pattern = _ESCAPE_OR_PLUS if plus_as_space else _ESCAPE
    return pattern.sub(_decode_match, text)


def quote(text: str) -> str:
    """Percent-encode every character outside the RFC 3986 unreserved set."""
    out: list[str] = []
    for ch in text:
        if ch in _UNRESERVED:
            out.append(ch)
        else:
            out.extend("%%%02X" % byte for byte in ch.encode("utf-8"))
    return "".join(out)


def split_url(url: str) -> tuple[str, str, str]:
    """Split *url* into ``(host, path, query)``.

    The scheme and port are discarded — the paper's extraction keeps only the
    query portion, but the host and path are needed by the crawler frontier.
    A missing component is returned as the empty string.
    """
    rest = url
    if "://" in rest:
        rest = rest.split("://", 1)[1]
    fragment_split = rest.split("#", 1)[0]
    if "?" in fragment_split:
        loc_path, query = fragment_split.split("?", 1)
    else:
        loc_path, query = fragment_split, ""
    if "/" in loc_path:
        host, path = loc_path.split("/", 1)
        path = "/" + path
    else:
        host, path = loc_path, "/"
    if ":" in host:
        host = host.split(":", 1)[0]
    return host, path, query


def parse_query(query: str) -> list[tuple[str, str]]:
    """Split a raw query string into ordered ``(name, value)`` pairs.

    Pairs are *not* decoded; decoding is a normalization step
    (:mod:`repro.normalize`) so that the feature extractor can choose the
    representation it operates on.  A bare token without ``=`` becomes a pair
    with an empty value, preserving attacker payloads like ``?1'or'1'='1``.
    """
    if not query:
        return []
    pairs: list[tuple[str, str]] = []
    for chunk in query.split("&"):
        if not chunk:
            continue
        if "=" in chunk:
            name, value = chunk.split("=", 1)
        else:
            name, value = chunk, ""
        pairs.append((name, value))
    return pairs


def encode_query(pairs: list[tuple[str, str]]) -> str:
    """Inverse of :func:`parse_query` for already-encoded pairs."""
    return "&".join(f"{name}={value}" for name, value in pairs)

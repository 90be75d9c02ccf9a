"""The sample-normalization transformations.

Section II-A: "Once the attack samples are collected, we use a set of 5
transformations, including uppercase → lowercase, URL encoding → ascii
characters, and unicode → ascii characters."  The paper names three of the
five; the remaining two in this reproduction are hex-literal decoding and
whitespace canonicalization, both standard steps in SQLi pre-processing
(e.g. ModSecurity's transformation pipeline) that the named three imply.

Each transform is a small callable class; :class:`Normalizer` composes them.
"""

from __future__ import annotations

import re
from collections.abc import Iterable

from repro.http.url import unquote
from repro.normalize.unicode_map import fold


class Transform:
    """Base class: a named, idempotent-ish string transformation."""

    name: str = "identity"

    def __call__(self, text: str) -> str:
        raise NotImplementedError


class Lowercase(Transform):
    """Transformation 1: uppercase → lowercase."""

    name = "lowercase"

    def __call__(self, text: str) -> str:
        return text.lower()


class UrlDecode(Transform):
    """Transformation 2: URL encoding → ASCII characters.

    Decodes repeatedly (bounded) so double-encoded payloads such as
    ``%2527`` (→ ``%27`` → ``'``) are fully unwrapped — a classic WAF
    evasion.  Also decodes ``+`` to space and IIS-style ``%uXXXX`` escapes.
    """

    name = "url-decode"

    #: Maximum decode passes; real payloads rarely nest deeper than 3.
    max_rounds: int = 4

    _PERCENT_U = re.compile(r"%u([0-9a-fA-F]{4})")

    def __call__(self, text: str) -> str:
        # ``+`` is a transport encoding: it means space only in the original
        # wire form, so it decodes exactly once — a ``%2B`` that decodes to
        # ``+`` in a later round is a literal plus, not a space.
        current = text.replace("+", " ")
        if "%" not in current:
            # Both escape forms start with ``%``: no round can apply.
            return current
        for _ in range(self.max_rounds):
            decoded = self._PERCENT_U.sub(
                lambda m: chr(int(m.group(1), 16)), current
            )
            decoded = unquote(decoded, plus_as_space=False)
            if decoded == current:
                break
            current = decoded
        return current


class UnicodeFold(Transform):
    """Transformation 3: unicode → ASCII characters."""

    name = "unicode-fold"

    def __call__(self, text: str) -> str:
        return fold(text)


class HexDecode(Transform):
    """Transformation 4: decode inline hex string literals.

    MySQL accepts ``0x61646d696e`` wherever a string is expected; decoding
    the literal exposes the keyword it hides (here ``admin``) to the feature
    extractor.  Only even-length literals that decode to printable ASCII are
    rewritten; numeric-looking hex (ids, hashes) is left alone when the
    decoded bytes are not printable.
    """

    name = "hex-decode"

    _HEX_LITERAL = re.compile(r"0x([0-9a-fA-F]{2,}?)(?![0-9a-fA-F])")

    def __call__(self, text: str) -> str:
        def replace(match: re.Match[str]) -> str:
            digits = match.group(1)
            if len(digits) % 2:
                return match.group(0)
            decoded = bytes.fromhex(digits)
            if all(0x20 <= b < 0x7F for b in decoded):
                return decoded.decode("ascii")
            return match.group(0)

        return self._HEX_LITERAL.sub(replace, text)


class WhitespaceCanonicalize(Transform):
    """Transformation 5: canonicalize whitespace and comment obfuscation.

    SQL inline comments (``/**/``, ``/*!...*/``) and mixed whitespace
    (tabs, newlines, multiple spaces) are all attacker-controlled separators
    that mean "one token boundary".  They collapse to a single space so that
    ``union/**/select`` and ``union   select`` present the same string to
    the feature extractor.
    """

    name = "whitespace"

    _INLINE_COMMENT = re.compile(r"/\*!?.*?\*/", re.S)
    _WHITESPACE_RUN = re.compile(r"[\s\x00\x0b\x0c]+")

    def __call__(self, text: str) -> str:
        text = self._INLINE_COMMENT.sub(" ", text)
        return self._WHITESPACE_RUN.sub(" ", text)


#: The paper's five transformations, in application order.  URL decoding runs
#: first so later passes see the decoded characters; lowering runs before
#: hex decoding so ``0X`` literals are normalized too.
DEFAULT_TRANSFORMS: tuple[Transform, ...] = (
    UrlDecode(),
    UnicodeFold(),
    Lowercase(),
    HexDecode(),
    WhitespaceCanonicalize(),
)


class Normalizer:
    """Composes transformations into a single callable used pipeline-wide."""

    def __init__(self, transforms: Iterable[Transform] | None = None) -> None:
        self.transforms: tuple[Transform, ...] = (
            tuple(transforms) if transforms is not None else DEFAULT_TRANSFORMS
        )

    def __call__(self, text: str) -> str:
        for transform in self.transforms:
            text = transform(text)
        return text

    def names(self) -> list[str]:
        """Names of the applied transformations, in order."""
        return [t.name for t in self.transforms]


def normalize(text: str) -> str:
    """Normalize *text* with the default five-transformation pipeline."""
    return _DEFAULT(text)


_DEFAULT = Normalizer()

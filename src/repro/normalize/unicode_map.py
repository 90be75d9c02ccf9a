"""Unicode-to-ASCII folding table used by the normalizer.

Attackers evade keyword filters by substituting visually or semantically
equivalent Unicode code points for ASCII characters (fullwidth forms,
smart quotes, alternative spaces).  This table folds the substitutions the
SQLi evasion literature documents back to their ASCII equivalents; anything
unmapped and non-ASCII is dropped by the transform.
"""

from __future__ import annotations

import re

#: Explicit single-character folds.
_EXPLICIT: dict[str, str] = {
    "‘": "'",  # left single quotation mark
    "’": "'",  # right single quotation mark
    "‚": "'",  # single low-9 quotation
    "′": "'",  # prime
    "“": '"',  # left double quotation mark
    "”": '"',  # right double quotation mark
    "″": '"',  # double prime
    "«": '"',
    "»": '"',
    "–": "-",  # en dash
    "—": "-",  # em dash
    "−": "-",  # minus sign
    " ": " ",  # no-break space
    " ": " ",
    " ": " ",
    " ": " ",
    " ": " ",
    " ": " ",
    " ": " ",
    " ": " ",
    " ": " ",
    " ": " ",
    " ": " ",
    " ": " ",
    " ": " ",
    "　": " ",  # ideographic space
    "⁄": "/",  # fraction slash
    "∕": "/",  # division slash
    "／": "/",  # fullwidth solidus
}


def _fullwidth_folds() -> dict[str, str]:
    """Fullwidth ASCII variants (U+FF01..U+FF5E) fold to U+0021..U+007E."""
    return {chr(0xFF01 + i): chr(0x21 + i) for i in range(0x5E)}


#: The complete folding table.
FOLD_TABLE: dict[str, str] = {**_fullwidth_folds(), **_EXPLICIT}


_NON_ASCII = re.compile(r"[^\x00-\x7f]")


def _fold_match(match: re.Match[str]) -> str:
    return FOLD_TABLE.get(match.group(), "")


def fold(text: str) -> str:
    """Fold a whole string to ASCII; unmapped non-ASCII characters drop."""
    if text.isascii():
        return text
    return _NON_ASCII.sub(_fold_match, text)

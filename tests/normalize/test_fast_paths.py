"""Differential tests: the regex/table normalizer fast paths against the
character-loop implementations they replaced, kept here as oracles.

``unquote`` and ``fold`` must agree with the oracles on every string, and
the default ``normalize()`` must equal the pipeline composed from them,
bit for bit — malformed escapes, ``+`` handling, non-ASCII digits after
``%`` and lone surrogates included.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.http.url import unquote
from repro.normalize import (
    HexDecode,
    UrlDecode,
    WhitespaceCanonicalize,
    normalize,
)
from repro.normalize.unicode_map import FOLD_TABLE, fold
from repro.serve.loadgen import build_load_trace

_HEX_DIGITS = "0123456789abcdefABCDEF"


def _is_hex(ch):
    return len(ch) == 1 and ch in _HEX_DIGITS


def oracle_unquote(text, *, plus_as_space=False):
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "%" and i + 2 <= n - 1:
            hi, lo = text[i + 1], text[i + 2]
            if _is_hex(hi) and _is_hex(lo):
                out.append(chr(int(hi + lo, 16)))
                i += 3
                continue
        if ch == "+" and plus_as_space:
            out.append(" ")
        else:
            out.append(ch)
        i += 1
    return "".join(out)


def oracle_fold(text):
    return "".join(
        ch if ord(ch) < 128 else FOLD_TABLE.get(ch, "") for ch in text
    )


def oracle_url_decode(text):
    """``UrlDecode`` without its no-``%`` early return, on the oracle."""
    current = text.replace("+", " ")
    for _ in range(UrlDecode.max_rounds):
        decoded = UrlDecode._PERCENT_U.sub(
            lambda m: chr(int(m.group(1), 16)), current
        )
        decoded = oracle_unquote(decoded)
        if decoded == current:
            break
        current = decoded
    return current


def oracle_normalize(text):
    text = oracle_url_decode(text)
    text = oracle_fold(text)
    text = text.lower()
    text = HexDecode()(text)
    return WhitespaceCanonicalize()(text)


def assert_agrees(text):
    assert unquote(text) == oracle_unquote(text), repr(text)
    assert unquote(text, plus_as_space=True) == oracle_unquote(
        text, plus_as_space=True
    ), repr(text)
    assert fold(text) == oracle_fold(text), repr(text)
    assert UrlDecode()(text) == oracle_url_decode(text), repr(text)
    assert normalize(text) == oracle_normalize(text), repr(text)


EDGE_CASES = [
    "",
    "%",
    "%%",
    "%%41",
    "%4",
    "%4g",
    "abc%",
    "abc%2",
    "%zz",
    "%2B",
    "a+b%2Bc",
    "%2541",
    "%25%34%31",
    "%٣٣",
    "%4٣",
    "%uD800",
    "x%uD800y%41",
    "%u0041%u00",
    "\ud800%41",
    "１' ＯＲ ‘1’=’1",
    "ｓｅｌｅｃｔ 漢 — ＊",
    "%EF%BC%A1",
    "\x00\x7fＡ\x7f",  # ASCII's edges beside a folded character
]

FRAGMENTS = [
    "%", "%2", "%25", "%41", "%2B", "%2b", "%u", "%u00", "%u0027",
    "%uD800", "%uDFFF", "+", "%%", "%zz", "%٣", "٣", "Ａ", "’", "漢",
    "—", "\ud800", "　", "a", "Z", " ", "'", "0x", "41", "/**/", "\x7f",
]


def test_edge_cases_agree():
    for text in EDGE_CASES:
        assert_agrees(text)


def test_percent_2b_stays_a_literal_plus_under_plus_as_space():
    assert unquote("%2B", plus_as_space=True) == "+"
    assert unquote("a+%2B", plus_as_space=True) == "a +"


def test_non_ascii_digits_are_not_hex():
    assert unquote("%٣٣") == "%٣٣"


def test_lone_surrogate_survives_decoding():
    assert UrlDecode()("%uD800") == "\ud800"
    assert normalize("%uD800") == ""  # unmapped non-ASCII folds away


def test_ascii_input_is_returned_as_is():
    text = "id=1 union select"
    assert fold(text) is text
    assert unquote(text) is text


def test_seeded_fuzz_agrees():
    rng = random.Random(2012)
    for _ in range(3000):
        text = "".join(
            rng.choice(FRAGMENTS) for _ in range(rng.randrange(0, 12))
        )
        assert_agrees(text)


_ALPHABET = st.one_of(
    st.sampled_from(list("%+uU0123456789abcdefABCDEFxz٣𐏿\x7f\x80")),
    st.sampled_from(sorted(FOLD_TABLE)),
    st.characters(),
)


@given(st.text(alphabet=_ALPHABET, max_size=40))
@settings(max_examples=400, deadline=None)
def test_property_agrees_with_oracles(text):
    assert_agrees(text)


def test_normalize_matches_oracle_pipeline_on_load_trace():
    trace = build_load_trace(seed=7, n_benign=200, n_vulnerabilities=4)
    payloads = trace.payloads()
    assert any("%" in p for p in payloads)
    for payload in payloads:
        assert normalize(payload) == oracle_normalize(payload), payload

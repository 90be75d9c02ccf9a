"""Fused engine: count vectors and probabilities are exact, not close."""

import pickle
import random
import string

import numpy as np

from repro.conformance.fuzz import generate_corpus
from repro.features.definitions import build_catalog
from repro.match import engine
from repro.match import (
    FusedMatcher,
    FusedSetEvaluator,
    fused_disabled,
    fused_enabled,
    matcher_for_patterns,
    set_fused_enabled,
)
from repro.regexlib import count_all


def reference_vector(patterns, payload):
    return [count_all(p, payload) for p in patterns]


CRAFTED = [
    "",
    "1' union select password from users--",
    "1' UNION ALL SELECT NULL,NULL,version()--",
    "id=1 and 1=1",
    "char(97)||char(98)||char(99)",
    "/**/union/**/select/**/",
    "'; exec xp_cmdshell('dir')--",
    "benign search terms with select inside selection",
    "0x414243 0x or or",
    "a" * 200,
    "'' '' '' ''",
    "%27%20union%20select",
    "union",  # bare token, boundary on both string edges
    "-- -",
    "ünïon sélect",  # non-ASCII: must take the reference loop
    "union select",  # non-ASCII whitespace
]


class TestFusedMatcherExactness:
    def test_crafted_payloads_match_reference(self):
        patterns = [d.pattern for d in build_catalog()]
        matcher = FusedMatcher(patterns)
        for payload in CRAFTED:
            fused = matcher.count_vector(payload).tolist()
            assert fused == reference_vector(patterns, payload), payload

    def test_random_payloads_match_reference(self):
        patterns = [d.pattern for d in build_catalog()]
        matcher = FusedMatcher(patterns)
        rng = random.Random(1405)
        alphabet = (
            string.ascii_letters + string.digits
            + "'\"()=<>;,.-_%&|/* +"
        )
        for _ in range(60):
            payload = "".join(
                rng.choice(alphabet)
                for _ in range(rng.randrange(0, 120))
            )
            fused = matcher.count_vector(payload).tolist()
            assert fused == reference_vector(patterns, payload), payload

    def test_non_ascii_counts_fallbacks(self):
        matcher = FusedMatcher(["union"])
        before = matcher.stats.ascii_fallbacks
        assert matcher.count_vector("üunion").tolist() == [1]
        assert matcher.stats.ascii_fallbacks == before + 1

    def test_empty_payload_is_zero_vector(self):
        matcher = FusedMatcher(["union", r"\bselect\b"])
        assert matcher.count_vector("").tolist() == [0, 0]

    def test_stats_count_payloads(self):
        matcher = FusedMatcher(["union"])
        seen = matcher.stats.payloads
        matcher.count_vector("x")
        assert matcher.stats.payloads == seen + 1

    def test_pickle_roundtrip_shares_memo(self):
        matcher = matcher_for_patterns(("union", r"\bselect\b"))
        clone = pickle.loads(pickle.dumps(matcher))
        assert clone is matcher  # same process: memo returns the object

    def test_memo_reuses_plans(self):
        first = matcher_for_patterns(("pickme", "andme"))
        second = matcher_for_patterns(("pickme", "andme"))
        assert first is second


class TestFusedSetEvaluator:
    def test_probabilities_bit_identical(self, small_signatures):
        evaluator = FusedSetEvaluator(small_signatures.signatures)
        for payload in CRAFTED:
            normalized = small_signatures.normalizer(payload)
            fused = evaluator.probabilities(normalized)
            legacy = [
                signature.probability(normalized)
                for signature in small_signatures.signatures
            ]
            assert fused == legacy, payload  # ==, not approx

    def test_evaluate_normalized_routes_through_fused(
        self, small_signatures
    ):
        assert small_signatures.warm()
        for payload in CRAFTED:
            normalized = small_signatures.normalizer(payload)
            fused = small_signatures.evaluate_normalized(normalized)
            with fused_disabled():
                legacy = small_signatures.evaluate_normalized(
                    normalized
                )
            assert fused == legacy, payload

    def test_probabilities_array_matches_legacy(self, small_signatures):
        normalized = small_signatures.normalizer(
            "1' union select 1,2--"
        )
        fused = small_signatures.probabilities(normalized)
        with fused_disabled():
            legacy = small_signatures.probabilities(normalized)
        assert np.array_equal(fused, legacy)

    def test_signature_set_pickles_without_fused_state(
        self, small_signatures
    ):
        small_signatures.warm()
        clone = pickle.loads(pickle.dumps(small_signatures))
        payload = clone.normalizer("1' or '1'='1")
        assert clone.evaluate_normalized(payload) == (
            small_signatures.evaluate_normalized(payload)
        )

    def test_with_threshold_shares_compiled_plan(self, small_signatures):
        small_signatures.warm()
        swept = small_signatures.with_threshold(0.9)
        assert swept._fused is small_signatures._fused


def legacy_probabilities(signature_set, normalized):
    return [s.probability(normalized) for s in signature_set.signatures]


class TestThetaMemo:
    @staticmethod
    def corpus(signature_set):
        return [
            signature_set.normalizer(payload)
            for payload in generate_corpus(seed=2012, budget="small")
        ]

    def test_cold_and_warm_passes_bit_identical(self, small_signatures):
        evaluator = FusedSetEvaluator(small_signatures.signatures)
        corpus = self.corpus(small_signatures)
        for _ in ("cold", "warm"):
            for normalized in corpus:
                assert evaluator.probabilities(normalized) == (
                    legacy_probabilities(small_signatures, normalized)
                ), normalized

    def test_memo_hits_count_exactly(self, small_signatures):
        evaluator = FusedSetEvaluator(small_signatures.signatures)
        stats = evaluator.matcher.stats
        corpus = self.corpus(small_signatures)
        distinct = {
            evaluator.matcher.count_vector(n).tobytes() for n in corpus
        }
        assert len(distinct) < len(corpus) < engine.THETA_MEMO_CAP
        before = stats.memo_hits
        for normalized in corpus:
            evaluator.probabilities(normalized)
        assert stats.memo_hits - before == len(corpus) - len(distinct)
        before = stats.memo_hits
        for normalized in corpus:
            evaluator.probabilities(normalized)
        assert stats.memo_hits - before == len(corpus)

    def test_memo_stops_growing_at_the_cap(
        self, small_signatures, monkeypatch
    ):
        monkeypatch.setattr(engine, "THETA_MEMO_CAP", 16)
        evaluator = FusedSetEvaluator(small_signatures.signatures)
        corpus = self.corpus(small_signatures)
        distinct = {
            evaluator.matcher.count_vector(n).tobytes() for n in corpus
        }
        assert len(distinct) > 16
        for _ in ("cold", "warm"):
            for normalized in corpus:
                assert evaluator.probabilities(normalized) == (
                    legacy_probabilities(small_signatures, normalized)
                ), normalized
                assert len(evaluator._memo) <= 16
        assert len(evaluator._memo) == 16

    def test_returned_list_does_not_alias_the_memo(self, small_signatures):
        evaluator = FusedSetEvaluator(small_signatures.signatures)
        first = evaluator.probabilities("union select")
        first[0] = -1.0
        assert evaluator.probabilities("union select") == (
            legacy_probabilities(small_signatures, "union select")
        )

    def test_threshold_sweep_shares_memo_and_stays_correct(
        self, small_signatures
    ):
        small_signatures.warm()
        corpus = self.corpus(small_signatures)
        for threshold in (0.1, 0.5, 0.9, 0.5):
            swept = small_signatures.with_threshold(threshold)
            assert swept._fused is small_signatures._fused
            for normalized in corpus:
                fused = swept.evaluate_normalized(normalized)
                with fused_disabled():
                    legacy = swept.evaluate_normalized(normalized)
                assert fused == legacy, (threshold, normalized)


class TestFusedToggle:
    def test_context_manager_restores(self):
        initial = fused_enabled()
        with fused_disabled():
            assert not fused_enabled()
        assert fused_enabled() == initial

    def test_set_returns_previous(self):
        previous = set_fused_enabled(False)
        try:
            assert fused_enabled() is False
        finally:
            set_fused_enabled(previous)

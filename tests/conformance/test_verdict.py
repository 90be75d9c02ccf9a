"""Verdict normalization and the element-wise diff semantics."""

import json

import pytest

from repro.conformance import (
    ConformanceError,
    ConformanceReport,
    Divergence,
    Verdict,
    diff_verdicts,
    verdicts_from_responses,
)
from repro.conformance.verdict import MAX_PAYLOAD_CHARS
from repro.ids import DeterministicRuleSet, Rule


def verdict(alert=False, score=0.0, fired=()):
    return Verdict(alert=alert, score=score, fired=tuple(fired))


class TestVerdictNormalForm:
    def test_from_detection(self):
        detector = DeterministicRuleSet(
            "toy", [Rule(7, "union", r"union\s+select")]
        )
        seen = Verdict.from_detection(
            detector.inspect("id=1' union select 1")
        )
        assert seen.alert is True
        assert seen.fired == (7,)
        assert seen.score == pytest.approx(1.0)

    def test_to_dict_is_json_ready(self):
        data = verdict(alert=True, score=0.75, fired=(3, 9)).to_dict()
        assert json.loads(json.dumps(data)) == {
            "alert": True, "score": 0.75, "fired": [3, 9],
        }


class TestVerdictsFromResponses:
    OK = {"alert": True, "score": 0.75, "matched": [3, 1], "version": 1}

    def test_decodes_the_normal_form(self):
        assert verdicts_from_responses([self.OK], "gateway") == [
            verdict(alert=True, score=0.75, fired=(3, 1))
        ]

    @pytest.mark.parametrize("bad", [
        None, {"shed": True, "error": "queue full"}, {"error": "too long"},
    ], ids=["missing", "shed", "error"])
    def test_no_verdict_names_path_and_index(self, bad):
        with pytest.raises(ConformanceError, match=r"^fleet gave no verdict "
                           r"for payload 1: "):
            verdicts_from_responses([self.OK, bad], "fleet")

    def test_framed_requires_surface_attribution(self):
        with pytest.raises(ConformanceError, match="0 lacks surface attri"):
            verdicts_from_responses([self.OK], "gateway-framed", framed=True)
        attributed = dict(self.OK, surfaces=["query"], verdicts=[])
        assert verdicts_from_responses(
            [attributed], "gateway-framed", framed=True
        )[0].fired == (3, 1)


class TestDiffVerdicts:
    def test_identical_sequences_have_no_divergence(self):
        truth = [verdict(), verdict(alert=True, score=0.9, fired=(1,))]
        assert diff_verdicts(
            "serial", truth, "other", list(truth), ["a", "b"]
        ) == []

    def test_alert_flip_is_reported(self):
        out = diff_verdicts(
            "serial", [verdict(alert=True, fired=())],
            "other", [verdict(alert=False, fired=())],
            ["q=1"],
        )
        assert len(out) == 1
        d = out[0]
        assert (d.field, d.index) == ("alert", 0)
        assert (d.expected, d.observed) == (True, False)
        assert d.payload == "q=1"

    def test_fired_mismatch_is_reported(self):
        out = diff_verdicts(
            "serial", [verdict(alert=True, fired=(1, 2))],
            "other", [verdict(alert=True, fired=(1,))],
            ["q=1"],
        )
        assert [d.field for d in out] == ["fired"]
        assert out[0].expected == [1, 2] and out[0].observed == [1]

    def test_score_beyond_tolerance_is_reported(self):
        out = diff_verdicts(
            "serial", [verdict(score=0.5)],
            "other", [verdict(score=0.5 + 1e-3)],
            ["q=1"], score_tolerance=1e-6,
        )
        assert [d.field for d in out] == ["score"]

    def test_score_within_tolerance_is_quiet(self):
        assert diff_verdicts(
            "serial", [verdict(score=0.5)],
            "other", [verdict(score=0.5 + 1e-12)],
            ["q=1"],
        ) == []

    def test_none_score_skips_the_comparison(self):
        # The serial engine path exposes no score for non-alerts; that
        # must not read as a divergence against a path that does.
        assert diff_verdicts(
            "serial", [verdict(score=0.2)],
            "other", [verdict(score=None)],
            ["q=1"],
        ) == []

    def test_length_mismatch_is_one_count_divergence(self):
        out = diff_verdicts(
            "serial", [verdict(), verdict()],
            "other", [verdict()],
            ["a", "b"],
        )
        assert len(out) == 1
        assert out[0].field == "count" and out[0].index is None
        assert (out[0].expected, out[0].observed) == (2, 1)

    def test_long_payload_is_elided(self):
        long = "q=" + "x" * 500
        out = diff_verdicts(
            "serial", [verdict(alert=True)],
            "other", [verdict(alert=False)],
            [long],
        )
        assert len(out[0].payload) == MAX_PAYLOAD_CHARS + 1
        assert out[0].payload.endswith("…")


class TestDivergenceAndReport:
    def test_describe_names_everything(self):
        text = Divergence(
            baseline="serial", path="gateway", index=3, field="alert",
            expected=True, observed=False, payload="id=1",
        ).describe()
        assert "gateway vs serial" in text
        assert "payload[3].alert" in text and "'id=1'" in text

    def test_path_level_describe(self):
        text = Divergence(
            baseline="serial", path="batch-w8", index=None,
            field="error", expected="a verdict per payload",
            observed="boom",
        ).describe()
        assert "path.error" in text

    def test_report_ok_and_summary(self):
        report = ConformanceReport(detector="toy", n_payloads=5)
        report.paths = ["serial", "gateway"]
        assert report.ok
        assert "CONFORMANT" in report.summary()
        report.divergences.append(Divergence(
            baseline="serial", path="gateway", index=0,
            field="alert", expected=True, observed=False,
        ))
        assert not report.ok
        assert "DIVERGENT" in report.summary()
        assert len(report.divergences_for("gateway")) == 1
        assert report.divergences_for("serial") == []

    def test_report_to_dict_is_json_ready(self):
        report = ConformanceReport(detector="toy", n_payloads=1)
        report.paths = ["serial"]
        report.path_wall_s["serial"] = 0.123456789
        data = json.loads(json.dumps(report.to_dict()))
        assert data["ok"] is True
        assert data["path_wall_s"]["serial"] == pytest.approx(0.123457)

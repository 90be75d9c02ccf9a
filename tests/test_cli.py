"""Tests for the ``python -m repro`` command line."""

import io
import json
import os
import re

import pytest

from repro.__main__ import build_parser, main


def score_lines(capsys):
    """Parsed (verdict, score, payload) triples from score output."""
    out = capsys.readouterr().out
    rows = []
    for line in out.strip().splitlines():
        match = re.match(
            r"\[(ALERT|pass )\] p=([0-9.]+)"
            r"(?: signatures=\[[^\]]*\])?(?:  (.*))?$",
            line,
        )
        assert match, f"unparseable score line: {line!r}"
        rows.append(
            (match.group(1), float(match.group(2)), match.group(3) or "")
        )
    return rows


class TestTrainAndScore:
    @pytest.fixture(scope="class")
    def signature_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "signatures.json"
        code = main([
            "train", "-o", str(path), "--samples", "900",
            "--benign", "2500", "--max-cluster-rows", "700",
        ])
        assert code == 0
        return str(path)

    def test_train_writes_valid_json(self, signature_file):
        with open(signature_file) as handle:
            data = json.load(handle)
        assert data["schema"] == 1
        assert data["signatures"]

    def test_score_attack_exits_3(self, signature_file, capsys):
        code = main([
            "score", "-s", signature_file,
            "id=1' union select 1,2,3-- -",
        ])
        assert code == 3
        assert "ALERT" in capsys.readouterr().out

    def test_score_benign_exits_0(self, signature_file, capsys):
        code = main([
            "score", "-s", signature_file, "course=cs101&term=fall2012",
        ])
        assert code == 0
        assert "pass" in capsys.readouterr().out


class TestScoreStdin:
    ATTACK = "id=1' union select 1,2,3-- -"
    BENIGN = "course=cs101&term=fall2012"

    @pytest.fixture(scope="class")
    def signature_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-stdin") / "signatures.json"
        code = main([
            "train", "-o", str(path), "--samples", "900",
            "--benign", "2500", "--max-cluster-rows", "700",
        ])
        assert code == 0
        return str(path)

    def test_crlf_stdin_matches_argv(
        self, signature_file, capsys, monkeypatch
    ):
        """CRLF-terminated stdin (Windows pipes, curl output) must score
        identically to argv payloads — a stray \\r inside the payload
        changes normalization."""
        code_argv = main(["score", "-s", signature_file, self.ATTACK])
        argv_rows = score_lines(capsys)
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(f"{self.ATTACK}\r\n")
        )
        code_stdin = main(["score", "-s", signature_file])
        stdin_rows = score_lines(capsys)
        assert code_stdin == code_argv == 3
        assert stdin_rows == argv_rows

    def test_lf_stdin_unchanged(self, signature_file, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(f"{self.ATTACK}\n{self.BENIGN}\n"),
        )
        code = main(["score", "-s", signature_file])
        rows = score_lines(capsys)
        assert code == 3
        assert [r[0] for r in rows] == ["ALERT", "pass "]
        assert [r[2] for r in rows] == [self.ATTACK, self.BENIGN]

    def test_serial_and_batch_agree(self, signature_file, capsys):
        """Exit code and every printed score must be identical through
        the serial (workers=1) and batched (workers>1) paths."""
        payloads = [
            self.ATTACK,
            self.BENIGN,
            "q=robert'); drop table students;--",
            "page=3&sort=name",
            "",
        ]
        code_serial = main(
            ["score", "-s", signature_file, "--workers", "1"] + payloads
        )
        serial_rows = score_lines(capsys)
        code_batch = main(
            ["score", "-s", signature_file, "--workers", "2"] + payloads
        )
        batch_rows = score_lines(capsys)
        assert code_serial == code_batch == 3
        assert serial_rows == batch_rows


class TestVersionAndHelp:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_help_epilog_lists_commands(self):
        help_text = build_parser().format_help()
        for command in (
            "train", "score", "crawl", "eval", "serve", "loadgen",
        ):
            assert re.search(
                rf"^  {command}\s+\S", help_text, re.MULTILINE
            ), f"epilog missing command {command!r}"


class TestCrawl:
    def test_crawl_prints_stats(self, capsys):
        code = main(["crawl", "--samples", "120", "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pages fetched" in out
        assert "unique samples" in out


class TestLoadgenCommand:
    @pytest.mark.smoke
    def test_loadgen_against_in_process_gateway(self, capsys):
        code = main([
            "loadgen", "--detector", "modsecurity",
            "--requests", "120", "--connections", "2", "--window", "4",
            "--benign", "40", "--vulnerabilities", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "PARITY" in out
        assert "throughput" in out

    def test_open_loop_rate_on_a_single_gateway(self, capsys):
        code = main([
            "loadgen", "--detector", "modsecurity",
            "--requests", "40", "--rate", "4000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "open loop" in out
        assert re.search(r"^  slo<= 50ms attainment=", out, re.MULTILINE)

    def test_psigene_requires_signature_file(self):
        with pytest.raises(SystemExit):
            main(["loadgen", "--detector", "psigene", "--requests", "10"])


class TestParser:
    @pytest.mark.parametrize("command", ["train", "eval", "score"])
    def test_zero_workers_exit_before_any_work(self, command, monkeypatch):
        from repro.core import PSigenePipeline

        def no_training(self):
            raise AssertionError("trained despite an invalid config")

        monkeypatch.setattr(PSigenePipeline, "run", no_training)
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--workers", "0"])
        assert str(excinfo.value) == "repro: workers must be >= 1, got 0"

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["explode"])


_DETECTORS = ("psigene", "modsecurity", "snort", "snort-et", "bro")
_POLICIES = ("block", "shed", "cost")

#: Every serve/loadgen option as (flags, dest, default, choices, type):
#: the serving commands build their configs from these, so a flag that
#: goes missing or changes its default changes what gets deployed.
SERVING_OPTIONS = {
    "serve": [
        (("-s", "--signatures"), "signatures", "signatures.json", None, None),
        (("--surfaces",), "surfaces", "query,form", None, None),
        (("--detector",), "detector", "psigene", _DETECTORS, None),
        (("--queue-bound",), "queue_bound", 1024, None, int),
        (("--policy",), "policy", "block", _POLICIES, None),
        (("--host",), "host", "127.0.0.1", None, None),
        (("--port",), "port", 9037, None, int),
        (("--max-inflight",), "max_inflight", 64, None, int),
        (("--shards",), "shards", 1, None, int),
        (("--control-port",), "control_port", 0, None, int),
    ],
    "loadgen": [
        (("--seed",), "seed", 2012, None, int),
        (("-s", "--signatures"), "signatures", "signatures.json", None, None),
        (("--surfaces",), "surfaces", "query,form", None, None),
        (("--detector",), "detector", "psigene", _DETECTORS, None),
        (("--queue-bound",), "queue_bound", 1024, None, int),
        (("--policy",), "policy", "block", _POLICIES, None),
        (("--requests",), "requests", 2000, None, int),
        (("--connections",), "connections", 8, None, int),
        (("--window",), "window", 32, None, int),
        (("--benign",), "benign", 800, None, int),
        (("--vulnerabilities",), "vulnerabilities", 12, None, int),
        (("--check-parity", "--no-check-parity"), "check_parity", True,
         None, None),
        (("--framed",), "framed", False, None, None),
        (("--shards",), "shards", 1, None, int),
        (("--rate",), "rate", None, None, float),
        (("--slo-ms",), "slo_ms", 50.0, None, float),
    ],
}


@pytest.mark.parametrize("command", sorted(SERVING_OPTIONS))
def test_serving_options_are_pinned(command):
    """Compares parser structure, not ``--help`` text (whose layout
    differs across Python versions)."""
    import argparse

    parser = build_parser()
    commands = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = [
        (
            tuple(action.option_strings), action.dest, action.default,
            tuple(action.choices) if action.choices else None, action.type,
        )
        for action in commands.choices[command]._actions
        if not isinstance(action, argparse._HelpAction)
    ]
    assert options == SERVING_OPTIONS[command]

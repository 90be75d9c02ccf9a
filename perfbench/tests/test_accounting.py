"""Failure accounting: wrong or missing responses count, never crash."""

import json
import threading

import pytest
from repro.core.serialize import signature_set_to_json

from harness.driver import PhaseRecord, closed_loop, open_loop
from harness.inputs import LineInputs
from harness.spans import SpanRecorder
from harness.verify import Referee
from harness.workloads import Outcome, Served, _check, _end_to_end, _phases
from run import emit

PAYLOADS = [
    "id=1' union select 1,2,3-- -",
    "course=cs101&term=fall",
    "q=1 or 1=1",
    "",
]


def _inputs() -> LineInputs:
    return LineInputs(
        payloads=PAYLOADS,
        wires=[p.encode() + b"\n" for p in PAYLOADS],
    )


def test_correct_responses_pass_and_tampered_ones_count(gateway, small_set):
    inputs = _inputs()
    record = closed_loop(gateway.address, inputs.wires, connections=2,
                         window=4, seconds=0.3)
    referee = Referee(inputs, {1: small_set})
    outcome = Outcome()
    _check(record, referee, outcome, "load")
    assert outcome.attempted == record.attempted > 0
    assert outcome.failed == 0

    record.responses[0] = record.responses[0].replace(b'"version":1',
                                                       b'"version":2')
    record.responses[1] = None
    outcome = Outcome()
    _check(record, referee, outcome, "load")
    assert outcome.failed == 2


def test_gateway_killed_mid_closed_loop_counts_as_errors(gateway, small_set):
    inputs = _inputs()
    threading.Timer(0.3, gateway.proc.kill).start()
    record = closed_loop(gateway.address, inputs.wires, connections=2,
                         window=8, seconds=1.0, probe=_probe(gateway))
    outcome = Outcome()
    _check(record, Referee(inputs, {1: small_set}), outcome, "load")
    assert record.dropped_connections == 2
    assert outcome.failed > 0
    served = Served(gateway=gateway, versions={1: small_set}, reloads=[],
                    setup_s=[1.0], train_s=[1.0])
    _end_to_end(outcome, served, rtt=record, segments=[record],
                references=[0.01, 0.01])
    assert outcome.failed / outcome.attempted > 0


def test_gateway_killed_mid_open_loop_counts_as_errors(gateway, small_set):
    inputs = _inputs()
    threading.Timer(0.3, gateway.proc.kill).start()
    record = open_loop(gateway.address, inputs.wires, rate=500.0,
                       seconds=1.0, connections=2)
    outcome = Outcome()
    _check(record, Referee(inputs, {1: small_set}), outcome, "load")
    assert record.attempted == 500
    assert outcome.failed > 0


@pytest.mark.parametrize("trace", [False, True])
def test_gateway_killed_during_rtt_fails_later_phases_not_the_run(
        gateway, small_set, trace, capsys):
    inputs = _inputs()
    body = signature_set_to_json(small_set).encode()
    served = Served(gateway=gateway, versions={1: small_set},
                    reloads=[(body, small_set)], setup_s=[1.0],
                    train_s=[1.0])
    outcome = Outcome()
    spans = SpanRecorder() if trace else None
    threading.Timer(0.2, gateway.proc.kill).start()
    if spans:
        with spans.span("run", None) as root_span:
            _phases(outcome, False, inputs, served, 2.0, spans, root_span)
    else:
        _phases(outcome, False, inputs, served, 2.0, None, None)
    assert outcome.failed / outcome.attempted > 0
    assert emit(outcome) is False
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["correct"] is False and last["failed"] == outcome.failed


def test_closed_loop_on_a_dead_gateway_records_unanswered(gateway):
    gateway.stop()
    record = closed_loop(gateway.address, _inputs().wires, connections=2,
                         window=4, seconds=0.2)
    assert record.attempted == 8
    assert record.dropped_connections == 2
    assert not record.latencies()


def test_closed_loop_runs_on_until_min_answers(gateway):
    record = closed_loop(gateway.address, _inputs().wires, connections=2,
                         window=4, seconds=0.001, min_answers=400)
    assert record.answered_in_window() >= 400
    assert record.deadline - record.started >= 0.001


def test_open_loop_times_from_due_not_sent():
    record = PhaseRecord(due=[1.0, 1.0], sent=[1.0, 1.5], recv=[1.1, 1.6],
                         wire=[0, 1], responses=[b"", b""])
    assert record.latencies() == [0.10000000000000009, 0.6000000000000001]


def _probe(gateway):
    def probe():
        try:
            return gateway.cpu_seconds()
        except Exception:
            return None
    return probe

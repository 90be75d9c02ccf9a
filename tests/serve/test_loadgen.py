"""The load generator: every wire mode x arrival process, with parity.

One replay drives line-protocol payloads or ``REPRO-FRAME/2`` requests,
closed- or open-loop, at a single gateway or a fleet.  Whatever the
combination, serviced verdicts must reproduce the offline reference
bit-for-bit, and the report must use one definition of every metric.
"""

import asyncio
import json
import time

import numpy as np
import pytest

from repro.corpus import SurfaceCorpusGenerator
from repro.http import HttpRequest, Trace
from repro.ids import (
    DeterministicRuleSet,
    PSigeneDetector,
    Rule,
    SignatureEngine,
)
from repro.serve import (
    DetectionGateway,
    FleetConfig,
    FleetSupervisor,
    GatewayConfig,
    SignatureStore,
    build_load_trace,
    format_report,
    replay,
    run_loadgen,
)
from repro.serve.loadgen import _slo_attainment, _summarize
from repro.surfaces import DEFAULT_SURFACES, LEGACY_SURFACES


def toy_detector():
    return DeterministicRuleSet("toy", [
        Rule(1, "union", r"union\s+select"),
        Rule(2, "quote-or", r"'\s*or\s"),
    ])


def gateway(detector, **config):
    return DetectionGateway(SignatureStore(detector), GatewayConfig(**config))


class TestWireModeByArrival:
    @pytest.mark.smoke
    @pytest.mark.parametrize("rate", [None, 2000.0], ids=["closed", "open"])
    @pytest.mark.parametrize("framed", [False, True], ids=["line", "framed"])
    def test_parity_and_offline_alert_count(
        self, small_signatures, framed, rate
    ):
        """Every wire mode x arrival process agrees with the offline
        reference on every alert flag, sid list and score, and with
        SignatureEngine.run on the alert count."""
        detector = PSigeneDetector(small_signatures)
        trace = build_load_trace(seed=9, n_benign=60, n_vulnerabilities=2)
        requests = trace.requests[:120]
        payloads = [request.flat_payload() for request in requests]
        report = asyncio.run(run_loadgen(
            gateway(detector, queue_bound=64, policy="block"),
            requests if framed else payloads,
            surfaces=LEGACY_SURFACES if framed else None,
            connections=4,
            window=8,
            rate=rate,
        ))
        assert report.completed == report.requests == len(payloads)
        assert report.shed == 0 and report.errors == 0
        assert report.parity is not None and report.parity.ok
        assert report.offered_rps == rate
        assert report.shards == 1 and report.per_shard == {}
        # The legacy selection promises the flattened payload's verdict,
        # so all four combinations share one offline count.
        engine_run = SignatureEngine(detector).run(Trace(
            name="offline",
            requests=[HttpRequest(query=p) for p in payloads],
        ))
        assert report.alerts == engine_run.alert_count

    def test_full_surface_parity_on_surface_corpus(self):
        trace = SurfaceCorpusGenerator(seed=11).mixed_trace(48)
        report = asyncio.run(run_loadgen(
            gateway(toy_detector()),
            trace.requests,
            surfaces=DEFAULT_SURFACES,
            connections=4,
            window=16,
        ))
        assert report.completed == 48
        assert report.parity is not None and report.parity.ok
        # The corpus's attack half must actually fire on some surface.
        assert report.alerts > 0


@pytest.mark.smoke
def test_framed_traffic_through_a_two_shard_fleet():
    trace = SurfaceCorpusGenerator(seed=11).mixed_trace(32)
    report = asyncio.run(run_loadgen(
        FleetSupervisor(toy_detector(), FleetConfig(shards=2)),
        trace.requests,
        surfaces=DEFAULT_SURFACES,
        connections=4,
        window=8,
    ))
    assert report.completed == 32 and report.errors == 0
    assert report.parity is not None and report.parity.ok
    assert report.alerts > 0
    assert report.shards == 2 and sorted(report.per_shard) == ["0", "1"]
    assert "shard 1: inspected=" in format_report(report)


def test_shed_answers_do_not_pull_latency_percentiles_down():
    """Percentiles cover serviced responses only: a shed refusal is
    answered without inspection, so counting it would report the cost
    of saying no instead of the cost of a verdict."""
    verdict = {"alert": False, "score": 0.0, "matched": [], "version": 1}
    responses = (
        [{"shed": True, "error": "queue full"}] * 80
        + [{"error": "line too long"}] * 5
        + [None] * 5
        + [verdict] * 10
    )
    latencies = np.array([0.0001] * 85 + [0.0] * 5 + [0.020] * 10)
    report = _summarize(
        responses, latencies, 1.0,
        slo_ms=50.0, detector="toy", shards=1, queue_bound=8,
        policy="shed", offered_rps=None, per_shard={}, parity=None,
    )
    assert (report.completed, report.shed, report.errors) == (10, 80, 5)
    assert report.latency_ms["p50_ms"] == pytest.approx(20.0)
    assert report.latency_ms["max_ms"] == pytest.approx(20.0)
    assert report.slo_attainment == pytest.approx(0.1)
    assert report.throughput_rps == pytest.approx(95.0)


RATE = 100.0  # requests per second: request i is due at i / RATE
STALL_S = 0.5
STALLED_INDEX = 2
COUNT = 10

VERDICT = json.dumps(
    {"alert": False, "score": 0.0, "matched": [], "version": 1}
).encode() + b"\n"


async def stalling_stub():
    """A line-protocol stub whose third answer blocks the loop."""
    seen = 0

    async def handle(reader, writer):
        nonlocal seen
        while await reader.readline():
            if seen == STALLED_INDEX:
                time.sleep(STALL_S)  # blocks the shared event loop
            seen += 1
            writer.write(VERDICT)
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_stall_shows_in_later_requests_latencies():
    """Open-loop latencies count from each request's due time.

    A server that stalls the event loop it shares with the generator
    also stalls the generator's sends.  Requests due during the stall go
    out late; timed from the send they would look fast, hiding the
    stall (coordinated omission).  Timed from the due time, every one
    of them carries it.
    """
    async def scenario():
        server = await stalling_stub()
        host, port = server.sockets[0].getsockname()[:2]
        try:
            return await replay(
                host, port, [f"q={i}" for i in range(COUNT)],
                rate=RATE, connections=1,
            )
        finally:
            server.close()
            await server.wait_closed()

    responses, latencies, _duration = asyncio.run(scenario())
    assert all(r is not None and r["alert"] is False for r in responses)
    # The stall begins once request 2 (due at 0.02 s) arrives and ends
    # STALL_S later, so request j > 2 cannot be answered before
    # 0.02 + STALL_S: its latency from its due time j / RATE is at least
    # the rest of the stall.
    for index in range(STALLED_INDEX + 1, COUNT):
        assert latencies[index] >= STALL_S - index / RATE, index
    # Requests answered before the stall stay fast.
    assert latencies[0] < STALL_S / 2
    # ...and the SLO fed by these latencies counts the stalled ones as
    # misses.
    assert _slo_attainment(responses, latencies, 100.0) <= (
        STALLED_INDEX / COUNT
    )


def test_open_loop_rejects_a_non_positive_rate():
    with pytest.raises(ValueError, match="rate must be positive"):
        asyncio.run(replay("127.0.0.1", 1, ["q"], rate=0.0))

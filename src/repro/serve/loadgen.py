"""Load-generator harness: replay scanner + benign traffic at a gateway.

The paper's deployment argument is empirical — signatures must hold up
under a production request stream (Section III-C).  The harness builds a
deterministic mixed trace (SQLmap and Vega scans of the vulnerable
webapp interleaved with benign portal traffic), replays it over many
concurrent pipelined connections, and reports sustained throughput,
shed rate, serviced-request latency percentiles, SLO attainment, and —
via :mod:`repro.eval.serving` — alert parity with the offline engine.

One replay covers every combination of three independent choices: the
wire mode (``surfaces``), the arrival process (``rate``), and the
target (an unstarted gateway or fleet supervisor handed to
:func:`run_loadgen`, whose config supplies queue bound and policy).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.eval.serving import (
    ParityReport,
    offline_detections,
    parity_of_responses,
)
from repro.http.request import HttpRequest
from repro.http.traffic import Trace
from repro.serve.admission import BackpressurePolicy
from repro.serve.gateway import DetectionGateway
from repro.serve.protocol import decode_response, encode_framed_request
from repro.serve.supervisor import FleetSupervisor
from repro.surfaces import InjectionSurface, score_request

__all__ = [
    "LoadReport",
    "build_load_trace",
    "format_report",
    "replay",
    "run_loadgen",
]


def build_load_trace(
    *,
    seed: int = 7,
    n_benign: int = 800,
    n_vulnerabilities: int = 12,
    name: str = "loadgen-mix",
) -> Trace:
    """A deterministic attack/benign mix for replay.

    SQLmap and Vega scans of a small vulnerable webapp shuffled together
    with benign portal traffic — the arrival order a perimeter IDS sees,
    not a tidy attacks-then-benign block.
    """
    from repro.corpus.benign import BenignTrafficGenerator
    from repro.corpus.webapp import VulnerableWebApp
    from repro.scanners import SqlmapSimulator, VegaSimulator

    app = VulnerableWebApp(seed=seed, n_vulnerabilities=n_vulnerabilities)
    requests = (
        SqlmapSimulator(app, seed=seed + 1).scan().requests
        + VegaSimulator(app, seed=seed + 2).scan().requests
        + BenignTrafficGenerator(seed=seed + 3).trace(n_benign).requests
    )
    order = np.random.default_rng(seed).permutation(len(requests))
    return Trace(name=name, requests=[requests[i] for i in order])


@dataclass
class LoadReport:
    """Everything one replay measured.

    Attributes:
        detector: detector name on the serving side.
        shards: shard process count (1 for a single gateway).
        queue_bound: admission queue capacity (per shard).
        policy: backpressure policy (per shard).
        offered_rps: open-loop offered rate (None for closed-loop runs).
        requests: payloads offered.
        completed: payloads answered with a verdict.
        shed: payloads refused by admission control.
        errors: undecodable or error responses.
        alerts: verdicts that alerted.
        duration_s: from the start of the replay to the last answer.
        throughput_rps: answered (verdict or shed) responses per second.
        slo_ms: the latency objective judged against.
        slo_attainment: fraction of *offered* payloads answered with a
            verdict within ``slo_ms`` — a shed or missing response is an
            SLO miss, so attainment cannot be gamed by shedding.
        latency_ms: client-observed p50/p95/p99/mean/max over serviced
            requests only (instant shed refusals would pull them down).
        per_shard: ``{shard_id: {"inspected": n, "shed": n, ...}}``
            from a fleet's supervisor after the replay; empty for a
            single gateway.
        parity: diff against the offline engine (None when skipped).
    """

    detector: str
    shards: int
    queue_bound: int
    policy: str
    offered_rps: float | None
    requests: int
    completed: int
    shed: int
    errors: int
    alerts: int
    duration_s: float
    throughput_rps: float
    slo_ms: float
    slo_attainment: float
    latency_ms: dict[str, float] = field(default_factory=dict)
    per_shard: dict[str, dict] = field(default_factory=dict)
    parity: ParityReport | None = None

    @property
    def shed_rate(self) -> float:
        """Fraction of offered payloads refused."""
        return self.shed / self.requests if self.requests else 0.0

    @property
    def serviced_rps(self) -> float:
        """Verdict-carrying responses per second."""
        return self.completed / self.duration_s if self.duration_s else 0.0


def _wires(
    traffic: list[str] | list[HttpRequest],
    surfaces: tuple[InjectionSurface, ...] | None,
) -> list[bytes]:
    """Encode ``traffic`` for the wire mode ``surfaces`` selects."""
    if surfaces is None:
        return [p.encode("utf-8", "replace") + b"\n" for p in traffic]
    return [encode_framed_request(request, surfaces) for request in traffic]


def _offline(
    detector,
    traffic: list[str] | list[HttpRequest],
    surfaces: tuple[InjectionSurface, ...] | None,
) -> list:
    """The parity reference for the wire mode ``surfaces`` selects: the
    surface-aware fold for framed traffic, so a wire/extraction split
    between gateway and library fails even when both "look alerted"."""
    if surfaces is None:
        return offline_detections(detector, traffic)
    return [
        score_request(detector.inspect, request, surfaces)
        for request in traffic
    ]


async def replay(
    host: str,
    port: int,
    traffic: list[str] | list[HttpRequest],
    *,
    surfaces: tuple[InjectionSurface, ...] | None = None,
    connections: int = 8,
    window: int = 32,
    rate: float | None = None,
) -> tuple[list[dict | None], np.ndarray, float]:
    """Replay ``traffic`` and return (responses, latencies_s, duration_s).

    Requests are dealt round-robin over ``connections`` pipelined
    connections: payload strings on the line protocol, or — with
    ``surfaces`` — whole requests as ``REPRO-FRAME/2`` frames.

    Closed loop (``rate is None``) keeps ``window`` requests in flight
    per connection and so measures capacity; latency runs from each
    send.  Open loop sends request ``i`` at ``t0 + i/rate`` whatever the
    server does, and times it from that *due* time: a stall in the
    generator delays every request due during it, and timing from the
    send would hide those delays (coordinated omission).

    Lines are decoded after the run so client JSON work never distorts
    the send schedule.  ``responses[i]`` stays None if the connection
    died before answering.
    """
    if rate is not None and rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    wires = _wires(traffic, surfaces)
    raw: list[bytes | None] = [None] * len(wires)
    latencies = np.zeros(len(wires), dtype=np.float64)
    lanes = max(1, connections)
    started = time.perf_counter()
    finished_at = started

    async def drive(lane: range) -> None:
        nonlocal finished_at
        reader, writer = await asyncio.open_connection(host, port)
        inflight = asyncio.Semaphore(max(1, window))
        # Where each request's latency clock starts: its send (closed
        # loop) or its due time (open loop).
        clock: dict[int, float] = {}

        async def collect() -> None:
            nonlocal finished_at
            try:
                for index in lane:
                    line = await reader.readline()
                    if not line:
                        return
                    finished_at = time.perf_counter()
                    latencies[index] = finished_at - clock[index]
                    raw[index] = line
                    inflight.release()
            finally:
                # Unblock the sender even if the server hung up early;
                # its writes will then fail fast instead of deadlocking.
                for _ in lane:
                    inflight.release()

        collector = asyncio.get_running_loop().create_task(collect())
        try:
            for index in lane:
                if rate is None:
                    await inflight.acquire()
                    clock[index] = time.perf_counter()
                else:
                    clock[index] = started + index / rate
                    delay = clock[index] - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                if collector.done():
                    break
                writer.write(wires[index])
                await writer.drain()
            await collector
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            collector.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    await asyncio.gather(*(
        drive(range(first, len(wires), lanes))
        for first in range(min(lanes, len(wires)))
    ))
    responses: list[dict | None] = [None] * len(raw)
    for index, line in enumerate(raw):
        if line is None:
            continue
        try:
            responses[index] = decode_response(line)
        except ValueError:
            responses[index] = {"error": "undecodable response"}
    return responses, latencies, max(finished_at - started, 1e-9)


def _serviced(responses: list[dict | None]) -> np.ndarray:
    """Mask of responses carrying a verdict: not shed, error or missing."""
    return np.array([
        r is not None and not r.get("shed") and "error" not in r
        for r in responses
    ], dtype=bool)


def _percentiles_ms(latencies: np.ndarray) -> dict[str, float]:
    ms = latencies * 1e3 if latencies.size else np.zeros(1)
    p50, p95, p99 = np.percentile(ms, [50, 95, 99])
    return {
        "p50_ms": float(p50), "p95_ms": float(p95), "p99_ms": float(p99),
        "mean_ms": float(ms.mean()), "max_ms": float(ms.max()),
    }


def _slo_attainment(
    responses: list[dict | None], latencies: np.ndarray, slo_ms: float
) -> float:
    """Fraction of offered payloads serviced within the objective."""
    if not responses:
        return 0.0
    serviced = latencies[_serviced(responses)]
    return int(np.count_nonzero(serviced * 1e3 <= slo_ms)) / len(responses)


def _summarize(
    responses: list[dict | None], latencies: np.ndarray, duration_s: float,
    *,
    slo_ms: float,
    **server,
) -> LoadReport:
    """Count, time and judge one replay's responses; ``server`` carries
    the :class:`LoadReport` fields a replay cannot observe."""
    serviced = _serviced(responses)
    completed = int(serviced.sum())
    shed = sum(1 for r in responses if r is not None and r.get("shed"))
    answered = sum(1 for r in responses if r is not None)
    return LoadReport(
        requests=len(responses),
        completed=completed,
        shed=shed,
        errors=answered - shed - completed,
        alerts=sum(1 for r in responses if r and r.get("alert")),
        duration_s=duration_s,
        throughput_rps=answered / duration_s if duration_s > 0 else 0.0,
        slo_ms=slo_ms,
        slo_attainment=_slo_attainment(responses, latencies, slo_ms),
        latency_ms=_percentiles_ms(latencies[serviced]),
        **server,
    )


async def run_loadgen(
    server: DetectionGateway | FleetSupervisor,
    traffic: list[str] | list[HttpRequest],
    *,
    surfaces: tuple[InjectionSurface, ...] | None = None,
    connections: int = 8,
    window: int = 32,
    rate: float | None = None,
    slo_ms: float = 50.0,
    check_parity: bool = True,
) -> LoadReport:
    """Start ``server``, :func:`replay` ``traffic`` at it, and summarize.

    ``server`` is an unstarted gateway or fleet supervisor, stopped
    before this returns; a fleet's per-shard counters are pulled before
    shutdown.  With ``check_parity`` serviced responses are diffed
    against the offline reference for the wire mode.
    """
    detector = server.store.current().detector
    fleet = isinstance(server, FleetSupervisor)
    host, port = await server.start()
    try:
        responses, latencies, duration = await replay(
            host, port, traffic,
            surfaces=surfaces, connections=connections, window=window,
            rate=rate,
        )
        shard_stats = (await server.stats())["shards"] if fleet else {}
    finally:
        await server.stop()
    parity = None
    if check_parity:
        parity = parity_of_responses(
            _offline(detector, traffic, surfaces), responses,
        )
    return _summarize(
        responses, latencies, duration,
        detector=detector.name,
        shards=server.config.shards if fleet else 1,
        queue_bound=server.config.queue_bound,
        policy=BackpressurePolicy(server.config.policy).value,
        offered_rps=rate,
        slo_ms=slo_ms,
        per_shard={
            shard_id: dict(info["counters"])
            for shard_id, info in shard_stats.items()
        },
        parity=parity,
    )


def format_report(report: LoadReport) -> str:
    """Multi-line human-readable rendering of one replay."""
    offered = (
        f"offered={report.offered_rps:,.0f} req/s (open loop)"
        if report.offered_rps is not None
        else "closed loop"
    )
    lines = [
        f"detector={report.detector} shards={report.shards} "
        f"queue={report.queue_bound}/shard policy={report.policy} "
        f"{offered}",
        f"  requests={report.requests} completed={report.completed} "
        f"shed={report.shed} ({report.shed_rate:.1%}) "
        f"errors={report.errors} alerts={report.alerts}",
        f"  duration={report.duration_s:.3f}s "
        f"throughput={report.throughput_rps:,.0f} req/s "
        f"(serviced {report.serviced_rps:,.0f}/s)",
        f"  slo<= {report.slo_ms:g}ms attainment="
        f"{report.slo_attainment:.1%}",
        "  latency p50={p50_ms:.3f}ms p95={p95_ms:.3f}ms "
        "p99={p99_ms:.3f}ms mean={mean_ms:.3f}ms max={max_ms:.3f}ms"
        .format(**report.latency_ms),
    ]
    for shard_id in sorted(report.per_shard):
        counters = report.per_shard[shard_id]
        lines.append(
            f"  shard {shard_id}: inspected={counters.get('inspected', 0)} "
            f"alerted={counters.get('alerted', 0)} "
            f"shed={counters.get('shed', 0)} "
            f"connections={counters.get('connections', 0)}"
        )
    if report.parity is not None:
        lines.append(f"  {report.parity.summary()}")
    return "\n".join(lines)

"""Load-generator harness: replay scanner + benign traffic at a gateway.

The paper's deployment argument is empirical — signatures must hold up
under a production request stream (Section III-C).  The harness builds a
deterministic mixed trace (SQLmap and Vega scans of the vulnerable
webapp interleaved with benign portal traffic), replays it over many
concurrent pipelined connections, and reports sustained throughput,
shed rate, client-observed latency percentiles, and — via
:mod:`repro.eval.serving` — alert parity with the offline engine.
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
from repro.serve.gateway import DetectionGateway, GatewayConfig
from repro.serve.protocol import decode_response, encode_framed_request
from repro.serve.store import SignatureStore
from repro.surfaces import InjectionSurface, LEGACY_SURFACES, score_request

__all__ = [
    "FleetLoadReport",
    "LoadReport",
    "build_load_trace",
    "format_fleet_report",
    "format_report",
    "open_loop_replay",
    "replay",
    "replay_framed",
    "run_fleet_loadgen",
    "run_framed_loadgen",
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
        queue_bound: admission queue capacity during the run.
        policy: backpressure policy during the run.
        requests: payloads offered.
        completed: payloads answered with a verdict.
        shed: payloads refused by admission control.
        errors: undecodable or error responses.
        alerts: verdicts that alerted.
        duration_s: wall-clock of the replay.
        throughput_rps: completed-plus-shed responses per second.
        serviced_rps: completed (verdict-carrying) responses per second —
            the honest "sustained" number when shedding is active.
        latency_ms: client-observed percentiles (p50/p95/p99/mean/max).
        parity: diff against the offline engine (None when skipped).
    """

    detector: str
    queue_bound: int
    policy: str
    requests: int
    completed: int
    shed: int
    errors: int
    alerts: int
    duration_s: float
    throughput_rps: float
    latency_ms: dict[str, float] = field(default_factory=dict)
    parity: ParityReport | None = None

    @property
    def shed_rate(self) -> float:
        """Fraction of offered payloads refused."""
        return self.shed / self.requests if self.requests else 0.0

    @property
    def serviced_rps(self) -> float:
        """Verdict-carrying responses per second."""
        return self.completed / self.duration_s if self.duration_s else 0.0


async def replay(
    host: str,
    port: int,
    payloads: list[str],
    *,
    connections: int = 8,
    window: int = 32,
) -> tuple[list[dict | None], np.ndarray, float]:
    """Replay ``payloads`` and return (responses, latencies_s, duration_s).

    Payloads are dealt round-robin over ``connections`` pipelined
    connections, each keeping up to ``window`` requests in flight.
    ``responses[i]`` stays None if the connection died before answering.
    """
    wires = [
        payload.encode("utf-8", errors="replace") + b"\n"
        for payload in payloads
    ]
    return await _replay_wires(
        host, port, wires, connections=connections, window=window
    )


async def replay_framed(
    host: str,
    port: int,
    requests: list[HttpRequest],
    *,
    surfaces: tuple[InjectionSurface, ...] = LEGACY_SURFACES,
    connections: int = 8,
    window: int = 32,
) -> tuple[list[dict | None], np.ndarray, float]:
    """Framed-mode :func:`replay`: whole requests over wire format v2.

    Each request ships as one ``REPRO-FRAME/2`` message carrying the
    surface selection; responses decode to surface-attributed verdict
    objects, shaped like :func:`replay`'s return.
    """
    wires = [
        encode_framed_request(request, surfaces) for request in requests
    ]
    return await _replay_wires(
        host, port, wires, connections=connections, window=window
    )


async def _replay_wires(
    host: str,
    port: int,
    wires: list[bytes],
    *,
    connections: int,
    window: int,
) -> tuple[list[dict | None], np.ndarray, float]:
    responses: list[dict | None] = [None] * len(wires)
    latencies = np.zeros(len(wires), dtype=np.float64)
    shards: list[list[tuple[int, bytes]]] = [
        [] for _ in range(max(1, connections))
    ]
    for index, wire in enumerate(wires):
        shards[index % len(shards)].append((index, wire))
    started = time.perf_counter()
    await asyncio.gather(*(
        _drive_connection(host, port, shard, responses, latencies, window)
        for shard in shards if shard
    ))
    return responses, latencies, time.perf_counter() - started


async def _drive_connection(
    host: str,
    port: int,
    jobs: list[tuple[int, bytes]],
    responses: list[dict | None],
    latencies: np.ndarray,
    window: int,
) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    inflight = asyncio.Semaphore(max(1, window))
    sent_at: dict[int, float] = {}

    async def collect() -> None:
        try:
            for index, _ in jobs:
                line = await reader.readline()
                if not line:
                    return
                latencies[index] = time.perf_counter() - sent_at[index]
                try:
                    responses[index] = decode_response(line)
                except ValueError:
                    responses[index] = {"error": "undecodable response"}
                inflight.release()
        finally:
            # Unblock the sender even if the server hung up early; its
            # writes will then fail fast instead of deadlocking.
            for _ in jobs:
                inflight.release()

    collector = asyncio.get_running_loop().create_task(collect())
    try:
        for index, wire in jobs:
            await inflight.acquire()
            if collector.done():
                break
            sent_at[index] = time.perf_counter()
            writer.write(wire)
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


def _percentiles_ms(latencies: np.ndarray) -> dict[str, float]:
    answered = latencies[latencies > 0]
    if answered.size == 0:
        return {k: 0.0 for k in
                ("p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms")}
    return {
        "p50_ms": float(np.percentile(answered, 50) * 1e3),
        "p95_ms": float(np.percentile(answered, 95) * 1e3),
        "p99_ms": float(np.percentile(answered, 99) * 1e3),
        "mean_ms": float(answered.mean() * 1e3),
        "max_ms": float(answered.max() * 1e3),
    }


async def run_loadgen(
    store: SignatureStore,
    payloads: list[str],
    *,
    queue_bound: int = 1024,
    policy: str = "block",
    connections: int = 8,
    window: int = 32,
    check_parity: bool = True,
) -> LoadReport:
    """Spawn an in-process gateway, replay, and summarize.

    With ``check_parity`` the serviced responses are diffed against the
    offline detector (shed responses are excluded — there is nothing to
    compare).
    """
    gateway = DetectionGateway(store, GatewayConfig(
        queue_bound=queue_bound,
        policy=policy,
    ))
    host, port = await gateway.start()
    try:
        responses, latencies, duration = await replay(
            host, port, payloads,
            connections=connections, window=window,
        )
    finally:
        await gateway.stop()
    parity = None
    if check_parity:
        parity = parity_of_responses(
            offline_detections(store.current().detector, payloads),
            responses,
        )
    shed = sum(1 for r in responses if r and r.get("shed"))
    errors = sum(
        1 for r in responses
        if r is not None and "error" in r and not r.get("shed")
    )
    completed = sum(
        1 for r in responses
        if r is not None and not r.get("shed") and "error" not in r
    )
    answered = sum(1 for r in responses if r is not None)
    return LoadReport(
        detector=store.current().detector.name,
        queue_bound=queue_bound,
        policy=policy,
        requests=len(payloads),
        completed=completed,
        shed=shed,
        errors=errors,
        alerts=sum(
            1 for r in responses if r is not None and r.get("alert")
        ),
        duration_s=duration,
        throughput_rps=answered / duration if duration > 0 else 0.0,
        latency_ms=_percentiles_ms(latencies),
        parity=parity,
    )


async def run_framed_loadgen(
    store: SignatureStore,
    requests: list[HttpRequest],
    *,
    surfaces: tuple[InjectionSurface, ...] = LEGACY_SURFACES,
    queue_bound: int = 1024,
    policy: str = "block",
    connections: int = 8,
    window: int = 32,
    check_parity: bool = True,
) -> LoadReport:
    """Framed-mode :func:`run_loadgen`: replay whole requests.

    Parity is judged against the offline surface-aware fold
    (:func:`repro.surfaces.score_request` with the same selection), so a
    wire/extraction divergence between gateway and library fails the
    check even when both "look alerted".
    """
    gateway = DetectionGateway(store, GatewayConfig(
        queue_bound=queue_bound,
        policy=policy,
    ))
    host, port = await gateway.start()
    try:
        responses, latencies, duration = await replay_framed(
            host, port, requests,
            surfaces=surfaces, connections=connections, window=window,
        )
    finally:
        await gateway.stop()
    parity = None
    if check_parity:
        detector = store.current().detector
        parity = parity_of_responses(
            [
                score_request(detector.inspect, request, surfaces)
                for request in requests
            ],
            responses,
        )
    shed = sum(1 for r in responses if r and r.get("shed"))
    errors = sum(
        1 for r in responses
        if r is not None and "error" in r and not r.get("shed")
    )
    completed = sum(
        1 for r in responses
        if r is not None and not r.get("shed") and "error" not in r
    )
    answered = sum(1 for r in responses if r is not None)
    return LoadReport(
        detector=store.current().detector.name,
        queue_bound=queue_bound,
        policy=policy,
        requests=len(requests),
        completed=completed,
        shed=shed,
        errors=errors,
        alerts=sum(
            1 for r in responses if r is not None and r.get("alert")
        ),
        duration_s=duration,
        throughput_rps=answered / duration if duration > 0 else 0.0,
        latency_ms=_percentiles_ms(latencies),
        parity=parity,
    )


async def open_loop_replay(
    host: str,
    port: int,
    payloads: list[str],
    *,
    rate: float,
    connections: int = 8,
) -> tuple[list[dict | None], np.ndarray, float]:
    """Offer ``payloads`` at a fixed ``rate`` regardless of responses.

    The closed-loop :func:`replay` slows down when the server does —
    it can never overload anything, so it measures *capacity*.  The
    open-loop generator models independent clients: payload ``i`` is
    sent at ``t0 + i/rate`` (dealt round-robin over ``connections``)
    whether or not earlier responses arrived, which is how real traffic
    behaves and the only way to observe shedding and queueing delay at
    offered loads above capacity.

    Each latency is timed from the request's *due* time
    (``t0 + i/rate``), not from when it was actually sent: a stall in
    the generator or the socket delays every request due during it, and
    those delays belong in the percentiles (timing from the send would
    hide them — coordinated omission).

    Response lines are stored raw and decoded after the run so client
    CPU spent on JSON never distorts the offered schedule.

    Returns ``(responses, latencies_s, duration_s)`` shaped exactly
    like :func:`replay`.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    responses: list[dict | None] = [None] * len(payloads)
    latencies = np.zeros(len(payloads), dtype=np.float64)
    lanes: list[list[int]] = [[] for _ in range(max(1, connections))]
    for index in range(len(payloads)):
        lanes[index % len(lanes)].append(index)
    raw: list[bytes | None] = [None] * len(payloads)
    started = time.perf_counter()
    finished_at = started

    async def _drive(lane: list[int]) -> None:
        nonlocal finished_at
        reader, writer = await asyncio.open_connection(host, port)

        async def collect() -> None:
            nonlocal finished_at
            for index in lane:
                line = await reader.readline()
                if not line:
                    return
                now = time.perf_counter()
                latencies[index] = now - (started + index / rate)
                raw[index] = line
                if now > finished_at:
                    finished_at = now

        collector = asyncio.get_running_loop().create_task(collect())
        try:
            for index in lane:
                delay = started + index / rate - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                writer.write(
                    payloads[index].encode("utf-8", errors="replace")
                    + b"\n"
                )
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

    await asyncio.gather(*(_drive(lane) for lane in lanes if lane))
    for index, line in enumerate(raw):
        if line is None:
            continue
        try:
            responses[index] = decode_response(line)
        except ValueError:
            responses[index] = {"error": "undecodable response"}
    return responses, latencies, max(finished_at - started, 1e-9)


@dataclass
class FleetLoadReport:
    """One replay against a sharded fleet, with per-shard attribution.

    Attributes:
        detector: detector name on the serving side.
        shards: shard process count.
        queue_bound: per-shard admission queue capacity.
        policy: per-shard backpressure policy.
        offered_rps: open-loop offered rate (None for closed-loop runs).
        requests: payloads offered.
        completed: payloads answered with a verdict.
        shed: payloads refused by admission control.
        errors: undecodable or error responses.
        alerts: verdicts that alerted.
        duration_s: wall-clock of the replay.
        throughput_rps: answered (verdict or shed) responses per second.
        slo_ms: the latency objective judged against.
        slo_attainment: fraction of *offered* payloads answered with a
            verdict within ``slo_ms`` — a shed or missing response is an
            SLO miss, so attainment cannot be gamed by shedding.
        latency_ms: client-observed percentiles over serviced requests.
        per_shard: ``{shard_id: {"inspected": n, "shed": n, ...}}``
            pulled from the supervisor after the replay — the kernel's
            connection balancing made visible.
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


def _slo_attainment(
    responses: list[dict | None],
    latencies: np.ndarray,
    slo_ms: float,
) -> float:
    """Fraction of offered payloads serviced within the objective."""
    if not responses:
        return 0.0
    within = 0
    for index, response in enumerate(responses):
        if response is None or response.get("shed") or "error" in response:
            continue
        if latencies[index] * 1e3 <= slo_ms:
            within += 1
    return within / len(responses)


async def run_fleet_loadgen(
    detector,
    payloads: list[str],
    *,
    shards: int = 2,
    queue_bound: int = 1024,
    policy: str = "block",
    connections: int = 8,
    window: int = 32,
    rate: float | None = None,
    slo_ms: float = 50.0,
    check_parity: bool = True,
) -> FleetLoadReport:
    """Spawn a fleet, replay (closed- or open-loop), and summarize.

    With ``rate`` set the open-loop generator offers that many requests
    per second fleet-wide; without it the closed-loop :func:`replay`
    measures capacity.  Per-shard counters come from the supervisor's
    merged telemetry, pulled *before* shutdown.
    """
    from repro.serve.supervisor import FleetConfig, FleetSupervisor

    supervisor = FleetSupervisor(detector, FleetConfig(
        shards=shards,
        queue_bound=queue_bound,
        policy=policy,
    ))
    host, port = await supervisor.start()
    try:
        if rate is None:
            responses, latencies, duration = await replay(
                host, port, payloads,
                connections=connections, window=window,
            )
        else:
            responses, latencies, duration = await open_loop_replay(
                host, port, payloads, rate=rate, connections=connections,
            )
        stats = await supervisor.stats()
    finally:
        await supervisor.stop()
    parity = None
    if check_parity:
        parity = parity_of_responses(
            offline_detections(detector, payloads), responses,
        )
    shed = sum(1 for r in responses if r and r.get("shed"))
    errors = sum(
        1 for r in responses
        if r is not None and "error" in r and not r.get("shed")
    )
    completed = sum(
        1 for r in responses
        if r is not None and not r.get("shed") and "error" not in r
    )
    answered = sum(1 for r in responses if r is not None)
    serviced_latencies = np.array([
        latencies[i] for i, r in enumerate(responses)
        if r is not None and not r.get("shed") and "error" not in r
    ])
    return FleetLoadReport(
        detector=stats["store"]["detector"],
        shards=shards,
        queue_bound=queue_bound,
        policy=policy,
        offered_rps=rate,
        requests=len(payloads),
        completed=completed,
        shed=shed,
        errors=errors,
        alerts=sum(
            1 for r in responses if r is not None and r.get("alert")
        ),
        duration_s=duration,
        throughput_rps=answered / duration if duration > 0 else 0.0,
        slo_ms=slo_ms,
        slo_attainment=_slo_attainment(responses, latencies, slo_ms),
        latency_ms=_percentiles_ms(serviced_latencies),
        per_shard={
            shard_id: dict(info["counters"])
            for shard_id, info in stats["shards"].items()
        },
        parity=parity,
    )


def format_fleet_report(report: FleetLoadReport) -> str:
    """Multi-line human-readable rendering of one fleet replay."""
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


def format_report(report: LoadReport) -> str:
    """Multi-line human-readable rendering of one replay."""
    lines = [
        f"detector={report.detector} queue={report.queue_bound} "
        f"policy={report.policy}",
        f"  requests={report.requests} completed={report.completed} "
        f"shed={report.shed} ({report.shed_rate:.1%}) "
        f"errors={report.errors} alerts={report.alerts}",
        f"  duration={report.duration_s:.3f}s "
        f"throughput={report.throughput_rps:,.0f} req/s "
        f"(serviced {report.serviced_rps:,.0f}/s)",
        "  latency p50={p50_ms:.3f}ms p95={p95_ms:.3f}ms "
        "p99={p99_ms:.3f}ms mean={mean_ms:.3f}ms max={max_ms:.3f}ms"
        .format(**report.latency_ms),
    ]
    if report.parity is not None:
        lines.append(f"  {report.parity.summary()}")
    return "\n".join(lines)

"""The two workloads and the metrics each run reports.

Every workload trains its served set (the full-size pSigene pipeline),
starts the gateway in a child process, pins it and this client to one
CPU, then runs two phases against it from this process:

- ``rtt``: one connection, one request at a time;
- the load phase: a closed loop of 2 connections x window 16, in
  segments scaled by a reference timing of the CPU's current speed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
phases with spans recorded by this harness, adds an open-loop phase
with signature reloads (``line-mix``), and times each layer's public
functions on the workload's own inputs.
"""

from __future__ import annotations

import gc
import json
import os
import re
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.serialize import signature_set_to_json

from harness import layers
from harness.driver import PhaseRecord, closed_loop, open_loop
from harness.gateway import GatewayError, GatewayProcess
from harness.inputs import (
    FramedInputs,
    LineInputs,
    framed_inputs,
    line_inputs,
    recorded_digest,
    reload_config,
    training_config,
)
from harness.spans import SpanRecorder
from harness.stats import median, percentile, supported, tail_percentile
from harness.training import signature_digest, train, train_by_phase
from harness.verify import Referee

SETUP_REPS = 3
#: Share of ``--seconds`` for the rtt phase; the load phase gets the rest.
RTT_SHARE = 0.25
#: The untraced load phase runs in segments this long, each followed
#: by one reference measurement (see :func:`reference_s`).
SEGMENT_S = 0.4
#: A segment runs on past ``SEGMENT_S`` until it has this many answers,
#: so its p99 has ten samples beyond it however slow the program is.
SEGMENT_MIN_ANSWERS = 1000
#: What :func:`reference_s` is taken to last at nominal speed; the
#: end-to-end timings are scaled to it.
REFERENCE_NOMINAL_S = 0.010
#: Round trips per rtt run, by percentile; the best run is a note.
CHUNK = {50: 250, 99: 1000}
CONNECTIONS = 2
WINDOW = 16
#: The traced run's open-loop phase (``line-mix`` only).
OPEN_LOOP_RATE = 2000.0
#: 500 arrivals apart, so every p99 run of 1000 requests holds two.
RELOAD_EVERY_S = 0.25
#: Workload name -> whether it sends REPRO-FRAME/2 whole requests.
WORKLOADS = {"line-mix": False, "framed-surfaces": True}


@dataclass
class Outcome:
    """What a run prints: metrics plus failure accounting."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


@dataclass
class Served:
    gateway: GatewayProcess
    versions: dict
    reloads: list[tuple[bytes, object]]
    setup_s: list[float]
    train_s: list[float]


def _out_dir(root: Path) -> Path:
    path = root / ".perfbench_out"
    path.mkdir(exist_ok=True)
    return path


def _check_digest(outcome: Outcome, config, signature_set) -> None:
    outcome.attempted += 1
    expected = recorded_digest(config)
    actual = signature_digest(signature_set)
    if actual != expected:
        outcome.failed += 1
        outcome.notes.append(
            f"DIGEST MISMATCH seed={config.seed}: {actual} != {expected}"
        )


def set_up(root: Path, reps: int, outcome: Outcome,
           spans: SpanRecorder | None = None, parent: int | None = None,
           reload_set: bool = False) -> Served:
    """Train the served set, start the gateway, wait for /healthz.

    Repeated *reps* times (each a full set-up, the earlier gateways
    stopped) so ``setup_s`` is a median.  With *spans*, one extra
    phase-by-phase training is traced after the timed set-ups.  With
    *reload_set*, the alternate set the open loop swaps in is trained
    too.
    """
    config = training_config()
    sig_path = _out_dir(root) / f"signatures-{os.getpid()}.json"
    setup_s, train_s = [], []
    gateway = None
    signature_set = alternate = None
    try:
        for _ in range(reps):
            if gateway is not None:
                gateway.stop()
            started = time.perf_counter()
            signature_set, seconds = train(config)
            train_s.append(seconds)
            sig_path.write_text(signature_set_to_json(signature_set))
            if reload_set:
                alternate, _ = train(reload_config())
            gateway = GatewayProcess(root, sig_path)
            gateway.wait_ready()
            setup_s.append(time.perf_counter() - started)
            _check_digest(outcome, config, signature_set)
            if reload_set:
                _check_digest(outcome, reload_config(), alternate)
        if spans is not None:
            with spans.span("setup.traced_training", parent) as phase:
                traced = train_by_phase(config, spans, phase)
            _check_digest(outcome, config, traced)
    except BaseException:
        if gateway is not None:
            gateway.stop()
        raise
    reloads = []
    if reload_set:
        # Alternate: first swap in the other seed's set, then back.
        reloads = [(signature_set_to_json(s).encode(), s)
                   for s in (alternate, signature_set)]
    return Served(
        gateway=gateway,
        versions={1: signature_set},
        reloads=reloads,
        setup_s=setup_s,
        train_s=train_s,
    )


def _server_probe(gateway: GatewayProcess):
    """The gateway's CPU seconds, or None once it is gone."""
    def probe():
        try:
            return gateway.cpu_seconds()
        except GatewayError:
            return None
    return probe


def _stats(gateway: GatewayProcess) -> dict | None:
    try:
        return gateway.stats()
    except (GatewayError, OSError):
        return None


def _closed_load(served: Served, wires, seconds: float,
                 spans: SpanRecorder | None, parent: int | None,
                 offset: int, min_answers: int = 0) -> PhaseRecord:
    return closed_loop(
        served.gateway.address, wires, connections=CONNECTIONS,
        window=WINDOW, seconds=seconds,
        probe=_server_probe(served.gateway),
        spans=spans, parent=parent, offset=offset, min_answers=min_answers,
    )


def _open_load(served: Served, wires, seconds: float, spans: SpanRecorder,
               parent: int, offset: int) -> PhaseRecord:
    bodies = [body for body, _ in served.reloads]
    reloads = [
        (RELOAD_EVERY_S / 2 + i * RELOAD_EVERY_S, bodies[i % len(bodies)])
        for i in range(int(seconds / RELOAD_EVERY_S))
    ]
    return open_loop(
        served.gateway.address, wires, rate=OPEN_LOOP_RATE,
        seconds=seconds, connections=CONNECTIONS, reloads=reloads,
        probe=_server_probe(served.gateway),
        spans=spans, parent=parent, offset=offset,
    )


def _account_reloads(record: PhaseRecord, served: Served,
                     outcome: Outcome) -> None:
    """Map each reload's reply version to the set it published.

    Reload *i* of a phase posts ``served.reloads[i % len]`` (see
    :func:`_open_load`), and replies are matched to posts by send time.
    """
    for position, (_sent, _done, status, reply) in enumerate(
        sorted(record.reloads, key=lambda r: r[0])
    ):
        outcome.attempted += 1
        version = reply.get("version")
        if status != 200 or not isinstance(version, int):
            outcome.failed += 1
            outcome.notes.append(f"reload failed: {status} {reply}")
            continue
        served.versions[version] = served.reloads[
            position % len(served.reloads)
        ][1]


def _check(record: PhaseRecord, referee: Referee, outcome: Outcome,
           phase: str) -> None:
    unanswered, mismatched = referee.check(record)
    outcome.attempted += record.attempted
    outcome.failed += unanswered + mismatched
    if unanswered or mismatched:
        outcome.notes.append(
            f"{phase}: {unanswered} unanswered, {mismatched} mismatched "
            f"of {record.attempted}"
        )


def reference_s() -> float:
    """Seconds one fixed piece of pure-Python work takes right now on
    this core (the faster of two tries).

    It stands for the CPU's current speed: the VM this benchmark was
    built on ran the same work up to half again slower for seconds to
    minutes at a time.  It calls nothing in the program.
    """
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        total, table = 0, {}
        for i in range(_REFERENCE_LOOPS):
            total += i * i
            table[i & 255] = total
            if not i % 50:
                json.dumps({"i": i, "v": [1, 2, 3]})
                _REFERENCE_RE.findall("id=1&q=22&page=333")
        best = min(best, time.perf_counter() - started)
    return best


_REFERENCE_LOOPS = 40000
_REFERENCE_RE = re.compile(r"(\w+)=(\d+)")


def _pin(gateway: GatewayProcess) -> None:
    """Run the gateway and this client on one CPU, so one CPU's speed
    governs a request and :func:`reference_s` can measure it."""
    cpu = {max(os.sched_getaffinity(0))}
    try:
        os.sched_setaffinity(gateway.pid, cpu)
    except ProcessLookupError:
        return  # the gateway is gone; the phases count the failures
    os.sched_setaffinity(0, cpu)


def _segmented_load(served: Served, wires, seconds: float, offset: int
                    ) -> tuple[list[PhaseRecord], list[float]]:
    """Closed-load segments with a reference measurement before the
    first and after each; returns the segments and the references.
    Stops early once a segment loses a connection (the gateway is
    gone; that segment's requests count as failed)."""
    records, references = [], [reference_s()]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() + SEGMENT_S <= deadline:
        record = _closed_load(served, wires, SEGMENT_S, None, None, offset,
                              SEGMENT_MIN_ANSWERS)
        offset += len(record.wire)
        records.append(record)
        references.append(reference_s())
        if record.dropped_connections:
            break
    return records, references


def _span(spans: SpanRecorder | None, name: str, parent: int | None):
    """A span when tracing, else a no-op yielding ``None``."""
    return spans.span(name, parent) if spans else nullcontext()


def run(root: Path, workload: str, seed: int, seconds: float,
        trace: bool) -> Outcome:
    framed = WORKLOADS[workload]
    outcome = Outcome()
    inputs: LineInputs | FramedInputs = (
        framed_inputs(seed) if framed else line_inputs(seed)
    )
    spans = SpanRecorder() if trace else None
    with _span(spans, "run", None) as root_span:
        served = set_up(root, 1 if trace else SETUP_REPS, outcome, spans,
                        root_span, reload_set=trace and not framed)
        try:
            _pin(served.gateway)
            # The client allocates per request; keep collector pauses
            # of the set-up's garbage out of the measured phases.
            gc.collect()
            gc.freeze()
            gc.disable()
            _phases(outcome, framed, inputs, served, seconds, spans,
                    root_span)
        finally:
            gc.enable()
            served.gateway.stop()
    if spans:
        spans.write(_out_dir(root) /
                    f"spans-{workload}-{seed}-{os.getpid()}.jsonl")
    return outcome


def _phases(outcome: Outcome, framed: bool, inputs, served: Served,
            seconds: float, spans: SpanRecorder | None,
            root_span: int | None) -> None:
    """Untraced: rtt, then the closed load.  Traced: rtt, the closed
    load untraced and then traced, then (lines only) the open loop,
    each a quarter of *seconds*."""
    referee = Referee(inputs, served.versions)
    rtt_s = seconds * RTT_SHARE
    with _span(spans, "phase.rtt", root_span) as rtt_span:
        rtt = closed_loop(served.gateway.address, inputs.wires,
                          connections=1, window=1, seconds=rtt_s,
                          spans=spans,
                          span_name="rtt.request", parent=rtt_span)
    _check(rtt, referee, outcome, "rtt")
    offset = len(rtt.wire)
    if not spans:
        segments, references = _segmented_load(
            served, inputs.wires, seconds - rtt_s, offset
        )
        for record in segments:
            _check(record, referee, outcome, "load")
        _end_to_end(outcome, served, rtt, segments, references)
        return
    before = _stats(served.gateway)
    plain = _closed_load(served, inputs.wires, rtt_s, None, None, offset)
    after = _stats(served.gateway)
    offset += len(plain.wire)
    with spans.span("phase.load", root_span) as load_span:
        traced = _closed_load(served, inputs.wires, rtt_s, spans, load_span,
                              offset)
    offset += len(traced.wire)
    opened = None
    if not framed:
        with spans.span("phase.openloop", root_span) as open_span:
            opened = _open_load(served, inputs.wires, rtt_s, spans,
                                open_span, offset)
        _account_reloads(opened, served, outcome)
    for record, label in ((plain, "load"), (traced, "load.traced"),
                          (opened, "openloop")):
        if record is not None:
            _check(record, referee, outcome, label)
    layers.report(outcome, framed, inputs, served, plain, traced, opened,
                  before, after, spans, root_span)


def _best_latency(outcome: Outcome, prefix: str, record: PhaseRecord,
                  scale: float, unit: str, pcts: tuple[int, ...]) -> None:
    """Note lines: each of *pcts* over runs of ``CHUNK[pct]`` consecutive
    requests, the lowest run reported; a trailing short run is
    dropped."""
    values = record.latencies()
    for pct in pcts:
        chunk = CHUNK[pct]
        runs = [values[i:i + chunk]
                for i in range(0, len(values) - chunk + 1, chunk)]
        if not runs:
            outcome.failed += 1
            outcome.notes.append(
                f"{prefix}: {len(values)} answers, fewer than {chunk}"
            )
            return
        name = f"{prefix}_p{pct}_{unit}"
        value = min(percentile(r, pct) for r in runs) * scale
        outcome.notes.append(f"{name}: {value:.6g} {unit} (best run)")
    pct, value, n = tail_percentile(values)
    outcome.notes.append(
        f"{prefix}: whole phase n={n}, p50 = "
        f"{percentile(values, 50) * scale:.4g} {unit}, "
        f"tail p{pct:g} = {value * scale:.4g} {unit}"
    )


def _end_to_end(outcome: Outcome, served: Served, rtt: PhaseRecord,
                segments: list[PhaseRecord], references: list[float]
                ) -> None:
    """End-to-end metrics.  Each load timing is the median over
    segments of the segment's value scaled to nominal CPU speed by the
    references taken before and after it (see NOTES.md, "Noise")."""
    outcome.put("setup_s", median(served.setup_s), "s")
    rates, p50s, p99s, cpus = [], [], [], []
    for record, before, after in zip(segments, references,
                                     references[1:]):
        slowdown = (before + after) / 2 / REFERENCE_NOMINAL_S
        answered = record.answered_in_window()
        rates.append(answered / _window(record) * slowdown)
        latencies = record.latencies()
        if supported(len(latencies), 99.0):
            p50s.append(percentile(latencies, 50) / slowdown)
            p99s.append(percentile(latencies, 99) / slowdown)
        cpu = record.probe_per_answer_us()
        if cpu is not None:
            cpus.append(cpu / slowdown)
    if not p99s or min(len(p99s), len(cpus)) < len(segments):
        outcome.failed += 1
        outcome.notes.append(
            f"load: {len(p99s)} of {len(segments)} segments support a "
            f"p99, {len(cpus)} have gateway CPU (gateway gone?)"
        )
        return
    outcome.put("throughput_rps", median(rates), "1/s")
    outcome.put("latency_p50_ms", median(p50s) * 1e3, "ms")
    outcome.put("latency_p99_ms", median(p99s) * 1e3, "ms")
    outcome.put("server_cpu_us_per_req", median(cpus), "us")
    try:
        outcome.put("peak_rss_mb", served.gateway.peak_rss_mb(), "MiB")
    except GatewayError:
        outcome.failed += 1
        outcome.notes.append("gateway gone before VmHWM was read")
    raw = [r.answered_in_window() / _window(r) for r in segments]
    answers = [len(r.latencies()) for r in segments]
    outcome.notes.append(
        f"load: {len(segments)} segments, "
        f"{sum(r.attempted for r in segments)} requests; answers per "
        f"segment {min(answers)}-{max(answers)} (median "
        f"{median(answers):g}); unscaled median "
        f"{median(raw):.6g} 1/s; reference {min(references) * 1e3:.4g}-"
        f"{max(references) * 1e3:.4g} ms (nominal "
        f"{REFERENCE_NOMINAL_S * 1e3:g} ms)"
    )
    # The rtt phase is printed, not a metric: its round trip is set by
    # the VM's wake-up and preemption delays, which swung its median
    # 140-550 us on identical code.
    _best_latency(outcome, "rtt", rtt, 1e6, "us", (50, 99))


def _window(record: PhaseRecord) -> float:
    """Seconds the segment measured (``SEGMENT_S`` or more)."""
    return record.deadline - record.started

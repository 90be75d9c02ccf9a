"""Per-layer metrics of the traced run, reconciled with end to end.

Server-side figures come from the untraced half of the load phase:
gateway CPU from ``/proc``, the ``service`` and ``latency`` histograms
from ``GET /stats``.  Layer costs come from timing each layer's public
functions, in this process, on the same inputs the phase sent — every
call is a span.  The residuals say how much of the measured end-to-end
cost the layers do not explain:

    serve.unattributed_us = server_cpu_us_per_req - (decode + extract
        + units x (normalize + match + theta) + encode)
    train.unattributed_s = train_s - (collect + extract + bicluster
        + generalize)
"""

from __future__ import annotations

import time

from repro.ids.engine import PSigeneDetector
from repro.match.engine import FusedSetEvaluator
from repro.serve.protocol import (
    decode_framed_request,
    encode_detection,
    encode_surface_detection,
)
from repro.surfaces import score_request, scoring_units

from harness.driver import PhaseRecord
from harness.inputs import FramedInputs
from harness.spans import SpanRecorder
from harness.stats import median, percentile
from harness.training import PHASES

#: An open-loop request answered later than this after its due time
#: misses the latency limit.
SLO_S = 0.010

#: Requests of the phase (in send order) whose layers are timed.
SAMPLE_REQUESTS = {False: 3000, True: 1000}


def _histogram_mean_us(before: dict | None, after: dict | None,
                       name: str) -> float | None:
    """Mean of histogram *name* over the interval between two /stats."""
    if before is None or after is None:
        return None
    h0 = before["latency"].get(name, {"count": 0, "mean_ms": 0.0})
    h1 = after["latency"].get(name)
    if h1 is None or h1["count"] <= h0["count"]:
        return None
    total_ms = h1["count"] * h1["mean_ms"] - h0["count"] * h0["mean_ms"]
    return total_ms / (h1["count"] - h0["count"]) * 1e3


def time_layers(signature_set, inputs, record: PhaseRecord,
                spans: SpanRecorder, parent: int) -> dict[str, float]:
    """Time every layer on the first requests *record* sent."""
    framed = isinstance(inputs, FramedInputs)
    evaluator = FusedSetEvaluator(signature_set.signatures)
    matcher = evaluator.matcher
    normalizer = signature_set.normalizer
    detector = PSigeneDetector(signature_set)
    stats = matcher.stats
    payloads0, fallbacks0, finditer0 = (
        stats.payloads, stats.ascii_fallbacks, stats.finditer_calls
    )
    clock = time.perf_counter
    add = spans.add
    sample = record.wire[:SAMPLE_REQUESTS[framed]]
    units = 0
    frame_bytes = 0
    for rid, index in enumerate(sample):
        wire = inputs.wires[index]
        frame_bytes += len(wire)
        if framed:
            body = wire[wire.index(b"\n") + 1:-1]
            t0 = clock()
            request, selection = decode_framed_request(body)
            t1 = clock()
            values = [u.value for u in scoring_units(request, selection)]
            t2 = clock()
            add("protocol.decode_frame", t0, t1, parent, rid)
            add("surfaces.extract", t1, t2, parent, rid)
        else:
            values = [inputs.payloads[index]]
        for value in values:
            units += 1
            t0 = clock()
            normalized = normalizer(value)
            t1 = clock()
            matcher.count_vector(normalized)
            t2 = clock()
            evaluator.probabilities(normalized)
            t3 = clock()
            detector.inspect(value)
            t4 = clock()
            add("normalize", t0, t1, parent, rid)
            add("match.count_vector", t1, t2, parent, rid)
            add("core.probabilities", t2, t3, parent, rid)
            add("ids.inspect", t3, t4, parent, rid)
        if framed:
            detection = score_request(detector.inspect, request, selection)
            t0 = clock()
            encode_surface_detection(detection, 1)
        else:
            detection = detector.inspect(values[0])
            t0 = clock()
            encode_detection(detection, 1)
        add("protocol.encode", t0, clock(), parent, rid)
    calls = stats.payloads - payloads0
    automaton = getattr(matcher, "_automaton", None)
    return {
        "requests": len(sample),
        "units": units,
        "frame_bytes": frame_bytes / max(1, len(sample)),
        "finditer_per_unit": (stats.finditer_calls - finditer0)
        / max(1, calls),
        "ascii_fallback_ratio": (stats.ascii_fallbacks - fallbacks0)
        / max(1, calls),
        "dfa_states": automaton.dfa_states if automaton is not None else 0,
    }


def report(outcome, framed: bool, inputs, served, plain: PhaseRecord,
           traced: PhaseRecord, opened: PhaseRecord | None,
           before: dict | None, after: dict | None, spans: SpanRecorder,
           root_span: int) -> None:
    """Put every per-layer metric on *outcome*.

    *opened* is the open-loop phase (``None`` on ``framed-surfaces``,
    whose open-loop metrics then read 0).
    """
    put = outcome.put
    window = plain.deadline - plain.started
    cpu0, cpu1 = plain.start_sample[0], plain.end_sample[0]
    server_cpu_us = plain.probe_per_answer_us() or 0.0
    service_us = _histogram_mean_us(before, after, "service") or 0.0
    latency_us = _histogram_mean_us(before, after, "latency") or 0.0
    put("serve.cpu_us_per_req", server_cpu_us, "us")
    put("serve.service_us", service_us, "us")
    put("serve.overhead_us_per_req", server_cpu_us - service_us, "us")
    put("serve.queue_wait_us", latency_us - service_us, "us")
    put("serve.cpu_busy",
        (cpu1 - cpu0) / window if None not in (cpu0, cpu1) else 0.0,
        "ratio")
    put("loadgen.cpu_busy", plain.client_cpu_s / window, "ratio")
    put("loadgen.cpu_us_per_req",
        plain.client_cpu_s / max(1, plain.attempted) * 1e6, "us")
    _open_loop_metrics(put, opened)

    with spans.span("phase.layers", root_span) as layer_span:
        counts = time_layers(served.versions[1], inputs, plain, spans,
                             layer_span)

    totals = spans.totals()

    def per(name: str, divisor: int) -> float:
        total, _count = totals.get(name, (0.0, 0))
        return total / max(1, divisor) * 1e6

    requests, units = counts["requests"], counts["units"]
    decode_us = per("protocol.decode_frame", requests) if framed else 0.0
    extract_us = per("surfaces.extract", requests) if framed else 0.0
    encode_us = per("protocol.encode", requests)
    normalize_us = per("normalize", units)
    match_us = per("match.count_vector", units)
    probabilities_us = per("core.probabilities", units)
    theta_us = probabilities_us - match_us
    inspect_us = per("ids.inspect", units)
    units_per_req = units / max(1, requests)
    layer_sum = (decode_us + extract_us + encode_us
                 + units_per_req * (normalize_us + match_us + theta_us))
    put("protocol.decode_frame_us", decode_us, "us")
    put("protocol.encode_us", encode_us, "us")
    put("protocol.frame_bytes", counts["frame_bytes"], "bytes")
    put("surfaces.extract_us", extract_us, "us")
    put("surfaces.units_per_req", units_per_req, "count")
    put("normalize.us_per_unit", normalize_us, "us")
    put("match.count_vector_us", match_us, "us")
    put("match.finditer_per_unit", counts["finditer_per_unit"], "count")
    put("match.ascii_fallback_ratio", counts["ascii_fallback_ratio"],
        "ratio")
    put("match.dfa_states", counts["dfa_states"], "count")
    put("core.theta_us", theta_us, "us")
    put("ids.inspect_us", inspect_us, "us")
    put("ids.gap_us", inspect_us - normalize_us - probabilities_us, "us")
    put("serve.layer_sum_us", layer_sum, "us")
    put("serve.unattributed_us", server_cpu_us - layer_sum, "us")

    train_s = median(served.train_s)
    phase_s = {}
    for layer in PHASES:
        phase_s[layer] = totals.get(layer, (0.0, 0))[0]
        put(f"{layer}_s", phase_s[layer], "s")
    put("train_s", train_s, "s")
    put("train.layer_sum_s", sum(phase_s.values()), "s")
    put("train.unattributed_s", train_s - sum(phase_s.values()), "s")

    plain_lat = plain.latencies()
    traced_lat = traced.latencies()
    ratio = 0.0
    if plain_lat and traced_lat:
        ratio = (sum(traced_lat) / len(traced_lat)) / (
            sum(plain_lat) / len(plain_lat)
        )
    put("trace.overhead_ratio", ratio, "ratio")
    put("trace.spans", len(spans.spans), "count")


def _open_loop_metrics(put, opened: PhaseRecord | None) -> None:
    """Open loop at a fixed rate with reloads alongside: latency from
    due time, generator lateness, reload time, SLO attainment."""
    if opened is None:
        for name, unit in (("openloop_p50_ms", "ms"),
                           ("openloop_p99_ms", "ms"),
                           ("slo_attainment", "ratio"),
                           ("serve.reload_ms", "ms"),
                           ("loadgen.late_ms", "ms")):
            put(name, 0.0, unit)
        return
    latencies = opened.latencies() or [0.0]
    put("openloop_p50_ms", percentile(latencies, 50) * 1e3, "ms")
    put("openloop_p99_ms", percentile(latencies, 99) * 1e3, "ms")
    put("slo_attainment",
        sum(1 for v in opened.latencies() if v <= SLO_S)
        / max(1, opened.attempted), "ratio")
    reload_ms = [(done - sent) * 1e3 for sent, done, _, _ in opened.reloads]
    put("serve.reload_ms", median(reload_ms) if reload_ms else 0.0, "ms")
    late = [s - d for s, d in zip(opened.sent, opened.due)]
    put("loadgen.late_ms", percentile(late, 99) * 1e3 if late else 0.0, "ms")

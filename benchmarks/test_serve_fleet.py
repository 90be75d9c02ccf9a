"""Fleet serving bench: shard scaling, overload shedding, parity.

Replays the deterministic scanner+benign trace through live fleets of
1, 2 and 4 shards, capped at the cores present (closed-loop, ``block``
policy — capacity), then drives a 2-shard fleet past capacity open-loop
(``shed`` policy, tight queues — overload behaviour).  Parity with the
offline engine is asserted on every serviced response.

Scaling is measured, not modeled: ``speedup_at_cores = C_cores / C_1``
over the largest shard count this host can run in parallel.  The load
generator runs in this bench's process, apart from the shards, and its
CPU time per request (``resource.getrusage``, supervisor start/stop and
the offline parity pass included) is recorded beside each throughput,
so a saturated client is not read as a fleet limit.  ``FLOORS`` holds
both this artifact and the CI guard's live 2-shard probe: adding shards
may not cost more than half of single-shard capacity.

Saved to ``results/serve_fleet.txt`` and the machine-readable baseline
``results/BENCH_serving.json``.
"""

import asyncio
import resource

from repro.bench import BenchResult, corpus_digest
from repro.conformance import train_default_detector
from repro.parallel.timing import scaling_counts
from repro.serve import (
    FleetConfig,
    FleetSupervisor,
    build_load_trace,
    run_loadgen,
)

QUEUE_BOUND = 256
CONNECTIONS = 8
WINDOW = 16
PRESSURE_QUEUE_BOUND = 8
SLO_MS = 50.0


def _client_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


FLOORS = {"serving": (
    ("parity_ok", "==", True),
    ("cores", ">=", 2),  # no scaling is measured on one core
    ("speedup_at_cores", ">=", 0.5),
)}


def test_serve_fleet_scaling(record, emit):
    detector = train_default_detector(2012)
    trace = build_load_trace(seed=7, n_benign=2000, n_vulnerabilities=12)
    payloads = trace.payloads()

    capacity = {}
    client_cpu_us = {}
    for shards in scaling_counts():
        cpu_before = _client_cpu_s()
        report = asyncio.run(run_loadgen(
            FleetSupervisor(detector, FleetConfig(
                shards=shards,
                queue_bound=QUEUE_BOUND,
                policy="block",
            )),
            payloads,
            connections=CONNECTIONS,
            window=WINDOW,
            slo_ms=SLO_MS,
        ))
        client_cpu_us[shards] = (
            (_client_cpu_s() - cpu_before) / report.requests * 1e6
        )
        # Closed-loop block policy: every request serviced, bit parity.
        assert report.completed == report.requests
        assert report.shed == 0 and report.errors == 0
        assert report.parity is not None and report.parity.ok
        capacity[shards] = report

    c1 = capacity[1].throughput_rps
    scaling = [
        {
            "shards": shards,
            "measured_rps": round(report.throughput_rps, 1),
            "speedup": round(report.throughput_rps / c1, 3),
            "client_cpu_us_per_req": round(client_cpu_us[shards], 1),
            "p50_ms": round(report.latency_ms["p50_ms"], 3),
            "p95_ms": round(report.latency_ms["p95_ms"], 3),
            "p99_ms": round(report.latency_ms["p99_ms"], 3),
        }
        for shards, report in capacity.items()
    ]
    top = scaling[-1]

    # Overload: offer 2x single-shard capacity to a 2-shard fleet with
    # tight per-shard queues; it must shed, not collapse.
    pressure = asyncio.run(run_loadgen(
        FleetSupervisor(detector, FleetConfig(
            shards=2,
            queue_bound=PRESSURE_QUEUE_BOUND,
            policy="shed",
        )),
        payloads,
        connections=CONNECTIONS,
        rate=2.0 * c1,
        slo_ms=SLO_MS,
    ))
    assert pressure.completed + pressure.shed + pressure.errors == (
        pressure.requests
    )
    assert pressure.errors == 0
    assert pressure.parity is not None and pressure.parity.ok

    header = (
        f"{'shards':>6} {'meas req/s':>11} {'speedup':>8} "
        f"{'client µs/req':>14} {'p50ms':>7} {'p95ms':>7} {'p99ms':>7}"
    )
    lines = [
        f"Fleet scaling ({detector.name}, {len(payloads)} payloads, "
        f"closed-loop block, queue {QUEUE_BOUND}/shard; measured on "
        f"{top['shards']} cores, client CPU from getrusage)",
        header,
        "-" * len(header),
    ]
    for row in scaling:
        lines.append(
            f"{row['shards']:>6} {row['measured_rps']:>11,.0f} "
            f"{row['speedup']:>7.2f}x "
            f"{row['client_cpu_us_per_req']:>14.1f} {row['p50_ms']:>7.3f} "
            f"{row['p95_ms']:>7.3f} {row['p99_ms']:>7.3f}"
        )
    lines += [
        "",
        f"Overload (2 shards, shed policy, queue "
        f"{PRESSURE_QUEUE_BOUND}/shard, offered {pressure.offered_rps:,.0f} "
        f"req/s = 2 x C1):",
        f"  serviced {pressure.serviced_rps:,.0f} req/s, "
        f"shed {100 * pressure.shed_rate:.1f}%, "
        f"SLO({SLO_MS:.0f}ms) {100 * pressure.slo_attainment:.1f}%, "
        f"p99 {pressure.latency_ms['p99_ms']:.3f} ms, parity OK",
    ]
    record("serve_fleet", "\n".join(lines))

    emit(BenchResult(
        bench="serving",
        kind="perf",
        seed=2012,
        metrics={
            "requests": len(payloads),
            "queue_bound": QUEUE_BOUND,
            "c1_rps": round(c1, 1),
            "cores": top["shards"],
            "speedup_at_cores": top["speedup"],
            "client_cpu_us_per_req": top["client_cpu_us_per_req"],
            "parity_ok": True,
        },
        data={
            "detector": detector.name,
            "trace_seed": 7,
            "scaling": scaling,
            "pressure": {
                "shards": 2,
                "queue_bound": PRESSURE_QUEUE_BOUND,
                "offered_rps": round(pressure.offered_rps, 1),
                "serviced_rps": round(pressure.serviced_rps, 1),
                "shed_rate": round(pressure.shed_rate, 4),
                "slo_ms": SLO_MS,
                "slo_attainment": round(pressure.slo_attainment, 4),
                "p99_ms": round(pressure.latency_ms["p99_ms"], 3),
            },
        },
        corpus={"loadgen_trace": corpus_digest(payloads)},
    ))

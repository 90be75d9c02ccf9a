"""CI guard: every committed bench artifact must validate and hold its floors.

All benchmarks emit a machine-readable ``BENCH_<slug>.json`` next to their
text table under ``benchmarks/results/`` (the shared :mod:`repro.bench`
schema).  This guard holds the tree to that ledger in three layers:

**Layer 1 — schema sweep.**  Every ``BENCH_*.json`` on disk must validate
against the ``BenchResult`` schema and be byte-identical to its canonical
re-serialization (one writer, one byte layout — diffs stay reviewable).

**Layer 2 — per-bench floors.**  Each ``benchmarks/test_*.py`` declares
its acceptance floors beside its ``emit`` call, as ``FLOORS = {slug:
((metric, op, bound), ...)}``; the guard keeps no copy.  It collects them
by loading every bench module (:func:`repro.bench.collect_floors`; a
slug declared in two modules fails) and holds each committed artifact to
its slug's floors through :func:`repro.bench.check_floors` — the check
the bench's ``emit`` ran when it wrote the artifact, so a regressed
artifact cannot be committed even when that bench run was skipped.  A
slug with no floors fails (unguarded artifact); floors with no artifact
fail (missing trajectory point).

**Layer 3 — deep guards.**  Four benches get live re-measurement or
replay on top of the committed numbers:

``BENCH_matching.json`` — the fused single-pass matcher is re-measured
in the bench's own configuration (its context and payloads, checked by
corpus digest); the fresh result must clear the ``matching`` floors and
hold 85% of the committed baseline speedup (a ratio of ratios —
insensitive to the runner's absolute speed).

``BENCH_serving.json`` — a live 2-shard fleet probe reports
``parity_ok``, ``cores`` and ``speedup_at_cores`` (its C2/C1) and must
clear the ``serving`` floors the committed artifact holds.

``BENCH_canary.json`` — the committed promote/reject rounds replay
through the *current* gate implementation; both decisions must reproduce,
so gate-semantics drift fails CI before the live canary smoke step.

``BENCH_surfaces.json`` — the surface ledger is deterministic from
committed seeds, so the guard recomputes the exact bench configuration
and requires the fresh ledger to be *identical* to the committed one.

When a baseline artifact does not exist in HEAD (first run on a fresh
branch), the deep guards record what they measured and pass: there is
nothing to regress against yet.

Usage: ``PYTHONPATH=src python scripts/ci_bench_guard.py``
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.bench import (
    check_floors,
    collect_floors,
    dump_bench_json,
    list_artifacts,
    load_artifact,
)
from repro.bench.floors import load_bench_module
from repro.bench.writer import BENCHMARKS_DIR

BASELINE_PATH = "benchmarks/results/BENCH_matching.json"
CANARY_BASELINE_PATH = "benchmarks/results/BENCH_canary.json"
SURFACES_BASELINE_PATH = "benchmarks/results/BENCH_surfaces.json"
ALLOWED_FRACTION = 0.85
PROBE_PAYLOAD_COUNT = 400


def committed_baseline(path: str = BASELINE_PATH) -> dict | None:
    """The baseline artifact as committed in HEAD, or None if absent."""
    result = subprocess.run(
        ["git", "show", f"HEAD:{path}"],
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        return None
    try:
        return json.loads(result.stdout)
    except json.JSONDecodeError as error:
        raise AssertionError(
            f"committed {path} is not valid JSON: {error}"
        ) from error


def sweep_artifacts(floors) -> str:
    """Layer 1 + 2: validate every on-disk artifact and apply its floors.

    *floors* is the collected slug map (:func:`collect_floors`).
    Returns the verdict line; raises AssertionError on the first broken
    artifact, unguarded slug, or missing artifact.
    """
    paths = list_artifacts()
    if not paths:
        raise AssertionError(
            "no BENCH_*.json artifacts under benchmarks/results/; "
            "run scripts/reproduce_all.py"
        )
    seen: set[str] = set()
    applied = 0
    for path in paths:
        payload = load_artifact(path)  # raises BenchSchemaError on bad shape
        with open(path, encoding="utf-8") as handle:
            raw = handle.read()
        if dump_bench_json(payload) != raw:
            raise AssertionError(
                f"{path} is not in canonical serialization; rewrite it "
                f"through repro.bench.write_artifact"
            )
        seen.add(payload["bench"])
        applied += check_floors(path, payload, floors)
    missing = sorted(set(floors) - seen)
    if missing:
        raise AssertionError(
            f"floors declared but artifact missing for: "
            f"{', '.join(missing)} — run scripts/reproduce_all.py and "
            f"commit the results"
        )
    return (
        f"artifact sweep OK: {len(paths)} artifacts schema-valid, "
        f"canonical, and clear of {applied} floors across {len(seen)} "
        f"benches"
    )


def _bench_module(filename: str):
    """A bench module, for its measured configuration: the guard reuses
    the benches' own definitions, so "compared with the artifact" is
    never against a drifting copy."""
    return load_bench_module(os.path.join(BENCHMARKS_DIR, filename))


def fresh_measurement() -> dict:
    """Re-run the matching bench on its own context and payloads.

    The speedup depends on the payload mix (the fused path's Θ memo
    pays off with repeated count vectors), so only the committed
    configuration gives a comparable ratio.
    """
    from repro.eval import EvaluationContext

    config = _bench_module("conftest.py").BENCH_CONTEXT_CONFIG
    context = EvaluationContext.build(**config)
    result, corpus = _bench_module("test_match_fused.py").measure_matching(
        context
    )
    return json.loads(result.to_bench_result(corpus=corpus).to_json())


def check(baseline: dict | None, fresh: dict, floors) -> str:
    """The guard's verdict line; raises AssertionError on regression."""
    check_floors("fresh matching measurement", fresh, floors)
    speedup = fresh["metrics"]["speedup"]
    if baseline is None:
        return (
            f"bench guard OK (no committed {BASELINE_PATH} baseline): "
            f"fresh speedup {speedup:.2f}x, verdicts identical"
        )
    if fresh["corpus"] != baseline["corpus"]:
        raise AssertionError(
            f"fresh matching corpus {fresh['corpus']} differs from the "
            f"committed {baseline['corpus']}; speedups are not comparable"
        )
    baseline_speedup = float(baseline["metrics"]["speedup"])
    floor = ALLOWED_FRACTION * baseline_speedup
    if speedup < floor:
        raise AssertionError(
            f"fused speedup regressed >15%: fresh {speedup:.2f}x "
            f"< floor {floor:.2f}x (baseline {baseline_speedup:.2f}x)"
        )
    return (
        f"bench guard OK: fresh speedup {speedup:.2f}x "
        f">= floor {floor:.2f}x (baseline {baseline_speedup:.2f}x), "
        f"verdicts identical"
    )


def serving_probe() -> dict:
    """A small live 2-shard fleet run: parity and retained capacity.

    Closed-loop over a slice of the deterministic replay trace, one
    shard then two, on the same host.  Returns a ``serving`` payload
    whose metrics the bench's floors bind — ``parity_ok``, ``cores``
    (the shards probed) and ``speedup_at_cores`` (C2/C1) — cheap enough
    for every CI run, live enough to catch a fleet that no longer
    serves or diverges from the offline engine.
    """
    import asyncio

    from repro.conformance import train_default_detector
    from repro.serve import (
        FleetConfig,
        FleetSupervisor,
        build_load_trace,
        run_loadgen,
    )

    detector = train_default_detector(2012)
    trace = build_load_trace(seed=7, n_benign=300, n_vulnerabilities=6)
    payloads = trace.payloads()[:PROBE_PAYLOAD_COUNT]
    reports = {}
    # The 1-shard baseline is a fleet too, not an in-process gateway:
    # c2/c1 must measure shard coordination alone.
    for shards in (1, 2):
        reports[shards] = asyncio.run(run_loadgen(
            FleetSupervisor(detector, FleetConfig(
                shards=shards,
                queue_bound=max(64, len(payloads)),
                policy="block",
            )),
            payloads,
            connections=4,
            window=16,
        ))
    return {
        "bench": "serving",
        "metrics": {
            "parity_ok": all(
                r.parity is not None and r.parity.ok
                and r.completed == r.requests and r.errors == 0
                for r in reports.values()
            ),
            "cores": max(reports),
            "speedup_at_cores": (
                reports[2].throughput_rps / reports[1].throughput_rps
            ),
        },
    }


def check_serving(probe: dict, floors) -> str:
    """Serving guard verdict; raises AssertionError on regression."""
    check_floors("live 2-shard fleet probe", probe, floors)
    return (
        f"serving guard OK: probe retains "
        f"{probe['metrics']['speedup_at_cores']:.2f} of single-shard "
        f"capacity, parity OK"
    )


def _committed_shadow(payload: dict, *, generation: int):
    """Rebuild a ShadowReport from one committed bench round."""
    from repro.canary.shadow import ShadowReport

    return ShadowReport(
        mode="fleet",
        generation=generation,
        n_attacks=0,
        n_benign=0,
        incumbent_tpr=float(payload["incumbent_tpr"]),
        candidate_tpr=float(payload["candidate_tpr"]),
        incumbent_fpr=float(payload["incumbent_fpr"]),
        candidate_fpr=float(payload["candidate_fpr"]),
        verdict_flips=0,
        divergences=[],
    )


def check_canary(baseline: dict | None) -> str:
    """Canary guard verdict; raises AssertionError on gate drift.

    Replays the committed deltas through the current gate: both
    decisions must reproduce (the artifact's own bars are its floors in
    the sweep).  Churn is held at zero for the replay — the committed
    reject reason is the FPR budget, never churn, so the replay
    isolates the budget arithmetic.
    """
    if baseline is None:
        return (
            f"canary guard OK (no committed {CANARY_BASELINE_PATH} "
            f"baseline): nothing to replay yet"
        )
    from repro.canary.gate import (
        ChurnReport,
        GatePolicy,
        SignatureChurn,
        evaluate_gate,
    )

    ledger = baseline["data"]
    promote = ledger["promote"]
    reject = ledger["reject"]
    policy = GatePolicy(**ledger["policy"])
    zero_churn = ChurnReport(
        entries=[SignatureChurn(0, "unchanged", 0.0, 0.0)],
        incumbent_size=1,
        candidate_size=1,
    )
    replayed_promote = evaluate_gate(
        _committed_shadow(
            promote, generation=promote["generation_after"]
        ),
        zero_churn,
        policy,
    )
    if not replayed_promote.promoted:
        raise AssertionError(
            f"gate semantics drifted: committed promote deltas now "
            f"reject with {replayed_promote.reasons}"
        )
    replayed_reject = evaluate_gate(
        _committed_shadow(
            reject, generation=reject["generation_before"]
        ),
        zero_churn,
        policy,
    )
    if replayed_reject.promoted or (
        "fpr_budget" not in replayed_reject.reasons
    ):
        raise AssertionError(
            f"gate semantics drifted: committed reject deltas now "
            f"decide {replayed_reject.reasons or ['promote']}"
        )
    return (
        f"canary guard OK: reject held at fpr "
        f"{reject['candidate_fpr']:.4f} > budget {policy.fpr_budget}, "
        f"gate replay reproduces both decisions"
    )


def surfaces_measurement() -> dict:
    """Recompute the surface ledger in the bench's exact configuration."""
    from repro.conformance import train_default_detector

    bench = _bench_module("test_ext_surfaces.py")
    return bench.measure_surfaces(train_default_detector(bench.SEED))


def check_surfaces(baseline: dict | None, fresh: dict) -> str:
    """Surfaces guard verdict; raises AssertionError on any drift.

    The bars themselves are the ``surfaces`` floors on the committed
    metrics; a fresh ledger identical to the committed one clears them.
    """
    survival = fresh["evasion"]["survival_rate"]
    if baseline is None:
        return (
            f"surfaces guard OK (no committed {SURFACES_BASELINE_PATH} "
            f"baseline): evasion survival {survival:.3f}"
        )
    ledger = baseline["data"]
    for section in ("families", "scanner", "evasion"):
        if fresh[section] != ledger.get(section):
            raise AssertionError(
                f"surface ledger drifted in '{section}': fresh "
                f"{json.dumps(fresh[section], sort_keys=True)[:300]} != "
                f"committed "
                f"{json.dumps(ledger.get(section), sort_keys=True)[:300]}"
                f"; re-run benchmarks/test_ext_surfaces.py and commit "
                f"{SURFACES_BASELINE_PATH}"
            )
    return (
        f"surfaces guard OK: ledger identical to committed baseline, "
        f"evasion survival {survival:.3f} "
        f"({fresh['evasion']['evaded']}/{fresh['evasion']['attacked']} "
        f"bases evaded)"
    )


def main() -> int:
    """Run all guard layers; returns a process exit code."""
    try:
        floors = collect_floors()
        print(sweep_artifacts(floors))
        baseline = committed_baseline()
        fresh = fresh_measurement()
        print(check(baseline, fresh, floors))
        print(check_serving(serving_probe(), floors))
        print(check_canary(committed_baseline(CANARY_BASELINE_PATH)))
        print(check_surfaces(
            committed_baseline(SURFACES_BASELINE_PATH),
            surfaces_measurement(),
        ))
    except Exception as error:  # noqa: BLE001 - CI wants any failure loud
        print(f"bench guard FAILED: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

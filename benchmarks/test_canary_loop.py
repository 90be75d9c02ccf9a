"""Canary loop bench: closed-loop continual learning on a live fleet.

Trains the canonical incumbent, then drives the two rounds the
acceptance bar names against a real 2-shard fleet on one shared port:

1. a clean round — drifted fresh attacks ingested, a candidate refreshed
   on the warm path, shadow-scored over the wire with zero conformance
   divergences, and promoted through the atomic two-phase fleet reload;
2. an injected FPR-budget violation — the sabotaged candidate alerts on
   essentially everything, the gate rejects it, and the incumbent is
   provably unchanged (same fleet version, identical verdicts on
   replayed probes, nothing left staged).

Per-stage wall times (ingest/refresh/shadow/gate/promote), promote and
reject outcomes, and the TPR/FPR deltas land in the committed baseline
``results/BENCH_canary.json`` (validated by ``scripts/ci_bench_guard.py``)
plus the human-readable ``results/canary_loop.txt``.
"""

import asyncio

from repro.bench import BenchResult
from repro.canary import CanaryConfig, CanaryLoop, GatePolicy, TrainingState
from repro.conformance import serial_verdicts
from repro.ids import PSigeneDetector
from repro.serve import FleetConfig, FleetSupervisor

FRESH_ATTACKS = 120
BENIGN_REPLAY = 240
SHARDS = 2
#: Budgets sized for the canonical small training config: a legitimate
#: warm refresh lands around 1.5% candidate FPR, the sabotaged
#: threshold blows far past 5%.
POLICY = GatePolicy(
    fpr_budget=0.05, tpr_tolerance=0.10, max_churn_fraction=2.0
)
SABOTAGE_THRESHOLD = 0.05
PROBES = [
    "id=1' union select 1,2--",
    "q=hello world",
    "course=cs101&term=fall2012",
    "",
]


def _round_payload(completed) -> dict:
    shadow = completed.decision.shadow
    return {
        "outcome": completed.outcome,
        "strategy": completed.strategy,
        "generation_before": completed.generation_before,
        "generation_after": completed.generation_after,
        "reasons": list(completed.decision.reasons),
        "divergences": len(shadow.divergences),
        "incumbent_tpr": round(shadow.incumbent_tpr, 6),
        "candidate_tpr": round(shadow.candidate_tpr, 6),
        "tpr_delta": round(shadow.tpr_delta, 6),
        "incumbent_fpr": round(shadow.incumbent_fpr, 6),
        "candidate_fpr": round(shadow.candidate_fpr, 6),
        "fpr_delta": round(shadow.fpr_delta, 6),
        "churn_fraction": round(
            completed.decision.churn.churn_fraction, 6
        ),
        "stage_wall_s": {
            stage: round(wall, 6)
            for stage, wall in completed.stage_wall_s.items()
        },
    }


def test_canary_loop_fleet(record, emit, tmp_path):
    state = TrainingState.train(2012)

    async def scenario():
        supervisor = FleetSupervisor(
            PSigeneDetector(state.signature_set),
            FleetConfig(shards=SHARDS, queue_bound=512),
            source="bench:canary",
        )
        loop = CanaryLoop(state, supervisor.store, config=CanaryConfig(
            fresh_attacks=FRESH_ATTACKS,
            benign_replay=BENIGN_REPLAY,
            seed=7,
            policy=POLICY,
            runs_dir=str(tmp_path),
        ))
        await supervisor.start()
        try:
            promoted = await loop.run_round_fleet(supervisor)
            assert promoted.promoted, promoted.decision.reasons
            assert promoted.decision.shadow.divergences == []
            assert supervisor.version == promoted.generation_after

            before = serial_verdicts(
                supervisor.store.current().detector, PROBES
            )
            version_before = supervisor.version
            rejected = await loop.run_round_fleet(
                supervisor,
                sabotage=lambda s: s.with_threshold(SABOTAGE_THRESHOLD),
            )
            assert not rejected.promoted
            assert "fpr_budget" in rejected.decision.reasons
            after = serial_verdicts(
                supervisor.store.current().detector, PROBES
            )
            incumbent_unchanged = (
                supervisor.version == version_before
                and supervisor.store.staged_generations() == ()
                and after == before
            )
            assert incumbent_unchanged
            return promoted, rejected, incumbent_unchanged
        finally:
            await supervisor.stop()

    promoted, rejected, incumbent_unchanged = asyncio.run(scenario())

    baseline = {
        "policy": POLICY.to_dict(),
        "promote": _round_payload(promoted),
        "reject": {
            **_round_payload(rejected),
            "incumbent_unchanged": incumbent_unchanged,
        },
    }
    baseline_path = emit(BenchResult(
        bench="canary",
        kind="extension",
        seed=2012,
        metrics={
            "shards": SHARDS,
            "fresh_attacks": FRESH_ATTACKS,
            "benign_replay": BENIGN_REPLAY,
            "promoted": bool(promoted.promoted),
            "rejected_fpr_budget": (
                "fpr_budget" in rejected.decision.reasons
            ),
            "incumbent_unchanged": bool(incumbent_unchanged),
        },
        data=baseline,
    ))

    lines = [
        f"Canary loop ({SHARDS}-shard live fleet, "
        f"{FRESH_ATTACKS} fresh attacks + {BENIGN_REPLAY} benign "
        f"mirrored per round, fpr budget {POLICY.fpr_budget})",
        "",
    ]
    for label, payload in (
        ("promote", baseline["promote"]),
        ("reject", baseline["reject"]),
    ):
        walls = " ".join(
            f"{stage} {1000 * wall:.0f}ms"
            for stage, wall in payload["stage_wall_s"].items()
        )
        lines += [
            f"{label}: {payload['outcome'].upper()} "
            f"(strategy={payload['strategy']}, "
            f"gen {payload['generation_before']} -> "
            f"{payload['generation_after']}"
            + (
                f", reasons {payload['reasons']}"
                if payload["reasons"] else ""
            )
            + ")",
            f"  tpr {payload['incumbent_tpr']:.4f} -> "
            f"{payload['candidate_tpr']:.4f} "
            f"({payload['tpr_delta']:+.4f})   "
            f"fpr {payload['incumbent_fpr']:.4f} -> "
            f"{payload['candidate_fpr']:.4f} "
            f"({payload['fpr_delta']:+.4f})",
            f"  churn {payload['churn_fraction']:.3f}, "
            f"divergences {payload['divergences']}",
            f"  walls: {walls}",
            "",
        ]
    lines.append(
        "rejection left the incumbent provably unchanged: "
        f"{incumbent_unchanged}"
    )
    record("canary_loop", "\n".join(lines))
    print(f"[saved baseline to {baseline_path}]")

"""Closed-loop tests: complete rounds, transactional promotion, fleet.

The two rounds the issue's acceptance bar names are both here: a clean
round that promotes through the two-phase protocol with zero live-path
divergences, and an injected FPR-budget violation that is rejected with
the incumbent provably unchanged (same verdicts, same store version,
nothing left staged).
"""

import asyncio

import pytest

from repro.canary import (
    CanaryConfig,
    CanaryLoop,
    GatePolicy,
    TrainingState,
    read_history,
)
from repro.conformance import serial_verdicts
from repro.ids import PSigeneDetector
from repro.serve import FleetConfig, FleetSupervisor
from repro.serve.store import SignatureStore

#: Budgets sized for the canonical small training config: generous
#: enough that a legitimate warm refresh promotes, tight enough that
#: the sabotaged candidate cannot.
POLICY = GatePolicy(
    fpr_budget=0.05, tpr_tolerance=0.10, max_churn_fraction=2.0
)

def sabotage_fpr(signature_set):
    """Threshold sabotage: the candidate alerts on essentially
    everything, blowing the FPR budget without touching anything else."""
    return signature_set.with_threshold(0.05)


@pytest.fixture()
def state(small_pipeline, small_result):
    return TrainingState(pipeline=small_pipeline, result=small_result)


@pytest.fixture()
def store(small_signatures):
    return SignatureStore(
        PSigeneDetector(small_signatures), source="canary:test"
    )


def make_loop(state, store, tmp_path, **overrides):
    defaults = dict(
        fresh_attacks=60,
        benign_replay=120,
        seed=5,
        runs_dir=str(tmp_path),
        policy=POLICY,
    )
    defaults.update(overrides)
    return CanaryLoop(state, store, config=CanaryConfig(**defaults))


class TestPromotion:
    def test_clean_round_promotes(self, state, store, tmp_path):
        loop = make_loop(state, store, tmp_path)
        incumbent = state.signature_set
        completed = loop.run_round()
        assert completed.promoted
        assert completed.outcome == "promoted"
        assert completed.decision.reasons == []
        # Zero live-path divergences: staging never perturbed serving.
        assert completed.decision.shadow.divergences == []
        # Two-phase commit: store advanced, nothing left staged.
        assert store.version == completed.generation_before + 1
        assert store.staged_generations() == ()
        # The training state adopted the candidate's result.
        assert state.signature_set is not incumbent
        # Promotion consumed the pending corpus.
        assert loop.ledger.pending_counts() == {"attack": 0, "benign": 0}
        assert sum(loop.ledger.consumed_counts.values()) > 0

    def test_promoted_candidate_serves(self, state, store, tmp_path):
        loop = make_loop(state, store, tmp_path)
        completed = loop.run_round()
        assert completed.promoted
        live = store.current()
        assert live.version == completed.generation_after
        # The live detector IS the candidate: it answers.
        assert live.detector.inspect("id=1' union select 1,2--").alert

    def test_round_recorded_in_history(self, state, store, tmp_path):
        loop = make_loop(state, store, tmp_path)
        loop.run_round()
        rounds = read_history(str(tmp_path))
        assert len(rounds) == 1
        record = rounds[0]
        assert record["outcome"] == "promoted"
        assert record["gate"]["shadow"]["divergences"] == 0
        assert set(record["stage_wall_s"]) == {
            "ingest", "refresh", "shadow", "gate", "promote"
        }

    def test_metrics_counted(self, state, store, tmp_path):
        from repro.obs.registry import get_registry

        registry = get_registry()
        promotions = registry.counter("repro_canary_promotions_total")
        rounds = registry.counter("repro_canary_rounds_total")
        before = (promotions.value, rounds.value)
        make_loop(state, store, tmp_path).run_round()
        assert promotions.value == before[0] + 1
        assert rounds.value == before[1] + 1


class TestRejection:
    def test_injected_fpr_violation_rejected(self, state, store, tmp_path):
        loop = make_loop(state, store, tmp_path)
        incumbent = state.signature_set
        probes = [
            "id=1' union select 1,2--",
            "q=hello world",
            "course=cs101&term=fall2012",
            "",
        ]
        before = serial_verdicts(store.current().detector, probes)
        version_before = store.version
        completed = loop.run_round(sabotage=sabotage_fpr)
        assert not completed.promoted
        assert "fpr_budget" in completed.decision.reasons
        # The incumbent is provably unchanged: same published version,
        # nothing staged, identical verdicts on replayed probes, and
        # the training state still holds the old result.
        assert store.version == version_before
        assert completed.generation_after == version_before
        assert store.staged_generations() == ()
        after = serial_verdicts(store.current().detector, probes)
        assert after == before
        assert state.signature_set is incumbent

    def test_rejection_preserves_pending_corpus(
        self, state, store, tmp_path
    ):
        loop = make_loop(state, store, tmp_path)
        completed = loop.run_round(sabotage=sabotage_fpr)
        assert not completed.promoted
        pending = loop.ledger.pending_counts()
        assert pending["attack"] > 0
        assert pending["benign"] > 0

    def test_rejection_is_a_structured_record(self, state, store, tmp_path):
        loop = make_loop(state, store, tmp_path)
        loop.run_round(sabotage=sabotage_fpr)
        record = read_history(str(tmp_path))[0]
        assert record["outcome"] == "rejected"
        assert record["reasons"] == ["fpr_budget"]
        assert record["generation_before"] == record["generation_after"]
        gate = record["gate"]
        assert gate["promoted"] is False
        assert gate["policy"]["fpr_budget"] == POLICY.fpr_budget
        assert gate["shadow"]["candidate_fpr"] > POLICY.fpr_budget

    def test_reject_then_promote_trains_on_accumulated_corpus(
        self, state, store, tmp_path
    ):
        loop = make_loop(state, store, tmp_path)
        rejected = loop.run_round(sabotage=sabotage_fpr)
        pending_after_reject = loop.ledger.pending_counts()["attack"]
        promoted = loop.run_round()
        assert not rejected.promoted and promoted.promoted
        # The promoting round ingested a second batch and consumed
        # everything observed since the last promotion.
        assert (
            loop.ledger.consumed_counts["attack"] > pending_after_reject
        )
        assert loop.ledger.pending_counts() == {"attack": 0, "benign": 0}

    def test_store_error_during_stage_leaves_incumbent(
        self, state, store, tmp_path
    ):
        """A candidate that cannot even parse dies in staging; the
        incumbent keeps serving and nothing is recorded as promoted."""
        from repro.serve.store import StoreError

        loop = make_loop(state, store, tmp_path)
        version_before = store.version

        class Unserializable:
            def with_threshold(self, _):  # pragma: no cover
                return self

        with pytest.raises((StoreError, AttributeError, TypeError)):
            loop.run_round(sabotage=lambda s: Unserializable())
        assert store.version == version_before
        assert store.staged_generations() == ()


class TestFleetRound:
    @pytest.mark.smoke
    def test_promote_and_reject_against_live_fleet(
        self, state, small_signatures, tmp_path
    ):
        """One promote round and one forced-reject round against a real
        2-shard fleet: the shadow pass rides the shared data port, the
        promotion commits via the atomic two-phase fleet reload, and
        the rejection leaves every shard on the old generation."""

        async def scenario():
            supervisor = FleetSupervisor(
                PSigeneDetector(small_signatures),
                FleetConfig(shards=2, queue_bound=512),
                source="canary:test",
            )
            loop = make_loop(
                state, supervisor.store, tmp_path,
                fresh_attacks=40, benign_replay=80,
            )
            await supervisor.start()
            try:
                promoted = await loop.run_round_fleet(supervisor)
                assert promoted.promoted, promoted.decision.reasons
                assert promoted.mode == "fleet"
                assert promoted.decision.shadow.divergences == []
                assert supervisor.version == (
                    promoted.generation_before + 1
                )
                # Every shard answers with the new generation.
                response = await supervisor.inspect("q=probe")
                assert response["version"] == promoted.generation_after

                version_before = supervisor.version
                rejected = await loop.run_round_fleet(
                    supervisor, sabotage=lambda s: s.with_threshold(0.05)
                )
                assert not rejected.promoted
                assert "fpr_budget" in rejected.decision.reasons
                assert supervisor.version == version_before
                assert supervisor.store.staged_generations() == ()
            finally:
                await supervisor.stop()

        asyncio.run(scenario())

    def test_fleet_round_requires_matching_store(
        self, state, store, tmp_path
    ):
        loop = make_loop(state, store, tmp_path)

        class FakeSupervisor:
            store = SignatureStore(
                PSigeneDetector(state.signature_set)
            )

        with pytest.raises(ValueError, match="reference store"):
            asyncio.run(loop.run_round_fleet(FakeSupervisor()))

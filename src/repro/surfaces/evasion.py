"""Adversarial evasion search against a payload-level detector.

The conformance fuzzer (:mod:`repro.conformance.fuzz`) uses mutators as
*coverage* — fixed derivations that exercise the normalizer's seams.
This module promotes them into an *adversary*: a seeded greedy search
that chains mutations (the corpus evasion mutators, unicode-confusable
rewrites through the inverse of the normalizer's fold table, and a
JSON-string-nesting trick) and keeps whichever chain drives the
detector's score down, stopping the moment a variant stops alerting.

Everything is deterministic from the seed: the same (detector, seed,
bases, budget) always yields the same chains and the same survival
rate.  That lets ``BENCH_surfaces.json`` commit the numbers, with the
survival rate floored at 0.4 by the bench's ``FLOORS``, and lets
``scripts/ci_bench_guard.py`` fail when a recomputed ledger differs.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.corpus.grammar import CorpusGenerator
from repro.corpus.mutators import MUTATORS
from repro.normalize.unicode_map import FOLD_TABLE

__all__ = [
    "EvasionOutcome",
    "EvasionReport",
    "EvasionSearch",
    "evasion_bases",
]

#: ASCII → confusable alternatives, the inverse image of the
#: normalizer's fold table (same construction the conformance fuzzer
#: uses — every swap is one normalization claims to undo).
_UNFOLD: dict[str, tuple[str, ...]] = {}
for _folded, _ascii in FOLD_TABLE.items():
    _UNFOLD[_ascii] = _UNFOLD.get(_ascii, ()) + (_folded,)


def _confusables(value: str, rng: np.random.Generator) -> str:
    """Swap foldable ASCII characters for their unicode confusables."""
    out = []
    for ch in value:
        options = _UNFOLD.get(ch)
        if options and rng.random() < 0.5:
            out.append(options[int(rng.integers(len(options)))])
        else:
            out.append(ch)
    return "".join(out)


def _json_nest(value: str, rng: np.random.Generator) -> str:
    """Smuggle the payload inside a JSON-encoded string.

    ``json.dumps`` escapes quotes and backslashes, breaking literal
    regex anchors; the recursive JSON extractor un-nests one level per
    walk, so this trick tests the depth of the harvest, not just the
    top-level parse.
    """
    del rng
    return json.dumps({"q": value})


#: The adversary's move set: name → mutator.  Names are stable — they
#: appear in committed bench artifacts and evasion chain reports.
_MOVES: dict[str, Callable[[str, np.random.Generator], str]] = {
    mutator.__name__: mutator for mutator in MUTATORS
}
_MOVES["unicode_confusables"] = _confusables
_MOVES["json_nest"] = _json_nest

_MOVE_NAMES: tuple[str, ...] = tuple(_MOVES)


def evasion_bases(seed: int = 2012, count: int = 24) -> list[str]:
    """Grammar-rendered attack payloads the search starts from.

    Only bases the detector under test actually alerts on are worth
    attacking; :class:`EvasionSearch` filters the rest out and reports
    them separately (a miss on the unmutated base is a detection gap,
    not an evasion).
    """
    samples = CorpusGenerator(seed=seed).generate(count)
    return [sample.payload for sample in samples]


@dataclass(frozen=True)
class EvasionOutcome:
    """The search's result for one base payload.

    Attributes:
        base: the unmutated attack.
        base_score: detector score on the unmutated attack.
        detected_base: whether the detector alerted on the base at all.
        variant: the best (lowest-scoring) mutated form found.
        variant_score: detector score on that variant.
        evaded: the variant no longer alerts.
        chain: mutation names applied, in order.
    """

    base: str
    base_score: float
    detected_base: bool
    variant: str
    variant_score: float
    evaded: bool
    chain: tuple[str, ...]


@dataclass
class EvasionReport:
    """Aggregate over one seeded search run."""

    seed: int
    rounds: int
    branching: int
    outcomes: list[EvasionOutcome] = field(default_factory=list)

    @property
    def attacked(self) -> int:
        """Bases the detector alerted on (the adversary's targets)."""
        return sum(1 for o in self.outcomes if o.detected_base)

    @property
    def evaded(self) -> int:
        """Targets where some chain suppressed the alert."""
        return sum(1 for o in self.outcomes if o.detected_base and o.evaded)

    @property
    def survival_rate(self) -> float:
        """Fraction of attacked bases that found an evading chain."""
        return self.evaded / self.attacked if self.attacked else 0.0

    def move_effectiveness(self) -> dict[str, int]:
        """How often each move appears in a successful evasion chain."""
        counts = {name: 0 for name in _MOVE_NAMES}
        for outcome in self.outcomes:
            if outcome.detected_base and outcome.evaded:
                for move in outcome.chain:
                    counts[move] += 1
        return counts

    def to_dict(self) -> dict:
        """JSON-ready summary for bench artifacts."""
        return {
            "seed": self.seed,
            "rounds": self.rounds,
            "branching": self.branching,
            "bases": len(self.outcomes),
            "attacked": self.attacked,
            "evaded": self.evaded,
            "survival_rate": round(self.survival_rate, 4),
            "move_effectiveness": self.move_effectiveness(),
        }


class EvasionSearch:
    """Greedy seeded hill-descent against one detector.

    Per base: keep the current champion variant (initially the base);
    each round spawn ``branching`` candidates by applying one random
    move to the champion, score them all, and promote the lowest-scoring
    candidate that is no worse than the champion.  Stop early the moment
    a candidate stops alerting.  Greedy descent is deliberately simple —
    the point is a reproducible pressure gauge, not an optimal attacker.

    Args:
        inspect: payload-level detector entry point (returns a
            Detection-shaped object with ``alert`` and ``score``).
        seed: RNG seed; fixes the whole search.
        rounds: maximum chain length per base.
        branching: candidates tried per round.
    """

    def __init__(
        self,
        inspect: Callable[[str], object],
        *,
        seed: int = 2012,
        rounds: int = 8,
        branching: int = 6,
    ) -> None:
        self.inspect = inspect
        self.seed = seed
        self.rounds = rounds
        self.branching = branching

    def attack(self, base: str, rng: np.random.Generator) -> EvasionOutcome:
        """Search for an evading mutation chain for one base payload."""
        first = self.inspect(base)
        if not first.alert:
            return EvasionOutcome(
                base=base, base_score=first.score, detected_base=False,
                variant=base, variant_score=first.score, evaded=False,
                chain=(),
            )
        champion, champion_score = base, first.score
        chain: list[str] = []
        for _ in range(self.rounds):
            best_candidate: tuple[str, float, str, bool] | None = None
            for _ in range(self.branching):
                move = _MOVE_NAMES[int(rng.integers(len(_MOVE_NAMES)))]
                candidate = _MOVES[move](champion, rng)
                if candidate == champion:
                    continue
                detection = self.inspect(candidate)
                if (
                    best_candidate is None
                    or detection.score < best_candidate[1]
                ):
                    best_candidate = (
                        candidate, detection.score, move, detection.alert
                    )
                if not detection.alert:
                    break
            if best_candidate is None:
                break
            candidate, score, move, alerted = best_candidate
            if not alerted:
                chain.append(move)
                return EvasionOutcome(
                    base=base, base_score=first.score, detected_base=True,
                    variant=candidate, variant_score=score, evaded=True,
                    chain=tuple(chain),
                )
            if score <= champion_score:
                champion, champion_score = candidate, score
                chain.append(move)
        return EvasionOutcome(
            base=base, base_score=first.score, detected_base=True,
            variant=champion, variant_score=champion_score, evaded=False,
            chain=tuple(chain),
        )

    def run(self, bases: Sequence[str] | None = None) -> EvasionReport:
        """Attack every base; deterministic for a fixed seed and bases."""
        if bases is None:
            bases = evasion_bases(self.seed)
        report = EvasionReport(
            seed=self.seed, rounds=self.rounds, branching=self.branching
        )
        for index, base in enumerate(bases):
            # Per-base RNG stream: outcome b is independent of how many
            # rounds base b-1 consumed, so inserting a base never
            # perturbs the others' results.
            rng = np.random.default_rng((self.seed, index))
            report.outcomes.append(self.attack(base, rng))
        return report

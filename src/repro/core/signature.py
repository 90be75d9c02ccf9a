"""Generalized signatures: the paper's final artifact.

Section II-D: "a signature Sig_bj is a logistic regression model built to
predict whether an SQL query is an attack similar to the samples in cluster
b_j" — the bicluster's features are the variables of the hypothesis
function ``h_θ(F) = g(θᵀF)``, and the signature fires when the probability
crosses a threshold.  Operationally each feature value is a ``count_all``
over the normalized request payload (Section III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.features.definitions import FeatureCatalog
from repro.learn.logistic import LogisticModel, sigmoid
from repro.match import FusedSetEvaluator
from repro.normalize import Normalizer
from repro.regexlib import compile_pattern


@dataclass
class GeneralizedSignature:
    """One per-bicluster probabilistic signature.

    Attributes:
        bicluster_index: the paper-style 1-based bicluster number.
        features: the signature's feature subset (post logistic pruning).
        model: trained logistic model; ``model.theta`` is the paper's Θ
            (intercept first, then one coefficient per feature, aligned
            with ``features``).
        threshold: probability above which the signature alerts.
        bicluster_feature_count: size of the bicluster's feature set before
            logistic pruning (Table VI column 3).
        training_samples: bicluster sample count (Table VI column 2).
    """

    bicluster_index: int
    features: FeatureCatalog
    model: LogisticModel
    threshold: float = 0.5
    bicluster_feature_count: int = 0
    training_samples: int = 0
    _compiled: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if len(self.model.coefficients) != len(self.features):
            raise ValueError(
                "model coefficients must align with the feature subset"
            )
        self._compiled = [compile_pattern(d.pattern) for d in self.features]

    @property
    def n_features(self) -> int:
        """Signature size (Table VI column 4)."""
        return len(self.features)

    def feature_vector(self, normalized_payload: str) -> np.ndarray:
        """Per-feature ``count_all`` values for one normalized payload."""
        counts = np.zeros(len(self._compiled), dtype=np.float64)
        for column, compiled in enumerate(self._compiled):
            counts[column] = sum(
                1 for _ in compiled.finditer(normalized_payload)
            )
        return counts

    def probability(self, normalized_payload: str) -> float:
        """``h_θ``: probability the payload belongs to this attack class."""
        counts = self.feature_vector(normalized_payload)
        z = self.model.intercept + float(counts @ self.model.coefficients)
        return float(sigmoid(z))

    def matches(self, normalized_payload: str) -> bool:
        """Deterministic verdict: probability at or above the threshold."""
        return self.probability(normalized_payload) >= self.threshold

    def describe(self) -> str:
        """Θ in the paper's Section II-D print style."""
        terms = [f"{self.model.intercept:+.6f}"]
        for definition, coefficient in zip(
            self.features, self.model.coefficients
        ):
            terms.append(f"{coefficient:+.6f}·f[{definition.label}]")
        body = " ".join(terms)
        return f"Sig_b{self.bicluster_index}: g({body})"


class ReferenceSetEvaluator:
    """The per-signature reference loop behind the fused evaluator's
    interface.

    Every probability comes straight from
    :meth:`GeneralizedSignature.probability` — one regex traversal per
    feature per signature.  It is the oracle the fused engine
    (:class:`~repro.match.engine.FusedSetEvaluator`) is proven against,
    and the fallback for sets the fused compiler rejects.
    """

    def __init__(self, signatures: list[GeneralizedSignature]) -> None:
        self.signatures = list(signatures)

    def probabilities(self, normalized: str) -> list[float]:
        """Per-signature probabilities, in signature order."""
        return [s.probability(normalized) for s in self.signatures]


class SignatureSet:
    """An ordered collection of generalized signatures with one normalizer.

    The set alerts when *any* member signature's probability crosses its
    threshold — pSigene's operational semantics inside Bro.  Scores come
    from one evaluator slot: the fused engine by default, or the
    reference loop for a set built by :meth:`reference` (or one whose
    features the fused compiler rejects).
    """

    def __init__(
        self,
        signatures: list[GeneralizedSignature],
        normalizer: Normalizer | None = None,
    ) -> None:
        self.signatures = list(signatures)
        self.normalizer = normalizer if normalizer is not None else Normalizer()
        self._evaluator = None

    @property
    def evaluator(self) -> FusedSetEvaluator | ReferenceSetEvaluator:
        """The set's evaluator, built on first use.

        A :class:`FusedSetEvaluator` unless the set is empty or the fused
        compiler rejected its feature union; the reference loop answers
        then instead — slower, never wrong.
        """
        if self._evaluator is None:
            self._evaluator = ReferenceSetEvaluator(self.signatures)
            if self.signatures:
                try:
                    self._evaluator = FusedSetEvaluator(self.signatures)
                except Exception:
                    pass
        return self._evaluator

    def warm(self) -> bool:
        """Build the evaluator eagerly (the gateway publish path calls
        this so the first request never pays compile cost).

        Returns True when the set takes the fused fast path.
        """
        return isinstance(self.evaluator, FusedSetEvaluator)

    def reference(self) -> "SignatureSet":
        """The same signatures and normalizer, pinned to the reference
        loop.

        The returned set scores bit-identically to this one; it exists
        so the conformance oracle, the matching bench and Experiment 4
        can drive the reference evaluator without touching this set.
        """
        pinned = SignatureSet(self.signatures, normalizer=self.normalizer)
        pinned._evaluator = ReferenceSetEvaluator(pinned.signatures)
        return pinned

    def __getstate__(self) -> dict:
        """Pickle without a fused evaluator (workers rebuild it lazily
        from the process-wide matcher memo); a reference pin survives."""
        state = dict(self.__dict__)
        if isinstance(state["_evaluator"], FusedSetEvaluator):
            state["_evaluator"] = None
        return state

    def __len__(self) -> int:
        return len(self.signatures)

    def __iter__(self):
        return iter(self.signatures)

    def __getitem__(self, index: int) -> GeneralizedSignature:
        return self.signatures[index]

    def probabilities(self, payload: str) -> np.ndarray:
        """Per-signature probabilities for a raw payload."""
        return np.array(self.evaluator.probabilities(self.normalizer(payload)))

    def evaluate(self, payload: str) -> tuple[float, list[int]]:
        """One-pass verdict: ``(score, fired bicluster indices)``.

        Normalizes the payload once and evaluates every signature once
        against the shared normalized form — the hot-path entry point.
        ``score`` is the max per-signature probability; ``fired`` holds the
        bicluster indices whose probability reached their threshold.
        """
        return self.evaluate_normalized(self.normalizer(payload))

    def evaluate_normalized(
        self, normalized_payload: str
    ) -> tuple[float, list[int]]:
        """:meth:`evaluate` for an already-normalized payload.

        Folds the :attr:`evaluator`'s per-signature probabilities.  The
        fused and reference evaluators produce bit-identical scores and
        verdicts — the conformance oracle's ``serial-legacy`` path holds
        them to that.
        """
        score = 0.0
        fired: list[int] = []
        for signature, probability in zip(
            self.signatures, self.evaluator.probabilities(normalized_payload)
        ):
            if probability > score:
                score = probability
            if probability >= signature.threshold:
                fired.append(signature.bicluster_index)
        return score, fired

    def matches(self, payload: str) -> bool:
        """True when any member signature fires on the raw payload."""
        return bool(self.evaluate(payload)[1])

    def subset(self, bicluster_indices: list[int]) -> "SignatureSet":
        """A new set restricted to the given bicluster numbers.

        Used for the paper's 7-signature versus 9-signature comparison.
        """
        wanted = set(bicluster_indices)
        picked = [
            s for s in self.signatures if s.bicluster_index in wanted
        ]
        return SignatureSet(picked, normalizer=self.normalizer)

    def with_threshold(self, threshold: float) -> "SignatureSet":
        """A new set with every signature's threshold replaced (ROC sweeps)."""
        replaced = [
            GeneralizedSignature(
                bicluster_index=s.bicluster_index,
                features=s.features,
                model=s.model,
                threshold=threshold,
                bicluster_feature_count=s.bicluster_feature_count,
                training_samples=s.training_samples,
            )
            for s in self.signatures
        ]
        swept = SignatureSet(replaced, normalizer=self.normalizer)
        # Probabilities are independent of thresholds and the sweep keeps
        # features/models/order, so the evaluator carries over — a
        # 100-point ROC sweep compiles the catalog exactly once, and a
        # reference set's sweep stays on the reference loop.
        swept._evaluator = self._evaluator
        return swept

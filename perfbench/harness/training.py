"""Training the served signature set, timed whole or phase by phase."""

from __future__ import annotations

import hashlib
import time

from repro.core import PipelineConfig, PSigenePipeline
from repro.core.serialize import signature_set_to_json
from repro.core.signature import SignatureSet

from harness.spans import SpanRecorder

#: Span names of the four public phase methods of
#: :class:`PSigenePipeline`, in the order ``run()`` calls them.
PHASES = ("crawler.collect", "features.extract", "cluster.bicluster",
          "core.generalize")


def signature_digest(signature_set: SignatureSet) -> str:
    return hashlib.sha256(
        signature_set_to_json(signature_set).encode()
    ).hexdigest()


def train(config: PipelineConfig) -> tuple[SignatureSet, float]:
    """``PSigenePipeline(config).run()``; returns the set and wall seconds."""
    started = time.perf_counter()
    signature_set = PSigenePipeline(config).run().signature_set
    return signature_set, time.perf_counter() - started


def train_by_phase(
    config: PipelineConfig, spans: SpanRecorder, parent: int | None
) -> SignatureSet:
    """The same four phases ``run()`` performs, each under its own span."""
    pipeline = PSigenePipeline(config)
    with spans.span(PHASES[0], parent):
        samples = pipeline.collect_samples()
    with spans.span(PHASES[1], parent):
        matrix, _pruning, benign, _extractor = pipeline.extract_features(
            samples
        )
    with spans.span(PHASES[2], parent):
        _result, biclusters = pipeline.bicluster(matrix)
    with spans.span(PHASES[3], parent):
        _trainings, signature_set = pipeline.generalize(
            biclusters, matrix, benign
        )
    return signature_set

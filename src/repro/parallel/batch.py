"""Batched detector runs: the request side of Experiment 4's fan-out.

Where :mod:`repro.parallel.extract` parallelizes over *samples at training
time*, this module parallelizes over *requests at detection time*: a trace
is chunked, chunks fan out to worker processes, and each worker drives its
private detector copy — for pSigene that means every payload is normalized
exactly once (through a per-worker LRU) and all signatures are evaluated
against the shared normalized form via
:meth:`~repro.core.signature.SignatureSet.evaluate`.

Verdicts are order-preserving and identical to the serial
:meth:`~repro.ids.engine.SignatureEngine.run` (asserted by the parity
tests): request chunking cannot change any per-request decision because
requests are independent.
"""

from __future__ import annotations

import copy
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.core.signature import SignatureSet
from repro.http.traffic import Trace
from repro.ids.engine import Alert, Detector, EngineRun
from repro.obs import trace as obs_trace
from repro.parallel.cache import CachedNormalizer
from repro.parallel.chunking import chunk_spans, plan_chunks
from repro.parallel.timing import ScalingPoint, measure_scaling

#: Traces smaller than this are inspected in-process; pool startup would
#: dominate.
MIN_PARALLEL_BATCH = 64

# -- worker side ---------------------------------------------------------------

_WORKER_DETECTOR: Detector | None = None


def _init_match_worker(detector: Detector) -> None:
    """Pool initializer: install this worker's private detector copy."""
    global _WORKER_DETECTOR
    _WORKER_DETECTOR = detector


def _match_chunk(
    job: tuple[int, list[str]],
) -> tuple[int, list[bool], list[float], list[list[int]]]:
    """Inspect one chunk; returns per-payload verdict columns."""
    index, payloads = job
    detector = _WORKER_DETECTOR
    if detector is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("matching worker was not initialized")
    flags: list[bool] = []
    scores: list[float] = []
    matched: list[list[int]] = []
    for payload in payloads:
        detection = detector.inspect(payload)
        flags.append(bool(detection.alert))
        scores.append(float(detection.score))
        matched.append(list(detection.matched_sids))
    return index, flags, scores, matched


# -- driver side ---------------------------------------------------------------


def _with_cached_normalizer(detector: Detector, maxsize: int) -> Detector:
    """A detector clone whose signature set normalizes through an LRU.

    Detectors without a ``signature_set`` (the baseline rulesets) are
    returned unchanged — they manage their own matching internals.
    """
    signature_set = getattr(detector, "signature_set", None)
    if not maxsize or not isinstance(signature_set, SignatureSet):
        return detector
    clone = copy.copy(detector)
    clone.signature_set = SignatureSet(
        signature_set.signatures,
        normalizer=CachedNormalizer(
            signature_set.normalizer, maxsize=maxsize
        ),
    )
    return clone


def run_batch(
    detector: Detector,
    trace: Trace,
    *,
    workers: int = 1,
    chunk_size: int | None = None,
    normalization_cache: int = 4096,
) -> EngineRun:
    """Inspect *trace* in chunks, optionally across worker processes.

    Args:
        detector: any engine-mountable detector; it must pickle when
            ``workers > 1`` (all in-tree detectors do).
        trace: requests to inspect.
        workers: process count; 1 keeps everything in-process.
        chunk_size: requests per task (``None`` = auto).
        normalization_cache: per-worker LRU size for normalization; 0
            disables it.

    Returns:
        An :class:`EngineRun` whose alerts and flags match the serial
        :meth:`SignatureEngine.run` exactly.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    with obs_trace.span(
        "engine.run_batch",
        detector=detector.name,
        requests=len(trace),
        workers=workers,
    ) as batch_span:
        run = _run_batch(
            detector,
            trace,
            workers=workers,
            chunk_size=chunk_size,
            normalization_cache=normalization_cache,
        )
        batch_span.set(alerts=run.alert_count)
    return run


def _run_batch(
    detector: Detector,
    trace: Trace,
    *,
    workers: int,
    chunk_size: int | None,
    normalization_cache: int,
) -> EngineRun:
    """The chunk/fan-out/merge body of :func:`run_batch`."""
    payloads = trace.payloads()
    n = len(payloads)
    spans = plan_chunks(n, workers, chunk_size)
    worker_detector = _with_cached_normalizer(detector, normalization_cache)

    if workers == 1 or len(spans) <= 1 or n < MIN_PARALLEL_BATCH:
        columns = [
            _match_chunk_with(worker_detector, (i, chunk))
            for i, chunk in enumerate(chunk_spans(payloads, spans))
        ]
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(spans)),
            initializer=_init_match_worker,
            initargs=(worker_detector,),
        ) as pool:
            columns = list(
                pool.map(
                    _match_chunk,
                    enumerate(chunk_spans(payloads, spans)),
                )
            )

    flags = np.zeros(n, dtype=bool)
    all_scores = np.zeros(n, dtype=np.float64)
    run = EngineRun(detector=detector.name, trace_name=trace.name)
    for (index, chunk_flags, scores, matched), (start, _stop) in zip(
        columns, spans
    ):
        all_scores[start:start + len(scores)] = scores
        for offset, fired in enumerate(chunk_flags):
            if fired:
                position = start + offset
                flags[position] = True
                run.alerts.append(Alert(
                    request_index=position,
                    detector=detector.name,
                    score=scores[offset],
                    matched=matched[offset],
                ))
    run.alert_flags = flags
    run.scores = all_scores
    return run


def _match_chunk_with(
    detector: Detector, job: tuple[int, list[str]]
) -> tuple[int, list[bool], list[float], list[list[int]]]:
    """In-process `_match_chunk` against an explicit detector."""
    global _WORKER_DETECTOR
    previous = _WORKER_DETECTOR
    _WORKER_DETECTOR = detector
    try:
        return _match_chunk(job)
    finally:
        _WORKER_DETECTOR = previous


# -- benchmarking --------------------------------------------------------------


def bench_batch_matching(
    detector: Detector, trace: Trace
) -> list[ScalingPoint]:
    """Measured :func:`run_batch` scaling.

    The real entry point runs at each worker count up to the cores
    present — one worker takes the in-process chunk loop — and every
    count's alert flags and scores must equal the 1-worker run's (see
    :func:`repro.parallel.timing.measure_scaling`).
    """

    def run(workers: int) -> tuple[np.ndarray, np.ndarray]:
        batch = run_batch(detector, trace, workers=workers)
        return batch.alert_flags, batch.scores

    def same(left, right) -> bool:
        return all(map(np.array_equal, left, right))

    return measure_scaling(run, len(trace), same)

"""Chunked multiprocess feature extraction.

Phase 2 is embarrassingly parallel: each sample's count vector depends
only on that sample, so a 30,000-row matrix is just 30,000 independent
regex scans.  The fan-out here splits a batch into deterministic chunks
(:mod:`repro.parallel.chunking`), ships them to ``fork``/``spawn`` worker
processes that each hold their *own* compiled-pattern catalog (compiled
once per worker at pool start, not per chunk), and reassembles rows in
input order — so the parallel matrix is bit-identical to the serial one.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.features.extractor import FeatureExtractor
from repro.features.matrix import FeatureMatrix
from repro.parallel.cache import CachedNormalizer
from repro.parallel.chunking import chunk_spans, plan_chunks
from repro.parallel.timing import ScalingPoint, measure_scaling

#: Batches smaller than this never leave the calling process: pool startup
#: costs more than the extraction itself.
MIN_PARALLEL_BATCH = 64

# -- worker side ---------------------------------------------------------------

_WORKER_EXTRACTOR: FeatureExtractor | None = None


def _init_extract_worker(extractor: FeatureExtractor) -> None:
    """Pool initializer: install this worker's private extractor.

    Unpickling the extractor recompiles every catalog pattern inside the
    worker, so each process owns its catalog for the pool's lifetime.
    """
    global _WORKER_EXTRACTOR
    _WORKER_EXTRACTOR = extractor


def _extract_chunk(job: tuple[int, list[str]]) -> tuple[int, np.ndarray]:
    """Extract one chunk; returns ``(chunk_index, rows)`` for reassembly."""
    index, payloads = job
    extractor = _WORKER_EXTRACTOR
    if extractor is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("extraction worker was not initialized")
    rows = [extractor.extract(payload) for payload in payloads]
    counts = (
        np.vstack(rows)
        if rows
        else np.zeros((0, len(extractor.catalog)), np.int32)
    )
    return index, counts


# -- driver side ---------------------------------------------------------------


class ParallelFeatureExtractor:
    """Fans :meth:`FeatureExtractor.extract_many` over a process pool.

    Args:
        extractor: the serial extractor to parallelize (catalog and
            normalizer are taken from it); a default one is built when
            omitted.
        workers: process count; defaults to the machine's CPU count.
        chunk_size: payloads per task; ``None`` picks a size that
            oversubscribes each worker ~4× (see
            :mod:`repro.parallel.chunking`).
        normalization_cache: per-worker LRU size for normalization results;
            0 disables caching.
    """

    def __init__(
        self,
        extractor: FeatureExtractor | None = None,
        *,
        workers: int | None = None,
        chunk_size: int | None = None,
        normalization_cache: int = 4096,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.extractor = (
            extractor if extractor is not None else FeatureExtractor()
        )
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.chunk_size = chunk_size
        self.normalization_cache = normalization_cache

    def _worker_extractor(self) -> FeatureExtractor:
        """The extractor clone shipped to each worker (cached normalizer)."""
        if not self.normalization_cache:
            return self.extractor
        return FeatureExtractor(
            catalog=self.extractor.catalog,
            normalizer=CachedNormalizer(
                self.extractor.normalizer, maxsize=self.normalization_cache
            ),
        )

    def extract_many(
        self,
        payloads,
        *,
        sample_ids=None,
    ) -> FeatureMatrix:
        """Parallel :meth:`FeatureExtractor.extract_many`.

        Output is element-wise identical to the serial method (same counts,
        same row order, same ids); small batches and ``workers=1`` short-
        circuit to the serial path in-process.
        """
        items = list(payloads)
        if sample_ids is not None and len(sample_ids) != len(items):
            raise ValueError(
                f"{len(sample_ids)} sample ids for {len(items)} payloads"
            )
        spans = plan_chunks(len(items), self.workers, self.chunk_size)
        if (
            self.workers == 1
            or len(spans) <= 1
            or len(items) < MIN_PARALLEL_BATCH
        ):
            return self.extractor.extract_many(items, sample_ids=sample_ids)

        chunks = chunk_spans(items, spans)
        ordered: list[np.ndarray | None] = [None] * len(chunks)
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(chunks)),
            initializer=_init_extract_worker,
            initargs=(self._worker_extractor(),),
        ) as pool:
            for index, counts in pool.map(
                _extract_chunk, enumerate(chunks)
            ):
                ordered[index] = counts
        counts = np.vstack([c for c in ordered if c is not None])
        if sample_ids is None:
            ids = [f"s{i}" for i in range(counts.shape[0])]
        else:
            ids = list(sample_ids)
        return FeatureMatrix(
            counts=counts, catalog=self.extractor.catalog, sample_ids=ids
        )


# -- benchmarking --------------------------------------------------------------


def bench_batch_extraction(
    payloads: list[str],
    *,
    extractor: FeatureExtractor | None = None,
) -> list[ScalingPoint]:
    """Measured :meth:`ParallelFeatureExtractor.extract_many` scaling.

    The real entry point runs at each worker count up to the cores
    present — one worker takes its in-process serial path — and every
    count's matrix must equal the 1-worker matrix element-wise (see
    :func:`repro.parallel.timing.measure_scaling`).
    """
    extractor = extractor if extractor is not None else FeatureExtractor()

    def run(workers: int) -> np.ndarray:
        parallel = ParallelFeatureExtractor(extractor, workers=workers)
        return parallel.extract_many(payloads).counts

    return measure_scaling(run, len(payloads), np.array_equal)

"""Batch / multiprocess execution substrate.

Experiment 4 names signature matching "completely parallelizable" (Bro's
cluster mode); the same argument applies to phase-2 feature extraction,
where every sample's count vector is independent of every other's.  This
package supplies the shared machinery:

- :mod:`repro.parallel.chunking` — deterministic chunk planning.
- :mod:`repro.parallel.cache` — an LRU cache and the payload-keyed
  :class:`CachedNormalizer` used on every batch hot path.
- :mod:`repro.parallel.timing` — ``perf_counter`` overhead calibration
  and the measured worker-scaling sweep the Experiment-4 benches use.
- :mod:`repro.parallel.extract` — chunked multiprocess
  ``FeatureExtractor.extract_many`` fan-out with per-worker compiled
  pattern catalogs.
- :mod:`repro.parallel.batch` — batched detector runs
  (``SignatureEngine.run_batch``) that normalize once and evaluate all
  signatures against the shared normalized form.

Processes, not threads: the matchers are pure-Python ``re`` loops, so the
GIL serializes any thread pool; ``fork``-started worker processes each
hold their own compiled catalog and scale with cores.
"""

from repro.parallel.batch import bench_batch_matching, run_batch
from repro.parallel.cache import CachedNormalizer, CacheStats, LruCache
from repro.parallel.chunking import chunk_spans, plan_chunks
from repro.parallel.extract import (
    ParallelFeatureExtractor,
    bench_batch_extraction,
)
from repro.parallel.timing import ScalingPoint, timer_overhead

__all__ = [
    "plan_chunks",
    "chunk_spans",
    "LruCache",
    "CacheStats",
    "CachedNormalizer",
    "timer_overhead",
    "ScalingPoint",
    "ParallelFeatureExtractor",
    "bench_batch_extraction",
    "run_batch",
    "bench_batch_matching",
]

"""Measured worker scaling: counts capped at the cores, real outputs compared."""

import pytest

from repro.corpus.grammar import CorpusGenerator
from repro.parallel import bench_batch_extraction
from repro.parallel import timing
from repro.parallel.timing import measure_scaling, scaling_counts


@pytest.mark.parametrize(("cores", "expected"), [
    (1, (1,)),
    (2, (1, 2)),
    (3, (1, 2, 3)),
    (64, (1, 2, 4)),
    (None, (1,)),
])
def test_counts_never_exceed_the_cores(monkeypatch, cores, expected):
    monkeypatch.setattr(timing.os, "cpu_count", lambda: cores)
    assert scaling_counts() == expected


def test_every_count_is_warmed_then_timed_alternating(monkeypatch):
    monkeypatch.setattr(timing.os, "cpu_count", lambda: 2)
    calls = []

    def run(workers):
        calls.append(workers)
        return workers == 1

    points = measure_scaling(run, 100, lambda a, b: a == b)
    assert calls == [1, 2] + [1, 2] * timing.BEST_OF
    assert [p.workers for p in points] == [1, 2]
    assert [p.identical for p in points] == [True, False]
    assert points[0].speedup == 1.0
    assert points[1].speedup == pytest.approx(
        points[0].wall_s / points[1].wall_s
    )


def test_extraction_bench_runs_the_real_pool(monkeypatch):
    monkeypatch.setattr(timing.os, "cpu_count", lambda: 2)
    payloads = [s.payload for s in CorpusGenerator(seed=5).generate(96)]
    points = bench_batch_extraction(payloads)
    assert [p.workers for p in points] == [1, 2]
    assert points[1].n_chunks > 1
    assert all(p.identical and p.wall_s > 0 for p in points)

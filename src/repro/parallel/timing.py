"""Timing helpers: ``perf_counter`` overhead and measured worker scaling.

:func:`timer_overhead` calibrates per-item instrumentation: wrapping every
request in a ``perf_counter`` pair adds a fixed cost *inside* the measured
interval, which the matching bench subtracts from its per-request
percentiles.

:func:`measure_scaling` times a real fan-out entry point at each worker
count up to the cores present.  Nothing is modeled: a count the machine
cannot run in parallel is not measured, so every reported speedup is wall
clock on the host that wrote it.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import TypeVar

from repro.parallel.chunking import plan_chunks

#: Worker counts a scaling sweep tries, before capping at the cores present.
SCALING_COUNTS = (1, 2, 4)

#: Timed rounds per worker count, after one warm-up call each.
BEST_OF = 3

T = TypeVar("T")


def timer_overhead(samples: int = 2000) -> float:
    """Median cost, in seconds, of one ``perf_counter()`` pair.

    Measures back-to-back ``perf_counter`` calls — exactly the
    instrumentation pattern a per-request timing loop uses — and returns
    the median gap, which is robust to scheduler noise in a way the mean
    is not.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    gaps = []
    for _ in range(samples):
        start = time.perf_counter()
        gaps.append(time.perf_counter() - start)
    gaps.sort()
    return gaps[len(gaps) // 2]


@dataclass(frozen=True)
class ScalingPoint:
    """The measured wall clock of one fan-out at one worker count.

    Attributes:
        workers: worker processes the entry point was given.
        n_chunks: chunks the batch was split into at that count.
        wall_s: best-of-:data:`BEST_OF` wall-clock seconds of the whole
            call, pool start-up included.
        speedup: ``wall(1 worker) / wall_s``.
        identical: the output equalled the 1-worker output.
    """

    workers: int
    n_chunks: int
    wall_s: float
    speedup: float
    identical: bool


def scaling_counts() -> tuple[int, ...]:
    """:data:`SCALING_COUNTS` capped at ``os.cpu_count()``, ascending."""
    cores = os.cpu_count() or 1
    return tuple(sorted({min(count, cores) for count in SCALING_COUNTS}))


def measure_scaling(
    run: Callable[[int], T],
    n_items: int,
    same: Callable[[T, T], bool],
) -> list[ScalingPoint]:
    """Time ``run(workers)`` at each of :func:`scaling_counts`.

    Every count is called once to warm up (its output is the one
    compared against the 1-worker output with *same*), then timed
    :data:`BEST_OF` times with the counts alternating, so a host speed
    swing touches every count's minimum alike instead of skewing the
    ratios.
    """
    counts = scaling_counts()
    outputs = {count: run(count) for count in counts}
    best = dict.fromkeys(counts, float("inf"))
    for _ in range(BEST_OF):
        for count in counts:
            start = time.perf_counter()
            run(count)
            best[count] = min(best[count], time.perf_counter() - start)
    return [
        ScalingPoint(
            workers=count,
            n_chunks=len(plan_chunks(n_items, count)),
            wall_s=best[count],
            speedup=best[1] / best[count] if best[count] > 0 else 1.0,
            identical=bool(same(outputs[count], outputs[1])),
        )
        for count in counts
    ]

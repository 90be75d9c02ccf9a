"""Fused single-pass matching versus the per-signature reference loop.

The serial matching baseline this PR attacks is the ``WORKERS=1`` row of
``exp4_batch_matching`` (~261 µs/request on the committed run): each
request walked every signature's every feature with its own compiled
regex.  The fused engine makes one pass — token scan, factor gates, and
a shared count vector reduced by sparse gathers — and must produce
bit-identical verdicts while doing it.

Alongside the human-readable table this bench writes
``benchmarks/results/BENCH_matching.json``; CI's
``scripts/ci_bench_guard.py`` re-measures it, holds the fresh result to
``FLOORS`` and fails the build if it regresses more than 15% against
that committed baseline.
"""

import json

from repro.bench import corpus_digest
from repro.eval import format_table
from repro.match import bench_fused_matching


def measure_matching(context):
    """The measured configuration, shared with the CI guard's re-run:
    the nine-signature set over 600 sqlmap then 600 benign requests.

    Returns ``(result, corpus)``; *corpus* fingerprints the payloads.
    """
    nine, _ = context.psigene_sets()
    requests = list(context.datasets.sqlmap.requests[:600])
    requests += list(context.datasets.benign.requests[:600])
    payloads = [request.flat_payload() for request in requests]
    result = bench_fused_matching(nine, payloads, repeats=15)
    return result, {"payloads": corpus_digest(payloads)}


FLOORS = {"matching": (
    # Bit-exact parity on every payload is non-negotiable.
    ("identical", "==", True),
    # Half the median of the committed value and five fresh runs on
    # a 2-vCPU VM.
    ("speedup", ">=", 4.4),
)}


def test_bench_fused_matching(benchmark, bench_context, record, emit):
    result, corpus = benchmark.pedantic(
        measure_matching, args=(bench_context,), rounds=1, iterations=1
    )
    table = format_table(
        ["ENGINE", "µs/req", "P50 µs", "P95 µs", "SPEEDUP", "IDENTICAL"],
        [
            ["legacy", f"{result.legacy_us_per_request:.1f}", "-", "-",
             "1.00x", "-"],
            ["fused", f"{result.fused_us_per_request:.1f}",
             f"{result.fused_p50_us:.1f}", f"{result.fused_p95_us:.1f}",
             f"{result.speedup:.2f}x",
             "yes" if result.identical else "NO"],
        ],
        title=(
            "Fused single-pass matching "
            f"({result.requests} requests, {result.signatures} "
            f"signatures, {result.patterns} distinct patterns)"
        ),
    )
    record("bench_matching", table)
    emit(result.to_bench_result(seed=2012, corpus=corpus))

    # The artifact CI diffs must round-trip.
    reloaded = json.loads(result.to_json())
    assert reloaded["bench"] == "matching"
    assert reloaded["metrics"]["speedup"] == round(result.speedup, 3)

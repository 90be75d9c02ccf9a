"""Experiment 4 extension — measured request-axis fan-out.

The paper: "the signature matching is completely parallelizable — each
parallel thread can match one signature and this functionality is inbuilt
in Bro (Bro's cluster mode).  But we do not have this obvious performance
optimization implemented yet."  Signature-axis sharding is not
implemented here either: the fused matcher scores every signature in one
token scan, so there is no per-signature loop left to split.  What these
benches measure is the request axis of ``repro.parallel`` — chunked
multiprocess feature extraction and batched signature matching.

Every figure is wall clock of the real entry point
(``ParallelFeatureExtractor.extract_many`` / ``run_batch``) at worker
counts 1, 2 and 4, capped at the cores present; one worker goes through
the same entry point and takes its in-process serial path.  Each count is
warmed once, then timed best-of-3 with the counts alternating.
"""

from repro.bench import BenchResult, corpus_digest
from repro.corpus.grammar import CorpusGenerator
from repro.eval import format_table
from repro.http import Trace
from repro.ids import PSigeneDetector
from repro.parallel import bench_batch_extraction, bench_batch_matching

# Output is bit-identical to serial at every worker count, on two cores
# or more; there the extraction fan-out may not be slower than serial.
# Matching has no speed floor: pool start-up outweighs the 1,200-request
# trace, and its measured speedup straddles 1.0 from run to run.
FLOORS = {
    "exp4_batch_extraction": (
        ("identical", "==", True),
        ("cores", ">=", 2),
        ("measured_speedup_at_cores", ">=", 1.0),
    ),
    "exp4_batch_matching": (
        ("identical", "==", True),
        ("cores", ">=", 2),
    ),
}


def _scaling_artifact(slug, points, corpus):
    """Shared artifact shape for the two batch fan-out benches."""
    top = points[-1]
    return BenchResult(
        bench=slug,
        kind="perf",
        seed=2012,
        metrics={
            "cores": int(top.workers),
            "serial_wall_s": round(float(points[0].wall_s), 4),
            "measured_speedup_at_cores": round(float(top.speedup), 3),
            "identical": bool(all(p.identical for p in points)),
        },
        data={"rows": [
            {
                "workers": int(p.workers),
                "n_chunks": int(p.n_chunks),
                "wall_s": round(float(p.wall_s), 4),
                "speedup": round(float(p.speedup), 3),
            }
            for p in points
        ]},
        corpus=corpus,
    )


def _scaling_table(points, title):
    return format_table(
        ["WORKERS", "CHUNKS", "WALL s", "SPEEDUP", "IDENTICAL"],
        [
            [p.workers, p.n_chunks, f"{p.wall_s:.3f}",
             f"{p.speedup:.2f}x", "yes" if p.identical else "NO"]
            for p in points
        ],
        title=title,
    )


def test_bench_batch_extraction(benchmark, record, emit):
    """Chunked multiprocess feature extraction over a 3k-sample corpus."""
    payloads = [
        s.payload for s in CorpusGenerator(seed=2012).generate(3000)
    ]
    points = benchmark.pedantic(
        bench_batch_extraction, args=(payloads,), rounds=1, iterations=1
    )
    record("exp4_batch_extraction", _scaling_table(points, (
        "Experiment 4 extension: batch feature extraction "
        f"({len(payloads)} samples, full catalog; measured wall clock)"
    )))
    emit(_scaling_artifact(
        "exp4_batch_extraction", points,
        corpus={"grammar_corpus": corpus_digest(payloads)},
    ))


def test_bench_batch_matching(benchmark, bench_context, record, emit):
    """Request-axis fan-out of signature matching (run_batch)."""
    nine, _ = bench_context.psigene_sets()
    requests = list(bench_context.datasets.sqlmap.requests[:600])
    requests += list(bench_context.datasets.benign.requests[:600])
    trace = Trace(name="mixed-sample", requests=requests)
    points = benchmark.pedantic(
        bench_batch_matching, args=(PSigeneDetector(nine), trace),
        rounds=1, iterations=1,
    )
    record("exp4_batch_matching", _scaling_table(points, (
        "Experiment 4 extension: batched signature matching "
        f"({len(trace)} requests, {len(nine)} signatures; measured "
        f"wall clock)"
    )))
    emit(_scaling_artifact(
        "exp4_batch_matching", points,
        corpus={"mixed_sample": corpus_digest(trace.payloads())},
    ))

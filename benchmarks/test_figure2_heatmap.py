"""Figure 2 — heat map with two dendrograms of the training matrix.

Paper: the 30,000 × 159 standardized matrix reordered by the two HAC
dendrograms exposes eleven biclusters, two of which (9 and 10) are black
holes; the sample dendrogram's cophenetic correlation coefficient is 0.92.
"""

import os

from repro.bench import BenchResult, results_dir
from repro.cluster.heatmap import render_ppm
from repro.eval import figure2_heatmap


FLOORS = {"figure2_heatmap": (
    ("biclusters", ">=", 6),
    ("biclusters", "<=", 11),
    ("black_holes", ">=", 1),
    ("black_holes", "<=", 3),
    ("cophenetic", ">", 0.6),
)}


def test_figure2(benchmark, bench_context, record, emit):
    heatmap, text = benchmark.pedantic(
        figure2_heatmap, args=(bench_context,), rounds=1, iterations=1
    )
    cophenetic = bench_context.result.biclustering.cophenetic_correlation
    black_holes = sum(
        1 for b in bench_context.result.biclusters if b.is_black_hole
    )
    total = len(bench_context.result.biclusters)
    header = (
        f"Figure 2 (text rendering; right margin = bicluster id)\n"
        f"biclusters selected: {total} (paper: 11), black holes: "
        f"{black_holes} (paper: 2), cophenetic correlation: "
        f"{cophenetic:.3f} (paper: 0.92)\n"
    )
    record("figure2_heatmap", header + text)

    render_ppm(heatmap, os.path.join(results_dir(), "figure2_heatmap.ppm"))

    labels = heatmap.row_cluster_of
    nonzero = labels[labels > 0]
    transitions = sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)
    emit(BenchResult(
        bench="figure2_heatmap",
        kind="figure",
        seed=2012,
        metrics={
            "biclusters": total,
            "black_holes": black_holes,
            "cophenetic": round(float(cophenetic), 6),
            "row_transitions": transitions,
            "heatmap_rows": int(heatmap.z.shape[0]),
            "heatmap_cols": int(heatmap.z.shape[1]),
        },
    ))

    # The heatmap rows must group bicluster members contiguously.
    assert transitions <= total + 2

"""No bench escapes the trajectory: bench modules ↔ floors ↔ artifacts.

The floors are the ones ``scripts/ci_bench_guard.py`` collects — each
bench module's ``FLOORS``, merged by :func:`repro.bench.collect_floors`.
Four closures, each failing with the name of what is missing:

1. every committed ``BENCH_*.json`` has floors declared by a bench
   module (no unguarded artifact);
2. every declared slug has a committed artifact (no phantom floors);
3. every floor binds a metric its committed artifact records;
4. every bench module declares ``FLOORS``.  The ``emit`` fixture
   refuses a slug its module did not declare, so with closure 2 each
   module is the one emitter of a committed artifact.
"""

import os

from repro.bench import collect_floors, list_artifacts, load_artifact

REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")


def _committed():
    return {
        payload["bench"]: payload
        for payload in map(load_artifact, list_artifacts(RESULTS_DIR))
    }


def test_every_artifact_is_guarded():
    unguarded = sorted(set(_committed()) - set(collect_floors()))
    assert not unguarded, (
        f"committed artifacts no bench module declares FLOORS for: "
        f"{unguarded}"
    )


def test_every_guard_entry_has_an_artifact():
    phantom = sorted(set(collect_floors()) - set(_committed()))
    assert not phantom, (
        f"FLOORS declared without a committed BENCH_*.json: {phantom} — "
        f"run scripts/reproduce_all.py and commit the results"
    )


def test_floors_reference_recorded_metrics():
    committed = _committed()
    for slug, triples in collect_floors().items():
        metrics = committed[slug]["metrics"]
        for metric, _op, _bound in triples:
            assert metric in metrics, (
                f"FLOORS[{slug!r}] guards metric {metric!r} which the "
                f"committed artifact does not record"
            )


def test_every_bench_module_emits_an_artifact():
    # collect_floors raises naming any bench module without FLOORS.
    assert set(collect_floors()) == set(_committed())

"""No bench escapes the trajectory: artifacts ↔ guard set ↔ emitters.

Three closures, each failing with the name of what is missing:

1. every committed ``BENCH_*.json`` has a floors entry in
   ``scripts/ci_bench_guard.py`` (no unguarded artifact);
2. every floors entry has a committed artifact (no phantom guard);
3. every benchmark module emits a JSON artifact through the shared
   writer (no bench producing only a text table).
"""

import importlib.util
import os

from repro.bench import list_artifacts, load_artifact

REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")
BENCHMARKS_DIR = os.path.join(REPO_ROOT, "benchmarks")

#: Bench modules whose artifact is emitted elsewhere: none today — every
#: ``benchmarks/test_*.py`` must reference the shared emitter itself.
EMITTER_EXEMPT: frozenset[str] = frozenset()


def _guard_floors():
    path = os.path.join(REPO_ROOT, "scripts", "ci_bench_guard.py")
    spec = importlib.util.spec_from_file_location("_ci_bench_guard", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FLOORS


def _committed_slugs():
    return {
        load_artifact(path)["bench"]
        for path in list_artifacts(RESULTS_DIR)
    }


def test_every_artifact_is_guarded():
    floors = _guard_floors()
    unguarded = sorted(_committed_slugs() - set(floors))
    assert not unguarded, (
        f"committed artifacts without a FLOORS entry in "
        f"scripts/ci_bench_guard.py: {unguarded}"
    )


def test_every_guard_entry_has_an_artifact():
    floors = _guard_floors()
    phantom = sorted(set(floors) - _committed_slugs())
    assert not phantom, (
        f"FLOORS entries without a committed BENCH_*.json: {phantom} — "
        f"run scripts/reproduce_all.py and commit the results"
    )


def test_floors_reference_recorded_metrics():
    floors = _guard_floors()
    by_slug = {
        payload["bench"]: payload
        for payload in map(load_artifact, list_artifacts(RESULTS_DIR))
    }
    for slug, triples in floors.items():
        metrics = by_slug[slug]["metrics"]
        for metric, op, _bound in triples:
            assert metric in metrics, (
                f"FLOORS[{slug!r}] guards metric {metric!r} which the "
                f"committed artifact does not record"
            )
            assert op in (">=", ">", "<=", "=="), (slug, metric, op)


def test_every_bench_module_emits_an_artifact():
    missing = []
    for name in sorted(os.listdir(BENCHMARKS_DIR)):
        if not (name.startswith("test_") and name.endswith(".py")):
            continue
        if name in EMITTER_EXEMPT:
            continue
        with open(os.path.join(BENCHMARKS_DIR, name)) as handle:
            source = handle.read()
        if "emit(" not in source:
            missing.append(name)
    assert not missing, (
        f"bench modules without a JSON artifact emitter: {missing}"
    )

"""Every bench floor can fail.

For each ``(metric, op, bound)`` triple the bench modules declare in
their ``FLOORS`` (collected as ``scripts/ci_bench_guard.py`` collects
them), a copy of the committed artifact bundle gets that one metric
pushed just past its bound, and the guard's artifact sweep must reject
the copy naming that metric.  A floor no value could violate — a
misspelled metric, an inverted op, a bound the sweep never compares —
fails here instead of passing silently in CI.
"""

import importlib.util
import json
import os
import shutil

import pytest

from repro.bench import (
    collect_floors,
    dump_bench_json,
    list_artifacts,
    load_artifact,
)
from repro.bench.floors import FLOOR_OPS
from repro.bench.writer import RESULTS_DIR_ENV

REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")


def _load_guard():
    path = os.path.join(REPO_ROOT, "scripts", "ci_bench_guard.py")
    spec = importlib.util.spec_from_file_location("_ci_bench_guard", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GUARD = _load_guard()
FLOORS = collect_floors()
TRIPLES = [
    (slug, metric, op, bound)
    for slug, triples in FLOORS.items()
    for metric, op, bound in triples
]


def just_past(op, bound):
    """The nearest value on the failing side of ``value <op> bound``."""
    if isinstance(bound, bool):
        return not bound
    step = 1 if isinstance(bound, int) else 1e-6 * max(1.0, abs(bound))
    if op in ("<", ">"):
        return bound
    if op == ">=":
        return bound - step
    return bound + step  # "<=" and "=="


def _committed_copy(directory):
    for path in list_artifacts(RESULTS_DIR):
        shutil.copy(path, directory)
    return {
        load_artifact(path)["bench"]: path
        for path in list_artifacts(str(directory))
    }


def test_committed_bundle_clears_every_floor(tmp_path, monkeypatch):
    _committed_copy(tmp_path)
    monkeypatch.setenv(RESULTS_DIR_ENV, str(tmp_path))
    assert GUARD.sweep_artifacts(FLOORS).startswith("artifact sweep OK")


@pytest.mark.parametrize(
    ("slug", "metric", "op", "bound"),
    TRIPLES,
    ids=[f"{slug}:{metric}{op}{bound}" for slug, metric, op, bound in TRIPLES],
)
def test_floor_fails_just_past_its_bound(
    slug, metric, op, bound, tmp_path, monkeypatch
):
    path = _committed_copy(tmp_path)[slug]
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    value = just_past(op, bound)
    assert not FLOOR_OPS[op](value, bound)
    payload["metrics"][metric] = value
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_bench_json(payload))
    monkeypatch.setenv(RESULTS_DIR_ENV, str(tmp_path))
    with pytest.raises(AssertionError) as excinfo:
        GUARD.sweep_artifacts(FLOORS)
    message = str(excinfo.value)
    assert f"{metric}={value!r} violates floor" in message, message
    assert os.path.basename(path) in message, message

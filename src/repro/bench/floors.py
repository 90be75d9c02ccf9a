"""Acceptance floors: declared once, beside the bench that emits them.

Each ``benchmarks/test_*.py`` declares ``FLOORS = {slug: ((metric, op,
bound), ...)}`` for the artifacts it emits.  :func:`check_floors` is the
one check: the benches' ``emit`` fixture runs it on each fresh result,
and ``scripts/ci_bench_guard.py`` on each committed artifact, with the
floors of every module merged by :func:`collect_floors`.
"""

from __future__ import annotations

import importlib.util
import operator
import os
from types import ModuleType
from typing import Any, Mapping

from repro.bench.writer import BENCHMARKS_DIR

__all__ = ["FLOOR_OPS", "check_floors", "collect_floors", "load_bench_module"]

#: ``value <op> bound`` must hold for each floor.
FLOOR_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}

Floors = Mapping[str, tuple[tuple[str, str, Any], ...]]


def check_floors(
    where: str, payload: Mapping[str, Any], floors: Floors
) -> int:
    """Hold one artifact payload (named *where* in messages) to its
    slug's floors; returns how many applied.

    Raises:
        AssertionError: the slug has no floors, a floor's metric is not
            recorded, or a value violates its floor.
    """
    slug = payload["bench"]
    if slug not in floors:
        raise AssertionError(
            f"{where}: bench '{slug}' declares no FLOORS — every "
            f"artifact must be guarded"
        )
    for metric, op, bound in floors[slug]:
        if metric not in payload["metrics"]:
            raise AssertionError(
                f"{where}: floors expect metric '{metric}' which the "
                f"artifact does not record"
            )
        value = payload["metrics"][metric]
        if not FLOOR_OPS[op](value, bound):
            raise AssertionError(
                f"{where}: {metric}={value!r} violates floor "
                f"'{metric} {op} {bound!r}'"
            )
    return len(floors[slug])


def load_bench_module(path: str) -> ModuleType:
    """A file under ``benchmarks/``, imported without running a bench."""
    name = os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def collect_floors(directory: str = BENCHMARKS_DIR) -> Floors:
    """Every bench module's ``FLOORS``, merged into one slug map.

    Raises:
        AssertionError: a module declares no floors, a floor uses an
            unknown op, or two modules declare the same slug.
    """
    collected: dict[str, tuple] = {}
    owner: dict[str, str] = {}
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("test_") and name.endswith(".py")):
            continue
        declared = getattr(
            load_bench_module(os.path.join(directory, name)), "FLOORS", None
        )
        if not declared:
            raise AssertionError(f"{name} declares no FLOORS")
        for slug, triples in declared.items():
            if slug in owner:
                raise AssertionError(
                    f"bench '{slug}' declares FLOORS in both "
                    f"{owner[slug]} and {name}"
                )
            unknown = [op for _, op, _ in triples if op not in FLOOR_OPS]
            if unknown:
                raise AssertionError(
                    f"{name}: '{slug}' floors use unknown ops {unknown}"
                )
            owner[slug] = name
            collected[slug] = tuple(triples)
    return collected

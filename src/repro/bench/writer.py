"""The one shared artifact writer every bench routes through.

Key order, float formatting, and trailing-newline behaviour are decided
here and nowhere else: artifacts serialize with sorted keys, two-space
indentation, ``allow_nan=False``, and exactly one trailing newline, so
that loading a committed artifact and re-dumping it reproduces the file
byte for byte (asserted by ``tests/bench/test_schema.py``).

The results directory defaults to ``benchmarks/results`` resolved from
the repository layout, overridable via ``REPRO_BENCH_RESULTS_DIR`` so
``scripts/reproduce_all.py`` (and its smoke test) can regenerate a full
artifact bundle into a scratch directory without touching the committed
ledger.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.bench.model import BenchResult, validate_bench

__all__ = [
    "artifact_path",
    "dump_bench_json",
    "list_artifacts",
    "load_artifact",
    "results_dir",
    "write_artifact",
]

#: Environment override for the artifact directory.
RESULTS_DIR_ENV = "REPRO_BENCH_RESULTS_DIR"

#: ``benchmarks/`` relative to the repository root (this file lives at
#: ``src/repro/bench/writer.py``).
BENCHMARKS_DIR = os.path.join(
    os.path.dirname(
        os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
    ),
    "benchmarks",
)
_DEFAULT_RESULTS_DIR = os.path.join(BENCHMARKS_DIR, "results")


def results_dir() -> str:
    """The artifact directory (env-overridable, created on demand)."""
    directory = os.environ.get(RESULTS_DIR_ENV) or _DEFAULT_RESULTS_DIR
    os.makedirs(directory, exist_ok=True)
    return directory


def dump_bench_json(payload: Any) -> str:
    """Canonical serialization: sorted keys, 2-space indent, newline.

    ``allow_nan=False`` makes a NaN/inf metric a loud error instead of
    a silently non-standard artifact.
    """
    return (
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        + "\n"
    )


def artifact_path(bench: str, directory: str | None = None) -> str:
    """Where ``BENCH_<bench>.json`` lives."""
    return os.path.join(
        directory if directory is not None else results_dir(),
        f"BENCH_{bench}.json",
    )


def write_artifact(
    result: BenchResult, directory: str | None = None
) -> str:
    """Validate and write one artifact; returns the written path."""
    path = artifact_path(result.bench, directory)
    with open(path, "w") as handle:
        handle.write(result.to_json())
    return path


def load_artifact(path: str) -> dict[str, Any]:
    """Read and schema-validate one artifact file."""
    with open(path) as handle:
        return validate_bench(json.load(handle))


def list_artifacts(directory: str | None = None) -> list[str]:
    """Sorted paths of every ``BENCH_*.json`` in the results directory."""
    base = directory if directory is not None else results_dir()
    if not os.path.isdir(base):
        return []
    return sorted(
        os.path.join(base, name)
        for name in os.listdir(base)
        if name.startswith("BENCH_") and name.endswith(".json")
    )

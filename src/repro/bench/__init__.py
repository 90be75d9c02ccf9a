"""Machine-readable benchmark trajectory: one schema for every artifact.

Every benchmark under ``benchmarks/`` regenerates a human-readable text
table *and* a schema-versioned JSON artifact
(``benchmarks/results/BENCH_<slug>.json``) so that later performance PRs
can prove their win against a committed ledger instead of eyeballing
text diffs.  This package is the single definition of that artifact:

- :class:`BenchResult` — the shared result model (slug, kind, seed,
  flat ``metrics``, nested ``data``, ``corpus`` content hashes, and
  git/environment ``provenance``);
- :func:`validate_bench` / :class:`BenchSchemaError` — strict schema
  validation (missing, extra, and mistyped fields all rejected);
- :func:`dump_bench_json` / :func:`write_artifact` — the one canonical
  writer (sorted keys, two-space indent, trailing newline, NaN-free)
  every bench routes through, so artifacts are byte-identical under
  re-serialization;
- :func:`corpus_digest` — SHA-256 content hashing for the corpora a
  bench measured, mirroring the canary ledger's discipline;
- :func:`build_summary` / :func:`validate_summary` — the unified
  ``SUMMARY.json`` eval summary ``scripts/reproduce_all.py`` folds all
  artifacts into;
- :func:`check_floors` / :func:`collect_floors` — the one check of the
  ``FLOORS`` each bench module declares, run by the benches' ``emit``
  and by ``scripts/ci_bench_guard.py`` on every committed artifact.
"""

from repro.bench.floors import check_floors, collect_floors
from repro.bench.model import (
    BENCH_KINDS,
    BENCH_SCHEMA,
    BenchResult,
    BenchSchemaError,
    collect_provenance,
    validate_bench,
)
from repro.bench.summary import (
    SUMMARY_SCHEMA,
    build_summary,
    corpus_digest,
    validate_summary,
)
from repro.bench.writer import (
    artifact_path,
    dump_bench_json,
    list_artifacts,
    load_artifact,
    results_dir,
    write_artifact,
)

__all__ = [
    "BENCH_KINDS",
    "BENCH_SCHEMA",
    "SUMMARY_SCHEMA",
    "BenchResult",
    "BenchSchemaError",
    "artifact_path",
    "build_summary",
    "check_floors",
    "collect_floors",
    "collect_provenance",
    "corpus_digest",
    "dump_bench_json",
    "list_artifacts",
    "load_artifact",
    "results_dir",
    "validate_bench",
    "validate_summary",
    "write_artifact",
]

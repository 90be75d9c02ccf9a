"""Run one benchmark workload against the checkout it sits in.

    python3 perfbench/run.py --workload line-mix --seed 1 --seconds 20 --trace 0

Prints one ``name: value unit`` line per metric, notes, and as the last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Exits 1 when any response, reload or training digest was wrong, and 2
when the program under test is missing.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the gateway child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from harness.workloads import WORKLOADS, run

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    outcome = run(ROOT, args.workload, args.seed, args.seconds,
                  bool(args.trace))
    return 0 if emit(outcome) else 1


def emit(outcome) -> bool:
    """Print *outcome*, the JSON object last; True when it is correct."""
    for note in outcome.notes:
        print(f"# {note}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    error_rate = outcome.failed / max(1, outcome.attempted)
    print(f"error_rate: {error_rate:.6g} ({outcome.failed} of "
          f"{outcome.attempted} attempted)")
    correct = outcome.failed == 0 and all(
        math.isfinite(value) for value, _ in outcome.metrics.values()
    )
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return correct


if __name__ == "__main__":
    sys.exit(main())

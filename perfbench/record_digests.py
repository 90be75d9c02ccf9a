"""Record the SHA-256 of the signature sets the benchmark trains.

Run from the checkout root after a change that is *meant* to alter the
trained signatures:

    python3 perfbench/record_digests.py

It rewrites ``perfbench/digests.json``; every benchmark run checks its
training output against that file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness.inputs import (  # noqa: E402
    DIGESTS_PATH,
    reload_config,
    training_config,
)
from harness.training import signature_digest, train  # noqa: E402


def main() -> int:
    digests = {}
    for config in (training_config(), reload_config()):
        digests[str(config.seed)] = signature_digest(train(config)[0])
        print(config.seed, digests[str(config.seed)], flush=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(scope="session")
def small_set():
    """A quickly trained signature set (not the benchmark's size)."""
    from repro.core import PipelineConfig, PSigenePipeline

    config = PipelineConfig(seed=2012, n_attack_samples=400,
                            n_benign_train=600, max_cluster_rows=300)
    return PSigenePipeline(config).run().signature_set


@pytest.fixture()
def gateway(small_set, tmp_path):
    from repro.core.serialize import signature_set_to_json

    from harness.gateway import GatewayProcess

    path = tmp_path / "signatures.json"
    path.write_text(signature_set_to_json(small_set))
    process = GatewayProcess(ROOT, path)
    try:
        process.wait_ready()
        yield process
    finally:
        process.stop()

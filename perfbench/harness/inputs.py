"""Seeded workload inputs.

Everything the program sees is generated here from ``--seed``: the
training configuration, the line-protocol payload trace, and the
REPRO-FRAME/2 full-request trace.  The same seed gives byte-identical
inputs (``input_digest``); another seed gives other inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.core import PipelineConfig
from repro.http import HttpRequest
from repro.serve import build_load_trace
from repro.serve.protocol import encode_framed_request
from repro.corpus.surfaces import SurfaceCorpusGenerator
from repro.surfaces import DEFAULT_SURFACES, InjectionSurface

DIGESTS_PATH = Path(__file__).resolve().parent.parent / "digests.json"

#: The served set is trained from fixed seeds, not from ``--seed``: sets
#: trained from different seeds differ in size (8-10 signatures), which
#: moves the per-request cost by about a fifth and would swamp the
#: metrics.  ``--seed`` varies the traffic.
TRAINING_SEED = 2012
RELOAD_SEED = 3012

#: The full-size training run every workload's set-up performs.
TRAIN_CONFIG = dict(seed=TRAINING_SEED, n_attack_samples=3000,
                    n_benign_train=8000, max_cluster_rows=1500)
#: The smaller alternate set ``line-openloop`` swaps in by reload.
RELOAD_CONFIG = dict(seed=RELOAD_SEED, n_attack_samples=1000,
                     n_benign_train=2000, max_cluster_rows=600)

LINE_TRACE = dict(n_vulnerabilities=136, n_benign=12000)
FRAMED_REQUESTS = 6000
FRAMED_SURFACES: tuple[InjectionSurface, ...] = DEFAULT_SURFACES


def training_config() -> PipelineConfig:
    """The served set's training run."""
    return PipelineConfig(**TRAIN_CONFIG)


def reload_config() -> PipelineConfig:
    """The alternate set ``line-openloop`` reloads (a distinct seed)."""
    return PipelineConfig(**RELOAD_CONFIG)


def recorded_digest(config: PipelineConfig) -> str | None:
    """SHA-256 recorded for *config*'s signature set, if any."""
    digests = json.loads(DIGESTS_PATH.read_text())
    return digests.get(str(config.seed))


@dataclass
class LineInputs:
    payloads: list[str]
    wires: list[bytes]


@dataclass
class FramedInputs:
    requests: list[HttpRequest]
    wires: list[bytes]
    surfaces: tuple[InjectionSurface, ...]


def line_inputs(seed: int) -> LineInputs:
    """SQLmap + Vega scans of a 136-vulnerability app mixed with benign
    portal traffic: ~22k payloads, ~12.8k distinct, ~40 B mean."""
    payloads = build_load_trace(seed=seed, **LINE_TRACE).payloads()
    wires = [p.encode("utf-8", errors="replace") + b"\n" for p in payloads]
    return LineInputs(payloads=payloads, wires=wires)


def framed_inputs(seed: int) -> FramedInputs:
    """Whole requests across all seven injection surfaces, framed."""
    requests = SurfaceCorpusGenerator(seed=seed).mixed_trace(
        FRAMED_REQUESTS
    ).requests
    wires = [encode_framed_request(r, FRAMED_SURFACES) for r in requests]
    return FramedInputs(requests=requests, wires=wires,
                        surfaces=FRAMED_SURFACES)


def input_digest(wires: list[bytes]) -> str:
    """One hash over the traffic a workload sends."""
    digest = hashlib.sha256()
    for wire in wires:
        digest.update(wire)
    return digest.hexdigest()

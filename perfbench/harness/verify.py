"""Offline referee: every response must equal the offline verdict.

A line response must be byte-identical to ``encode_detection`` of
``PSigeneDetector.inspect(payload)``; a framed response to
``encode_surface_detection`` of ``score_request(detector.inspect, ...)``
— in both cases under the signature generation named by the
response's own ``version``.
"""

from __future__ import annotations

import json

from repro.ids.engine import PSigeneDetector
from repro.serve.protocol import encode_detection, encode_surface_detection
from repro.surfaces import score_request

from harness.driver import PhaseRecord
from harness.inputs import FramedInputs, LineInputs


class Referee:
    """Expected response bytes per ``(version, wire index)``.

    Args:
        inputs: the workload's inputs.
        versions: signature set serving each store version.
    """

    def __init__(self, inputs: LineInputs | FramedInputs,
                 versions: dict) -> None:
        self.inputs = inputs
        self.versions = versions
        self._detectors: dict[int, PSigeneDetector] = {}
        self._detections: dict[tuple[int, object], object] = {}
        self._expected: dict[tuple[int, int], bytes] = {}

    def _detector(self, signature_set) -> PSigeneDetector:
        key = id(signature_set)
        if key not in self._detectors:
            self._detectors[key] = PSigeneDetector(signature_set)
        return self._detectors[key]

    def expected(self, version: int, index: int) -> bytes | None:
        """The exact response line (without newline) the gateway owes."""
        key = (version, index)
        if key in self._expected:
            return self._expected[key]
        signature_set = self.versions.get(version)
        if signature_set is None:
            return None
        detector = self._detector(signature_set)
        if isinstance(self.inputs, LineInputs):
            payload = self.inputs.payloads[index]
            dkey = (id(signature_set), payload)
            if dkey not in self._detections:
                self._detections[dkey] = detector.inspect(payload)
            line = encode_detection(self._detections[dkey], version)
        else:
            dkey = (id(signature_set), index)
            if dkey not in self._detections:
                self._detections[dkey] = score_request(
                    detector.inspect, self.inputs.requests[index],
                    self.inputs.surfaces,
                )
            line = encode_surface_detection(self._detections[dkey], version)
        self._expected[key] = line.rstrip(b"\n")
        return self._expected[key]

    def check(self, record: PhaseRecord) -> tuple[int, int]:
        """``(unanswered, mismatched)`` over every request of *record*."""
        unanswered = mismatched = 0
        for index, response in zip(record.wire, record.responses):
            if response is None:
                unanswered += 1
                continue
            try:
                version = json.loads(response).get("version")
            except (ValueError, AttributeError):
                version = None
            if not isinstance(version, int) or \
                    self.expected(version, index) != response:
                mismatched += 1
        return unanswered, mismatched

"""Serving telemetry: a named-counter view over the metrics registry.

The paper's Bro deployment watched production traffic for weeks
(Section III-C); judging such a deployment requires knowing what the
detector actually did — how many requests it inspected, how many alerts
it raised, how long inspection took at the tail.  :class:`Telemetry`
collects exactly that.

Since the observability layer landed, telemetry is a *consumer* of
:class:`~repro.obs.registry.MetricsRegistry`, not an owner of its own
counter dicts: ``increment("inspected")`` feeds the registry counter
``repro_inspected_total``, ``observe("service", s)`` feeds the histogram
``repro_service_seconds``, and the gateway's ``/stats`` JSON and
``/metrics`` Prometheus exposition are two renderings of the same
instruments — they cannot disagree.

The short-name API (``inspected``, ``alerted``, ``shed``...) is kept
because the serving stack and its tests speak it; the mapping to
canonical metric names is mechanical (``repro_<name>_total`` /
``repro_<name>_seconds``).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Mapping

from repro.obs.registry import Counter, Histogram, MetricsRegistry
from repro.surfaces import InjectionSurface

__all__ = [
    "Telemetry",
    "merge_raw_states",
    "surfaces_section",
]


class Telemetry:
    """Thread-safe counters plus named latency histograms.

    Counter names used by the serving stack (the set is open — any name
    works):

    - ``inspected``: payloads that reached a detector.
    - ``alerted``: inspections whose verdict was an alert.
    - ``shed``: requests rejected by admission control.
    - ``reloads``: successful signature hot-swaps.
    - ``reload_failures``: rejected swaps (old version retained).
    - ``connections``: TCP/HTTP connections accepted.
    - ``protocol_errors``: undecodable input lines.

    Histograms are created on first use, except the two the gateway
    records per request, which are resolved once up front: ``service``
    (detector time alone) and ``latency`` (queue wait + service).

    Args:
        registry: the metrics registry to report through.  A private
            one is created when omitted; pass
            :class:`~repro.obs.registry.NullRegistry` to disable all
            bookkeeping.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._started = time.monotonic()
        # Hot-path instruments, resolved once.
        self._inspected = self._counter("inspected")
        self._alerted = self._counter("alerted")
        self._service = self._histogram("service")
        self._latency = self._histogram("latency")

    def _counter(self, name: str) -> Counter:
        """Registry counter for short name ``name`` (cached)."""
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self.registry.counter(
                    f"repro_{name}_total",
                    f"Serving counter {name!r}.",
                )
                self._counters[name] = counter
            return counter

    def _histogram(self, name: str) -> Histogram:
        """Registry histogram for short name ``name`` (cached)."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self.registry.histogram(
                    f"repro_{name}_seconds",
                    f"Latency histogram {name!r} (seconds).",
                )
                self._histograms[name] = histogram
            return histogram

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        self._counter(name).inc(amount)

    def observe(self, name: str, seconds: float) -> None:
        """Record a latency sample into histogram ``name``."""
        self._histogram(name).observe(seconds)

    def record_inspection(
        self, alerted: bool, seconds: float, latency: float | None = None
    ) -> None:
        """One-call hot-path helper: counters, the ``service`` histogram
        and, when given, the ``latency`` histogram (queue wait +
        service)."""
        self._inspected.inc()
        if alerted:
            self._alerted.inc()
        self._service.observe(seconds)
        if latency is not None:
            self._latency.observe(latency)

    def record_surfaces(self, detection) -> None:
        """Per-surface counters for one surface-aware verdict.

        *detection* is a :class:`repro.surfaces.SurfaceDetection` (duck
        typed — anything with ``verdicts`` carrying ``surface`` and
        ``detection.alert`` works).  Each scored unit feeds
        ``surface_<name>_inspected`` and, on alert,
        ``surface_<name>_alerted`` — plain name-keyed counters
        (``repro_surface_query_inspected_total``...), so fleet
        ``merge_raw_states`` aggregation works on them unchanged.
        """
        for verdict in getattr(detection, "verdicts", ()):
            name = verdict.surface.metric_name
            self._counter(f"surface_{name}_inspected").inc()
            if verdict.detection.alert:
                self._counter(f"surface_{name}_alerted").inc()

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return int(self._counter(name).value)

    def raw_state(self) -> dict[str, Any]:
        """Portable dump for cross-process aggregation.

        Counters ship as plain ints and histograms as
        :meth:`~repro.obs.registry.Histogram.state` dicts, so a fleet
        shard can pipe its whole telemetry to the supervisor as one
        picklable object and the supervisor can rebuild merged
        percentiles without sharing any memory.
        """
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        return {
            "counters": {
                name: int(counter.value)
                for name, counter in counters.items()
            },
            "histograms": {
                name: histogram.state()
                for name, histogram in histograms.items()
            },
        }

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time copy of every counter and histogram summary."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        return {
            "uptime_s": time.monotonic() - self._started,
            "counters": {
                name: int(counter.value)
                for name, counter in counters.items()
                if counter.value or name in ("inspected", "alerted")
            },
            "latency": {
                name: {
                    "count": histogram.count,
                    **histogram.percentiles_ms(),
                }
                for name, histogram in histograms.items()
                if histogram.count or name == "service"
            },
        }


def surfaces_section(counters: Mapping[str, int]) -> dict[str, Any]:
    """The ``/stats`` ``"surfaces"`` block from plain counter values.

    Works on any name→value counter mapping — one gateway's live
    telemetry or a fleet's :func:`merge_raw_states` sum — so the
    single-shard and fleet-merged stats documents expose the identical
    per-surface shape.
    """
    return {
        surface.value: {
            "inspected": int(counters.get(
                f"surface_{surface.metric_name}_inspected", 0
            )),
            "alerted": int(counters.get(
                f"surface_{surface.metric_name}_alerted", 0
            )),
        }
        for surface in InjectionSurface
    }


def merge_raw_states(states: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold per-shard :meth:`Telemetry.raw_state` dumps into fleet totals.

    Returns ``{"counters": {name: sum}, "histograms": {name: Histogram}}``
    — counters summed across shards, histograms rebuilt (default serving
    geometry) with every shard's buckets merged, ready for percentile
    queries or exposition.
    """
    counters: dict[str, int] = {}
    histograms: dict[str, Histogram] = {}
    for state in states:
        for name, value in state.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, hist_state in state.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                merged = Histogram(f"repro_{name}_seconds")
                histograms[name] = merged
            merged.merge_state(hist_state)
    return {"counters": counters, "histograms": histograms}

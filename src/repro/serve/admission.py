"""Admission control: bounded queues, backpressure policy, graceful drain.

A gateway in front of "heavy traffic from millions of users" (ROADMAP)
must decide what happens when offered load exceeds detector throughput.
Three policies are supported:

- ``block``: the submitting coroutine waits for queue space.  Combined
  with per-connection in-flight limits this propagates backpressure all
  the way to the TCP socket (the gateway stops reading, the kernel
  window fills, the client slows down).
- ``shed``: a full queue rejects the request immediately; the caller
  answers 503/``"shed": true`` and the ``shed`` counter increments.
  Latency of admitted requests stays bounded at the cost of refusing
  some — the classic load-shedding trade.
- ``cost``: cost-aware shedding.  FIFO shedding refuses whichever
  request happened to arrive at a full queue; under a mixed workload
  that throws away cheap benign lookups and expensive injection probes
  with equal probability.  The cost policy sheds by *price* instead:
  once queue depth crosses the ``high_water`` fraction, requests whose
  declared cost (by default the payload's byte length — matching time
  scales with payload size) exceeds ``cost_threshold`` are refused
  (``shed_cost`` + ``shed`` counters) while cheap requests keep being
  admitted until the queue is actually full.  Callers can price by
  family instead of size by passing a custom cost function to the
  gateway.

Each fleet shard owns its own controller, so the bounds above are
*per-shard*: a fleet of N shards at queue bound B admits up to N×B
requests before any shard sheds, and one slow shard cannot stall its
siblings' queues.

Shutdown is a drain, not an abort: the controller stops admitting,
the drain task finishes what was queued, then the gateway closes.

The consumer takes the whole queue per wake-up (:meth:`get_batch`).  A
gateway's inspections never await, so no submitter runs while a batch
is being serviced: at every point another coroutine can observe, the
depth is exactly the admitted-but-unserviced count, as with a
one-at-a-time consumer.
"""

from __future__ import annotations

import asyncio
import enum
from typing import Any

from repro.serve.telemetry import Telemetry

__all__ = [
    "AdmissionController",
    "BackpressurePolicy",
    "DEFAULT_COST_THRESHOLD",
    "DEFAULT_HIGH_WATER",
    "QueueClosed",
    "Shed",
    "check_queue_settings",
]

#: Payload cost (bytes, under the default length pricing) above which a
#: congested ``cost``-policy queue sheds the request.
DEFAULT_COST_THRESHOLD = 256.0

#: Queue-depth fraction at which the ``cost`` policy starts pricing.
DEFAULT_HIGH_WATER = 0.5


class BackpressurePolicy(str, enum.Enum):
    """What a full queue does to the next request."""

    BLOCK = "block"
    SHED = "shed"
    COST = "cost"


class Shed(Exception):
    """Raised by :meth:`AdmissionController.submit` under ``shed`` or
    ``cost`` policy when the request was refused (not admitted)."""


def check_queue_settings(queue_bound: int, high_water: float) -> None:
    """Reject queue settings no admission queue can run with."""
    if queue_bound < 1:
        raise ValueError(f"queue_bound must be >= 1, got {queue_bound}")
    if not 0.0 < high_water <= 1.0:
        raise ValueError(f"high_water must be in (0, 1], got {high_water}")


class QueueClosed(Exception):
    """Raised on submit after drain has begun; no new work is admitted."""


class AdmissionController:
    """Bounded request queue with a configurable full-queue policy.

    Args:
        queue_bound: maximum queued (admitted but unserviced) requests.
        policy: full-queue behaviour.
        telemetry: counter sink (``shed`` increments happen here so every
            admission path — TCP, HTTP, load generator — counts alike).
        cost_threshold: ``cost`` policy only — cost above which a
            congested queue sheds the request.
        high_water: ``cost`` policy only — queue-depth fraction at which
            cost-based shedding begins.
    """

    def __init__(
        self,
        *,
        queue_bound: int = 1024,
        policy: BackpressurePolicy | str = BackpressurePolicy.BLOCK,
        telemetry: Telemetry | None = None,
        cost_threshold: float = DEFAULT_COST_THRESHOLD,
        high_water: float = DEFAULT_HIGH_WATER,
    ) -> None:
        check_queue_settings(queue_bound, high_water)
        self.policy = BackpressurePolicy(policy)
        self.telemetry = telemetry
        self.cost_threshold = float(cost_threshold)
        self._high_water_depth = max(1, int(high_water * queue_bound))
        self._queue: asyncio.Queue[Any] = asyncio.Queue(maxsize=queue_bound)
        self._closed = False

    @property
    def depth(self) -> int:
        """Requests currently admitted and waiting to be serviced."""
        return self._queue.qsize()

    @property
    def closed(self) -> bool:
        """True once drain has begun."""
        return self._closed

    def _shed(self, reason: str, *, costed: bool = False) -> Shed:
        if self.telemetry is not None:
            self.telemetry.increment("shed")
            if costed:
                self.telemetry.increment("shed_cost")
        return Shed(reason)

    async def submit(self, item: Any, *, cost: float | None = None) -> None:
        """Admit ``item`` or refuse it according to policy.

        Args:
            item: the work unit to enqueue.
            cost: the request's price under the ``cost`` policy
                (ignored by ``block``/``shed``; ``None`` means unpriced
                and is never cost-shed).

        Raises:
            QueueClosed: drain already started.
            Shed: ``shed``/``cost`` policy refused the request.
        """
        if self._closed:
            raise QueueClosed("gateway is draining")
        if self.policy is BackpressurePolicy.BLOCK:
            await self._queue.put(item)
            return
        if (
            self.policy is BackpressurePolicy.COST
            and cost is not None
            and cost > self.cost_threshold
            and self._queue.qsize() >= self._high_water_depth
        ):
            raise self._shed(
                f"queue congested ({self._queue.qsize()}/"
                f"{self._queue.maxsize} waiting), payload cost "
                f"{cost:.0f} > {self.cost_threshold:.0f}",
                costed=True,
            )
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            raise self._shed(
                f"queue full ({self._queue.maxsize} waiting)"
            ) from None

    async def get_batch(self) -> list[Any]:
        """Consumer side: every queued item, oldest first (waits while
        the queue is empty).  Report them with :meth:`task_done`."""
        batch = [await self._queue.get()]
        while not self._queue.empty():
            batch.append(self._queue.get_nowait())
        return batch

    def task_done(self, count: int = 1) -> None:
        """Consumer side: mark ``count`` fetched items serviced."""
        for _ in range(count):
            self._queue.task_done()

    def close(self) -> None:
        """Stop admitting; already-queued items will still be serviced."""
        self._closed = True

    async def drain(self, timeout: float | None = None) -> bool:
        """Close and wait for queued items to be serviced.

        Returns True when the queue emptied, False on timeout (items may
        still be in flight).
        """
        self.close()
        try:
            await asyncio.wait_for(self._queue.join(), timeout)
        except asyncio.TimeoutError:
            return False
        return True

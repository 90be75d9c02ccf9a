"""Tests for admission control: policies, shedding, drain."""

import asyncio

import pytest

from repro.serve import (
    AdmissionController,
    BackpressurePolicy,
    QueueClosed,
    Shed,
    Telemetry,
)


def run(coroutine):
    return asyncio.run(coroutine)


class TestPolicies:
    def test_policy_accepts_strings(self):
        controller = AdmissionController(policy="shed")
        assert controller.policy is BackpressurePolicy.SHED

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            AdmissionController(queue_bound=0)

    def test_shed_on_full_queue(self):
        async def scenario():
            telemetry = Telemetry()
            controller = AdmissionController(
                queue_bound=2, policy="shed", telemetry=telemetry
            )
            await controller.submit("a")
            await controller.submit("b")
            with pytest.raises(Shed):
                await controller.submit("c")
            assert telemetry.counter("shed") == 1
            assert controller.depth == 2

        run(scenario())

    def test_block_waits_for_space(self):
        async def scenario():
            controller = AdmissionController(queue_bound=1, policy="block")
            await controller.submit("a")
            waiter = asyncio.ensure_future(controller.submit("b"))
            await asyncio.sleep(0)
            assert not waiter.done()  # blocked on the full queue
            batch = await controller.get_batch()
            controller.task_done(len(batch))
            await waiter  # space opened, second submit admitted
            assert batch == ["a"]
            assert controller.depth == 1

        run(scenario())


class TestDrain:
    def test_submit_after_close_raises(self):
        async def scenario():
            controller = AdmissionController()
            controller.close()
            with pytest.raises(QueueClosed):
                await controller.submit("a")

        run(scenario())

    def test_drain_waits_for_workers(self):
        async def scenario():
            controller = AdmissionController()
            await controller.submit("a")
            serviced = []

            async def worker():
                batch = await controller.get_batch()
                await asyncio.sleep(0.01)
                serviced.extend(batch)
                controller.task_done(len(batch))

            task = asyncio.ensure_future(worker())
            assert await controller.drain(timeout=1.0)
            assert serviced == ["a"]
            await task

        run(scenario())

    def test_drain_timeout(self):
        async def scenario():
            controller = AdmissionController()
            await controller.submit("never-serviced")
            assert not await controller.drain(timeout=0.01)
            assert controller.closed

        run(scenario())


class TestCostPolicy:
    def test_invalid_high_water(self):
        with pytest.raises(ValueError):
            AdmissionController(policy="cost", high_water=0.0)
        with pytest.raises(ValueError):
            AdmissionController(policy="cost", high_water=1.5)

    def test_expensive_shed_only_past_high_water(self):
        async def scenario():
            telemetry = Telemetry()
            controller = AdmissionController(
                queue_bound=4,
                policy="cost",
                telemetry=telemetry,
                cost_threshold=100.0,
                high_water=0.5,
            )
            # Below high water (depth 0, 1 < 2): expensive admitted.
            await controller.submit("big-0", cost=500.0)
            await controller.submit("big-1", cost=500.0)
            # At high water: the next expensive request is priced out.
            with pytest.raises(Shed):
                await controller.submit("big-2", cost=500.0)
            assert telemetry.counter("shed") == 1
            assert telemetry.counter("shed_cost") == 1
            assert controller.depth == 2

        run(scenario())

    def test_cheap_admitted_until_actually_full(self):
        async def scenario():
            telemetry = Telemetry()
            controller = AdmissionController(
                queue_bound=2,
                policy="cost",
                telemetry=telemetry,
                cost_threshold=100.0,
                high_water=0.5,
            )
            await controller.submit("cheap-0", cost=10.0)
            await controller.submit("cheap-1", cost=10.0)
            # Queue genuinely full: cheap requests shed too, but as a
            # plain full-queue shed, not a cost shed.
            with pytest.raises(Shed):
                await controller.submit("cheap-2", cost=10.0)
            assert telemetry.counter("shed") == 1
            assert telemetry.counter("shed_cost") == 0

        run(scenario())

    def test_unpriced_requests_are_never_cost_shed(self):
        async def scenario():
            telemetry = Telemetry()
            controller = AdmissionController(
                queue_bound=4,
                policy="cost",
                telemetry=telemetry,
                cost_threshold=100.0,
                high_water=0.25,
            )
            for index in range(4):
                await controller.submit(f"unpriced-{index}", cost=None)
            with pytest.raises(Shed):
                await controller.submit("unpriced-4", cost=None)
            assert telemetry.counter("shed_cost") == 0

        run(scenario())

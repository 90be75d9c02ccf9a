"""Fleet tests: shared-port serving, two-phase reload, shard resilience.

The acceptance bar mirrors the single-process gateway's: verdicts
through the sharded data plane are identical to ``detector.inspect``
offline — including across a mid-stream fleet-wide hot reload, a shard
killed with SIGKILL, and the respawn that follows.
"""

import asyncio
import gc
import json
import logging
import os
import signal
import time

import pytest

from repro.core import signature_set_to_json
from repro.ids import DeterministicRuleSet, PSigeneDetector, Rule
from repro.serve import (
    FleetConfig,
    FleetError,
    FleetSupervisor,
    StoreError,
    reuseport_available,
)


def toy_detector(name="toy"):
    return DeterministicRuleSet(
        name, [Rule(1, "union", r"union\s+select")]
    )


def fleet_config(**overrides):
    defaults = dict(shards=2, queue_bound=256)
    defaults.update(overrides)
    return FleetConfig(**defaults)


async def send_lines(host, port, payloads):
    """Send payload lines on one connection, return decoded responses."""
    reader, writer = await asyncio.open_connection(host, port)
    responses = []
    try:
        for payload in payloads:
            writer.write(payload.encode() + b"\n")
            await writer.drain()
            responses.append(json.loads(await reader.readline()))
    finally:
        writer.close()
        await writer.wait_closed()
    return responses


async def http(host, port, method, path, body=""):
    """One-shot HTTP exchange, returns (status, decoded body)."""
    reader, writer = await asyncio.open_connection(host, port)
    encoded = body.encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(encoded)}\r\n\r\n"
    )
    writer.write(head.encode() + encoded)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header, _, payload = raw.partition(b"\r\n\r\n")
    status = int(header.split()[1])
    if b"text/plain" in header:
        return status, payload.decode()
    return status, json.loads(payload)


class TestFleetServing:
    def test_reuseport_or_prefork_available(self):
        # The fleet needs one of its two port-sharing mechanisms; on
        # Linux (CI) both exist.
        import multiprocessing

        assert reuseport_available() or (
            "fork" in multiprocessing.get_all_start_methods()
        )

    def test_round_trip_matches_offline(self):
        async def scenario():
            supervisor = FleetSupervisor(toy_detector(), fleet_config())
            host, port = await supervisor.start()
            try:
                payloads = [
                    "id=1 union select password",
                    "q=hello world",
                    "a=UNION  SELECT 1",
                    "",
                ] * 5
                # Several connections so both shards see traffic.
                batches = await asyncio.gather(*(
                    send_lines(host, port, payloads) for _ in range(4)
                ))
            finally:
                await supervisor.stop()
            offline = [toy_detector().inspect(p) for p in payloads]
            for responses in batches:
                for response, detection in zip(responses, offline):
                    assert response["alert"] == detection.alert
                    assert response["matched"] == [
                        int(s) for s in detection.matched_sids
                    ]
                    assert response["version"] == 1

        asyncio.run(scenario())

    def test_shard_data_plane_refuses_reload(self):
        """POST /reload on the shared data port must not split the
        fleet across generations — shards answer 403."""
        async def scenario():
            supervisor = FleetSupervisor(toy_detector(), fleet_config())
            host, port = await supervisor.start()
            try:
                status, body = await http(
                    host, port, "POST", "/reload", "{}"
                )
                assert status == 403
                assert "supervisor" in body["error"]
                assert supervisor.version == 1
            finally:
                await supervisor.stop()

        asyncio.run(scenario())

    def test_control_plane_endpoints(self):
        async def scenario():
            supervisor = FleetSupervisor(toy_detector(), fleet_config())
            host, port = await supervisor.start()
            chost, cport = supervisor.control_address
            try:
                await send_lines(
                    host, port, ["id=1 union select x", "b=2"]
                )
                status, health = await http(chost, cport, "GET", "/healthz")
                assert status == 200
                assert health["status"] == "ok"
                assert health["live"] == 2

                status, stats = await http(chost, cport, "GET", "/stats")
                assert status == 200
                assert stats["fleet"]["counters"]["inspected"] == 2
                assert stats["fleet"]["counters"]["alerted"] == 1
                assert set(stats["shards"]) == {"0", "1"}
                assert all(
                    info["version"] == 1
                    for info in stats["shards"].values()
                )

                status, shards = await http(chost, cport, "GET", "/shards")
                assert status == 200
                assert len(shards["shards"]) == 2
                assert all(s["serving"] for s in shards["shards"])

                status, body = await http(chost, cport, "GET", "/missing")
                assert status == 404
            finally:
                await supervisor.stop()

        asyncio.run(scenario())

    def test_metrics_exposition_is_strictly_parseable(self):
        from repro.obs.prometheus import parse_exposition, sample_value

        async def scenario():
            supervisor = FleetSupervisor(toy_detector(), fleet_config())
            host, port = await supervisor.start()
            chost, cport = supervisor.control_address
            try:
                await send_lines(host, port, ["id=1 union select x"])
                status, text = await http(chost, cport, "GET", "/metrics")
                assert status == 200
                families = parse_exposition(text)
                # Fleet aggregate is the sum of the per-shard series.
                fleet = sample_value(
                    families, "repro_inspected_total", {"shard": "fleet"}
                )
                per_shard = sum(
                    sample_value(
                        families, "repro_inspected_total",
                        {"shard": str(index)},
                    )
                    for index in range(2)
                )
                assert fleet == per_shard == 1.0
                assert sample_value(families, "repro_fleet_shards") == 2.0
                assert (
                    sample_value(families, "repro_store_version") == 1.0
                )
                # Merged latency histogram carries the observation.
                assert (
                    sample_value(families, "repro_service_seconds_count")
                    == 1.0
                )
            finally:
                await supervisor.stop()

        asyncio.run(scenario())

    def test_cost_policy_flows_to_shards(self):
        """A congested cost-policy shard sheds the expensive payload
        and keeps admitting cheap ones."""
        async def scenario():
            supervisor = FleetSupervisor(
                toy_detector(),
                fleet_config(
                    shards=1, queue_bound=4, policy="cost",
                    cost_threshold=64.0, high_water=0.25,
                ),
            )
            host, port = await supervisor.start()
            try:
                cheap = "q=1"
                expensive = "q=" + "x" * 512
                reader, writer = await asyncio.open_connection(host, port)
                # Flood enough lines to keep the queue past high water,
                # with expensive payloads interleaved.
                lines = ([cheap] * 40 + [expensive] * 10) * 2
                for line in lines:
                    writer.write(line.encode() + b"\n")
                await writer.drain()
                responses = []
                for _ in lines:
                    responses.append(
                        json.loads(await reader.readline())
                    )
                writer.close()
                await writer.wait_closed()
                stats = await supervisor.stats()
            finally:
                await supervisor.stop()
            cost_shed = [
                index for index, r in enumerate(responses)
                if r.get("shed") and "cost" in r["error"]
            ]
            # Cost sheds hit only the priced-out payloads (queue-full
            # sheds may hit anything; those carry no cost message).
            assert cost_shed
            assert all(lines[index] == expensive for index in cost_shed)
            assert stats["fleet"]["counters"]["shed_cost"] == len(cost_shed)
            # Cheap traffic was never priced out — any cheap shed is a
            # plain queue-full refusal, and some cheap always lands.
            serviced_cheap = sum(
                1 for index, r in enumerate(responses)
                if lines[index] == cheap and not r.get("shed")
            )
            assert serviced_cheap > 0

        asyncio.run(scenario())


class TestFleetReload:
    @pytest.mark.smoke
    def test_midstream_reload_parity(self, small_signatures):
        """Offline/online parity across a fleet-wide two-phase reload
        racing live traffic: every verdict matches the offline engine
        no matter which shard or generation answered it."""
        from repro.eval.serving import (
            offline_detections,
            parity_of_responses,
        )
        from repro.serve.loadgen import replay

        async def scenario():
            detector = PSigeneDetector(small_signatures)
            supervisor = FleetSupervisor(detector, fleet_config())
            host, port = await supervisor.start()
            try:
                payloads = [
                    "id=1' union select 1,2,3-- -",
                    "q=plain benign text",
                    "name=alice&x=1 or 1=1",
                ] * 40
                replay_task = asyncio.ensure_future(
                    replay(host, port, payloads, connections=4, window=8)
                )
                await asyncio.sleep(0.02)
                result = await supervisor.reload_json(
                    signature_set_to_json(small_signatures),
                    source="midstream",
                )
                responses, _latencies, _duration = await replay_task
                stats = await supervisor.stats()
            finally:
                await supervisor.stop()
            assert result["version"] == 2
            # Every shard committed the new generation.
            assert all(
                info["version"] == 2 for info in stats["shards"].values()
            )
            parity = parity_of_responses(
                offline_detections(detector, payloads), responses,
            )
            assert parity.ok, parity.summary()
            # Both generations answered (versions observed on the wire
            # are 1 and/or 2, never anything else).
            versions = {r["version"] for r in responses if r}
            assert versions <= {1, 2}

        asyncio.run(scenario())

    def test_bad_candidate_rejected_everywhere(self):
        async def scenario():
            supervisor = FleetSupervisor(toy_detector(), fleet_config())
            host, port = await supervisor.start()
            chost, cport = supervisor.control_address
            try:
                with pytest.raises(StoreError) as excinfo:
                    await supervisor.reload_json("{broken")
                assert excinfo.value.reason == "parse"
                assert supervisor.version == 1
                assert (
                    supervisor.telemetry.counter("reload_rejected") == 1
                )
                # The control plane reports the rejection structurally.
                status, body = await http(
                    chost, cport, "POST", "/reload", "[]"
                )
                assert status == 400
                assert body["rejected"] is True
                assert body["version"] == 1
                assert body["reason"]
                # The fleet keeps serving the original generation.
                responses = await send_lines(
                    host, port, ["id=1 union select x"]
                )
                assert responses[0]["version"] == 1
                assert responses[0]["alert"]
            finally:
                await supervisor.stop()

        asyncio.run(scenario())

    def test_reload_is_atomic_per_generation(self, small_signatures):
        """Two sequential reloads land as generations 2 and 3 on every
        shard — no shard ever skips or repeats a generation."""
        async def scenario():
            detector = PSigeneDetector(small_signatures)
            supervisor = FleetSupervisor(detector, fleet_config())
            await supervisor.start()
            try:
                text = signature_set_to_json(small_signatures)
                first = await supervisor.reload_json(text)
                second = await supervisor.reload_json(text)
                stats = await supervisor.stats()
            finally:
                await supervisor.stop()
            assert (first["version"], second["version"]) == (2, 3)
            assert all(
                info["version"] == 3 for info in stats["shards"].values()
            )

        asyncio.run(scenario())


async def resilient_inspect(supervisor, payload):
    """One data-plane round-trip, retrying connection resets.

    With ``SO_REUSEPORT`` a connection racing a shard's death can land
    on the dying listener and get reset; the kernel drops the dead
    socket from the accept group, so a retry reaches a live shard —
    exactly what a real client does.
    """
    last: Exception | None = None
    for _ in range(40):
        try:
            return await supervisor.inspect(payload)
        except (
            ConnectionResetError,
            BrokenPipeError,
            json.JSONDecodeError,
            asyncio.IncompleteReadError,
        ) as exc:
            last = exc
            await asyncio.sleep(0.05)
    raise AssertionError(f"fleet stopped answering: {last!r}")


class TestFleetResilience:
    def test_shard_death_respawn_with_current_generation(
        self, small_signatures
    ):
        """SIGKILL one shard mid-stream: the fleet keeps answering, the
        monitor reaps and respawns the slot, the replacement passes the
        conformance spot-check and mounts the *current* generation."""
        async def scenario():
            detector = PSigeneDetector(small_signatures)
            supervisor = FleetSupervisor(detector, fleet_config())
            host, port = await supervisor.start()
            try:
                # Move the fleet to generation 2 first, so the respawn
                # has to pick up a non-initial store version.
                await supervisor.reload_json(
                    signature_set_to_json(small_signatures)
                )
                victim = supervisor.handles[0]
                os.kill(victim.pid, signal.SIGKILL)
                served = 0
                deadline = time.monotonic() + 15.0
                while time.monotonic() < deadline:
                    response = await resilient_inspect(
                        supervisor, "id=1' union select 1,2,3-- -"
                    )
                    assert response["alert"], response
                    served += 1
                    if victim.serving and victim.respawns == 1:
                        break
                    await asyncio.sleep(0.05)
                assert victim.respawns == 1
                assert victim.serving
                assert served > 0
                stats = await supervisor.stats()
                assert all(
                    info["version"] == 2
                    for info in stats["shards"].values()
                )
                assert supervisor.telemetry.counter("respawns") == 1
            finally:
                await supervisor.stop()

        asyncio.run(scenario())

    def test_stop_reaps_every_child(self):
        async def scenario():
            supervisor = FleetSupervisor(
                toy_detector(), fleet_config(shards=3)
            )
            await supervisor.start()
            processes = [handle.process for handle in supervisor.handles]
            assert all(p.is_alive() for p in processes)
            await supervisor.stop()
            assert all(not p.is_alive() for p in processes)
            # join() succeeded, so none of them is a zombie.
            assert all(p.exitcode is not None for p in processes)

        asyncio.run(scenario())

    def test_respawn_budget_exhausts(self):
        """A slot that keeps dying is eventually left down while the
        rest of the fleet keeps serving."""
        async def scenario():
            supervisor = FleetSupervisor(
                toy_detector(),
                fleet_config(shards=2, max_respawns=1),
            )
            host, port = await supervisor.start()
            try:
                victim = supervisor.handles[0]
                deadline = time.monotonic() + 15.0
                while time.monotonic() < deadline:
                    if victim.pid and victim.alive:
                        try:
                            os.kill(victim.pid, signal.SIGKILL)
                        except ProcessLookupError:
                            pass
                    if (
                        supervisor.telemetry.counter("respawn_exhausted")
                        and not victim.alive
                    ):
                        break
                    await asyncio.sleep(0.05)
                assert (
                    supervisor.telemetry.counter("respawn_exhausted") >= 1
                )
                # The surviving shard still answers.
                response = await resilient_inspect(
                    supervisor, "id=1 union select x"
                )
                assert response["alert"]
                chost, cport = supervisor.control_address
                status, health = await http(chost, cport, "GET", "/healthz")
                assert status == 200
                assert health["status"] == "degraded"
            finally:
                await supervisor.stop()

        asyncio.run(scenario())


class DiesInShards(DeterministicRuleSet):
    """A detector that ends any forked shard the moment it is mounted
    (the store reads ``signature_set`` to warm it)."""

    def __init__(self):
        super().__init__("doomed", [Rule(1, "union", r"union\s+select")])
        self.parent_pid = os.getpid()

    @property
    def signature_set(self):
        if os.getpid() != self.parent_pid:
            os._exit(1)
        return None


class TestFleetSettings:
    def test_bad_surfaces_fail_in_the_parent(self):
        # Parsed where the config is built, so no shard is ever forked
        # with a selection it cannot read.
        with pytest.raises(ValueError, match="unknown surface 'bogus'"):
            FleetConfig(shards=1, surfaces="bogus")

    def test_shard_death_at_boot_leaves_nothing_stray(self, caplog):
        async def scenario():
            supervisor = FleetSupervisor(DiesInShards(), fleet_config(
                shards=1, respawn=False,
            ))
            with pytest.raises(FleetError, match="shard 0"):
                await supervisor.start()
            assert supervisor.live_handles() == []

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            asyncio.run(scenario())
            gc.collect()
        assert not [
            record for record in caplog.records
            if "never retrieved" in record.getMessage()
        ]

    def test_allow_reload_false_forbids_fleet_reload(self):
        async def scenario():
            supervisor = FleetSupervisor(toy_detector(), fleet_config(
                shards=1, allow_reload=False,
            ))
            await supervisor.start()
            chost, cport = supervisor.control_address
            try:
                result = await http(chost, cport, "POST", "/reload", "{}")
            finally:
                await supervisor.stop()
            return result, supervisor.version

        (status, body), version = asyncio.run(scenario())
        assert status == 403
        assert body["version"] == 1 and version == 1


class TestFleetControlPlaneInput:
    def test_hostile_heads_are_answered_400_and_counted(self):
        from tests.serve.test_gateway_errors import raw_http

        async def scenario():
            supervisor = FleetSupervisor(
                toy_detector(), fleet_config(shards=1)
            )
            await supervisor.start()
            chost, cport = supervisor.control_address
            try:
                answers = [
                    await raw_http(chost, cport, raw) for raw in (
                        b"GET /healthz HTTP/1.1\r\nX-Big: "
                        + b"a" * 300_000 + b"\r\n\r\n",
                        b"GET /" + b"a" * 300_000 + b" HTTP/1.1\r\n\r\n",
                        b"id=1 union select x\n",
                    )
                ]
                health = await http(chost, cport, "GET", "/healthz")
            finally:
                await supervisor.stop()
            return answers, health, supervisor.telemetry.counter(
                "protocol_errors"
            )

        answers, (health_status, _), errors = asyncio.run(scenario())
        assert [status for status, _ in answers] == [400, 400, 400]
        assert "too long" in answers[0][1]["error"]
        assert "too long" in answers[1][1]["error"]
        assert "HTTP only" in answers[2][1]["error"]
        assert errors == 3
        assert health_status == 200

    def test_reload_input_rejections(self, tmp_path):
        """A body-less reload reads the configured file through the
        store: no path is ``config``, a missing file is ``io``."""
        async def scenario(signature_path):
            supervisor = FleetSupervisor(toy_detector(), fleet_config(
                shards=1, signature_path=signature_path,
            ))
            await supervisor.start()
            chost, cport = supervisor.control_address
            try:
                return await http(chost, cport, "POST", "/reload")
            finally:
                await supervisor.stop()

        for path, reason in (
            (None, "config"), (str(tmp_path / "missing.json"), "io"),
        ):
            status, body = asyncio.run(scenario(path))
            assert status == 400
            assert body == {
                "error": body["error"], "reason": reason,
                "rejected": True, "version": 1,
            }

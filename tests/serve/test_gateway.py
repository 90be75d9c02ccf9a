"""Gateway round-trip tests: line protocol, control plane, hot reload.

The acceptance bar: for a fixed trace, alerts/scores through the
gateway are identical to ``SignatureEngine.run`` offline — including
across a mid-stream hot signature reload, where requests admitted
before the swap are answered by the old generation and requests after
it by the new one.  The batched data plane (one drain task, one write
per run of answered responses) must keep every answer byte-identical
and in request order, and must still stop reading at a full window.
"""

import asyncio
import json

import pytest

from repro.core import SignatureSet, signature_set_to_json
from repro.eval.serving import offline_detections, parity_of_responses
from repro.http import HttpRequest, Trace
from repro.ids import (
    DeterministicRuleSet,
    PSigeneDetector,
    Rule,
    SignatureEngine,
)
from repro.serve import (
    DetectionGateway,
    GatewayConfig,
    SignatureStore,
    build_load_trace,
    run_loadgen,
)
from repro.serve.gateway import _Outbox
from repro.serve.protocol import (
    FRAME_MAGIC,
    MAX_LINE_BYTES,
    ProtocolError,
    encode_detection,
    encode_error,
    encode_framed_request,
    encode_surface_detection,
    frame_header_size,
)
from repro.surfaces import DEFAULT_SURFACES, score_request


def toy_detector(name="toy"):
    return DeterministicRuleSet(
        name, [Rule(1, "union", r"union\s+select")]
    )


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


async def collect(outbox, count):
    """The first ``count`` responses an outbox hands its writer."""
    responses = []
    while len(responses) < count:
        taken = await outbox.take()
        assert taken, "outbox closed before every response was answered"
        responses.extend(taken)
    return responses


class CountingWriter:
    """Stream-writer proxy counting transport writes."""

    def __init__(self, inner, counts):
        self._inner = inner
        self._counts = counts

    def write(self, data):
        self._counts.append(len(data))
        self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def count_writes(gateway):
    """Wrap every data-plane writer of ``gateway`` (call before start);
    returns the list that collects one entry per write."""
    counts = []
    handle = gateway._handle_connection

    async def counted(reader, writer):
        await handle(reader, CountingWriter(writer, counts))

    gateway._handle_connection = counted
    return counts


async def read_lines(reader, count):
    return [await reader.readline() for _ in range(count)]


async def http(host, port, method, path, body=""):
    """One-shot control-plane exchange, returns (status, json body)."""
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
    return status, json.loads(payload)


class TestLineProtocol:
    def test_round_trip(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            responses = await send_lines(host, port, [
                "id=1' union select 1", "q=hello",
            ])
            await gateway.stop()
            return responses

        first, second = asyncio.run(scenario())
        assert first == {
            "alert": True, "score": 1.0, "matched": [1], "version": 1,
        }
        assert second["alert"] is False

    def test_empty_line_is_an_empty_payload(self):
        """Blank lines are scored like any request with no query string —
        skipping them would desync response ordering and break parity
        with the offline engine on traces containing static fetches."""

        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            responses = await send_lines(host, port, ["", "q=hello"])
            await gateway.stop()
            return responses

        empty, hello = asyncio.run(scenario())
        assert empty["alert"] is False and empty["score"] == 0.0
        assert hello["alert"] is False

    def test_oversized_line_answers_error(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"x" * (70 * 1024) + b"\nq=ok\n")
            await writer.drain()
            first = json.loads(await reader.readline())
            second = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await gateway.stop()
            return first, second

        first, second = asyncio.run(scenario())
        assert "error" in first
        assert second["alert"] is False

    def test_shed_policy_over_tcp(self):
        async def scenario():
            gateway = DetectionGateway(
                SignatureStore(toy_detector()),
                GatewayConfig(queue_bound=1, policy="shed"),
            )
            host, port = await gateway.start()
            # A burst bigger than the queue from many connections; with
            # one drain task at least one request must be refused.
            results = await asyncio.gather(*(
                send_lines(host, port, [f"id={i}' union select 1"] * 8)
                for i in range(8)
            ))
            await gateway.stop()
            flattened = [r for batch in results for r in batch]
            return flattened, gateway.telemetry.counter("shed")

        responses, shed_counter = asyncio.run(scenario())
        sheds = [r for r in responses if r.get("shed")]
        serviced = [r for r in responses if not r.get("shed")]
        assert sheds, "burst never overflowed the bounded queue"
        assert shed_counter == len(sheds)
        assert all(r["alert"] for r in serviced)


class TestControlPlane:
    def test_healthz_and_stats(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            await send_lines(host, port, ["id=1' union select 1"])
            health = await http(host, port, "GET", "/healthz")
            stats = await http(host, port, "GET", "/stats")
            await gateway.stop()
            return health, stats

        (h_status, health), (s_status, stats) = asyncio.run(scenario())
        assert h_status == 200
        assert health["status"] == "ok"
        assert health["detector"] == "toy"
        assert s_status == 200
        assert stats["counters"]["inspected"] == 1
        assert stats["counters"]["alerted"] == 1
        assert stats["latency"]["service"]["count"] == 1
        assert stats["store"]["version"] == 1

    def test_inspect_endpoint(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            result = await http(
                host, port, "POST", "/inspect", "id=1' union select 1"
            )
            await gateway.stop()
            return result

        status, body = asyncio.run(scenario())
        assert status == 200
        assert body["alert"] is True

    def test_unknown_route_and_method(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            missing = await http(host, port, "GET", "/nope")
            wrong = await http(host, port, "POST", "/healthz")
            await gateway.stop()
            return missing, wrong

        (m_status, _), (w_status, _) = asyncio.run(scenario())
        assert m_status == 404
        assert w_status == 405

    def test_reload_rejects_bad_json(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            status, body = await http(
                host, port, "POST", "/reload", "{broken"
            )
            await gateway.stop()
            return status, body, gateway.store.version

        status, body, version = asyncio.run(scenario())
        assert status == 400
        assert "error" in body
        assert version == 1


class TestHotReload:
    def test_admission_time_snapshot(self):
        """Requests admitted before a swap answer with the old version,
        later ones with the new — deterministically, via the in-process
        admission path (no scheduling races)."""

        async def scenario():
            store = SignatureStore(toy_detector())
            gateway = DetectionGateway(store)
            await gateway.start()
            outbox = _Outbox(8)
            # Admit without yielding to the drain task in between: the
            # swap lands while request 1 is still queued (in flight).
            await gateway._admit(outbox, "id=1' union select 1")
            assert gateway.admission.depth == 1
            store.swap_detector(
                DeterministicRuleSet(
                    "toy2", [Rule(9, "any", r".")]
                ),
                source="test",
            )
            await gateway._admit(outbox, "id=1' union select 1")
            old, new = map(json.loads, await collect(outbox, 2))
            await gateway.stop()
            return old, new

        old, new = asyncio.run(scenario())
        assert old["version"] == 1 and old["matched"] == [1]
        assert new["version"] == 2 and new["matched"] == [9]

    @pytest.mark.smoke
    def test_midstream_reload_parity(self, small_signatures):
        """Offline/online parity on a fixed trace across a live swap.

        First half served by the full signature set, second half by a
        reduced set; each half must match the corresponding offline
        engine bit-for-bit.
        """
        full = small_signatures
        reduced = SignatureSet(list(full)[: max(1, len(full) // 2)])
        trace = build_load_trace(seed=11, n_benign=40, n_vulnerabilities=2)
        payloads = trace.payloads()[:60]
        half = len(payloads) // 2

        async def scenario():
            store = SignatureStore(PSigeneDetector(full))
            gateway = DetectionGateway(store)
            host, port = await gateway.start()
            first = await send_lines(host, port, payloads[:half])
            status, body = await http(
                host, port, "POST", "/reload",
                signature_set_to_json(reduced),
            )
            second = await send_lines(host, port, payloads[half:])
            await gateway.stop()
            return first, (status, body), second

        first, (status, body), second = asyncio.run(scenario())
        assert status == 200 and body["version"] == 2
        assert all(r["version"] == 1 for r in first)
        assert all(r["version"] == 2 for r in second)

        offline_full = offline_detections(
            PSigeneDetector(full), payloads[:half]
        )
        offline_reduced = offline_detections(
            PSigeneDetector(reduced), payloads[half:]
        )
        assert parity_of_responses(offline_full, first).ok
        assert parity_of_responses(offline_reduced, second).ok


class TestLoadgenParity:
    @pytest.mark.smoke
    def test_gateway_matches_offline_engine(self, small_signatures):
        """End-to-end: the loadgen replay agrees with SignatureEngine.run
        on every alert flag, sid list, and score."""
        detector = PSigeneDetector(small_signatures)
        trace = build_load_trace(seed=9, n_benign=60, n_vulnerabilities=2)
        payloads = trace.payloads()[:120]

        report = asyncio.run(run_loadgen(
            SignatureStore(detector),
            payloads,
            queue_bound=64,
            policy="block",
            connections=4,
            window=8,
        ))
        assert report.parity is not None and report.parity.ok
        assert report.shed == 0
        assert report.completed == len(payloads)

        engine_run = SignatureEngine(detector).run(Trace(
            name="offline",
            requests=[HttpRequest(query=p) for p in payloads],
        ))
        assert report.alerts == engine_run.alert_count


class TestDrainOnShutdown:
    def test_queued_work_answered_before_close(self):
        async def scenario():
            gateway = DetectionGateway(
                SignatureStore(toy_detector()),
                GatewayConfig(queue_bound=64),
            )
            host, port = await gateway.start()
            outbox = _Outbox(64)
            for i in range(20):
                await gateway._admit(outbox, f"id={i}' union select 1")
            await gateway.stop()
            outbox.close()
            return [json.loads(data) for data in await collect(outbox, 20)]

        responses = asyncio.run(scenario())
        assert len(responses) == 20
        assert all(r["alert"] for r in responses)


class TestBatchedDataPlane:
    def test_pipelined_mix_in_order_with_fewer_writes(self, small_signatures):
        """64 pipelined lines interleaved with a frame, an oversized line
        and a malformed frame header: every answer is byte-identical to
        the offline encoding, in request order, and the gateway sends
        them in fewer transport writes than there are responses."""
        detector = PSigeneDetector(small_signatures)
        payloads = build_load_trace(
            seed=5, n_benign=80, n_vulnerabilities=2
        ).payloads()[:64]
        request = HttpRequest(
            query="view=1", headers={"cookie": "s=x' or 1=1--"}
        )
        frame = encode_framed_request(request, DEFAULT_SURFACES)
        oversized = b"x" * (MAX_LINE_BYTES + 1) + b"\n"
        bad_header = FRAME_MAGIC + b" banana\n"
        with pytest.raises(ProtocolError) as bad_header_error:
            frame_header_size(bad_header)

        wire, expected = [], []
        for index, payload in enumerate(payloads):
            wire.append(payload.encode() + b"\n")
            expected.append(encode_detection(detector.inspect(payload), 1))
            if index == 10:
                wire.append(frame)
                expected.append(encode_surface_detection(
                    score_request(detector.inspect, request, DEFAULT_SURFACES),
                    1,
                ))
            elif index == 30:
                wire.append(oversized)
                expected.append(encode_error("line too long"))
            elif index == 50:
                wire.append(bad_header)
                expected.append(encode_error(str(bad_header_error.value)))

        async def scenario():
            gateway = DetectionGateway(SignatureStore(detector))
            writes = count_writes(gateway)
            host, port = await gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"".join(wire))
            await writer.drain()
            answers = await asyncio.wait_for(
                read_lines(reader, len(expected)), 30
            )
            writer.close()
            await writer.wait_closed()
            await gateway.stop()
            return answers, writes

        answers, writes = asyncio.run(scenario())
        assert answers == expected
        assert 0 < len(writes) < len(expected)
        assert sum(writes) == sum(len(answer) for answer in answers)

    def test_full_window_stops_reading(self):
        """With the drain task held, a connection admits exactly its
        window and reads no further; released, every request is
        answered in order."""
        window = 4

        async def scenario():
            gateway = DetectionGateway(
                SignatureStore(toy_detector()),
                GatewayConfig(max_inflight_per_connection=window),
            )
            release = asyncio.Event()
            get_batch = gateway.admission.get_batch

            async def held_get_batch():
                await release.wait()
                return await get_batch()

            gateway.admission.get_batch = held_get_batch
            host, port = await gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            # Even lines attack, odd lines are benign: the alert
            # pattern pins the response order.
            writer.write(b"".join(
                (f"id={i}' union select {i}\n" if i % 2 == 0
                 else f"q={i}\n").encode()
                for i in range(20)
            ))
            await writer.drain()
            await asyncio.sleep(0.2)
            held_depth = gateway.admission.depth
            held_connections = gateway.telemetry.counter("connections")
            release.set()
            answers = await asyncio.wait_for(read_lines(reader, 20), 30)
            writer.close()
            await writer.wait_closed()
            await gateway.stop()
            return held_depth, held_connections, answers

        held_depth, connections, answers = asyncio.run(scenario())
        assert connections == 1
        assert held_depth == window
        responses = [json.loads(answer) for answer in answers]
        assert [r["alert"] for r in responses] == [
            i % 2 == 0 for i in range(20)
        ]

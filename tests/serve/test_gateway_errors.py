"""Gateway error paths: bad input must be answered, never fatal.

Three families of malformed input reach a live gateway in practice —
a broken control-plane HTTP request, a data-plane line beyond the
protocol bound, and a reload pointing at a signature file that is not
there.  Each must produce a clean, in-order error response *and leave
the gateway serving*: the connection loop, the worker pool, and the
mounted signature generation all survive the bad request.
"""

import asyncio
import json

import pytest

from repro.ids import DeterministicRuleSet, Rule
from repro.serve import DetectionGateway, GatewayConfig, SignatureStore
from repro.serve.protocol import (
    MAX_HEAD_BYTES,
    MAX_HEADER_LINES,
    MAX_LINE_BYTES,
)

from tests.serve.test_gateway import http, send_lines


def toy_detector():
    return DeterministicRuleSet(
        "toy", [Rule(1, "union", r"union\s+select")]
    )


async def raw_http(host, port, raw: bytes):
    """Send raw bytes as a one-shot exchange, return (status, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(raw)
    await writer.drain()
    response = await reader.read()
    writer.close()
    await writer.wait_closed()
    header, _, payload = response.partition(b"\r\n\r\n")
    return int(header.split()[1]), json.loads(payload)


class TestMalformedControlPlane:
    def test_header_without_colon_gets_400(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            status, body = await raw_http(
                host, port,
                b"GET /healthz HTTP/1.1\r\nthis is not a header\r\n\r\n",
            )
            # The listener survives: a well-formed request still works.
            after = await http(host, port, "GET", "/healthz")
            await gateway.stop()
            return (status, body), after, gateway.telemetry.counter(
                "protocol_errors"
            )

        (status, body), (after_status, after_body), errors = asyncio.run(
            scenario()
        )
        assert status == 400
        assert "malformed header" in body["error"]
        assert errors == 1
        assert after_status == 200 and after_body["status"] == "ok"

    def test_unparseable_content_length_gets_400(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            result = await raw_http(
                host, port,
                b"POST /inspect HTTP/1.1\r\n"
                b"Content-Length: banana\r\n\r\n",
            )
            await gateway.stop()
            return result

        status, body = asyncio.run(scenario())
        assert status == 400
        assert "content-length" in body["error"]

    def test_truncated_body_gets_400_not_a_hang(self):
        # Content-Length promises more bytes than the client sends, then
        # the client closes: readexactly raises IncompleteReadError and
        # the gateway must answer 400 instead of leaking the connection.
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /inspect HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"
            )
            writer.write_eof()
            response = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            await writer.wait_closed()
            # Still serving afterwards.
            after = await http(host, port, "GET", "/healthz")
            await gateway.stop()
            return response, after

        response, (after_status, _) = asyncio.run(scenario())
        assert response.split()[1] == b"400"
        assert after_status == 200

    def test_header_line_past_the_stream_limit_gets_400(self):
        # 300,000 bytes is past the gateway's stream limit: the head
        # reader must answer and count it, not hand the overrun to the
        # event loop and close with an empty reply.
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            result = await raw_http(
                host, port,
                b"GET /healthz HTTP/1.1\r\nX-Big: "
                + b"a" * 300_000 + b"\r\n\r\n",
            )
            after = await http(host, port, "GET", "/healthz")
            await gateway.stop()
            return result, after, gateway.telemetry.counter(
                "protocol_errors"
            )

        (status, body), (after_status, _), errors = asyncio.run(scenario())
        assert status == 400
        assert "too long" in body["error"]
        assert errors == 1
        assert after_status == 200

    @pytest.mark.parametrize("line_size, limit, error", [
        # 101 short lines: one line too many.
        (1, MAX_HEADER_LINES, f"more than {MAX_HEADER_LINES} header lines"),
        # 5 lines that each fit the stream limit but together pass the
        # head byte cap; 3 of them fit.
        (MAX_HEAD_BYTES // 4, 3, f"more than {MAX_HEAD_BYTES} header bytes"),
    ], ids=["lines", "bytes"])
    def test_head_past_its_cap_gets_400(self, line_size, limit, error):
        lines = [
            b"X-H%d: " % index + b"v" * line_size + b"\r\n"
            for index in range(limit + 2)
        ]

        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            result = await raw_http(
                host, port,
                b"GET /healthz HTTP/1.1\r\n" + b"".join(lines) + b"\r\n",
            )
            allowed = await raw_http(
                host, port,
                b"GET /healthz HTTP/1.1\r\n" + b"".join(lines[:limit])
                + b"\r\n",
            )
            await gateway.stop()
            return result, allowed, gateway.telemetry.counter(
                "protocol_errors"
            )

        (status, body), (allowed_status, _), errors = asyncio.run(
            scenario()
        )
        assert status == 400
        assert error in body["error"]
        assert allowed_status == 200
        assert errors == 1


class TestOversizedDataPlane:
    def test_oversized_line_midstream_keeps_the_connection(self):
        # good, oversized, good on ONE connection: the oversized line is
        # answered with an in-order error and the reader keeps going.
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            big = b"x" * (MAX_LINE_BYTES + 1)
            writer.write(
                b"id=1' union select 1\n" + big + b"\nq=after\n"
            )
            await writer.drain()
            responses = [
                json.loads(await reader.readline()) for _ in range(3)
            ]
            writer.close()
            await writer.wait_closed()
            await gateway.stop()
            return responses, gateway.telemetry.counter("protocol_errors")

        (first, middle, last), errors = asyncio.run(scenario())
        assert first["alert"] is True
        assert middle == {"error": "line too long"}
        assert last["alert"] is False
        assert errors == 1

    def test_line_past_the_stream_limit_is_answered_once(self):
        # 320 KiB overruns the stream limit (4 x MAX_LINE_BYTES) before
        # its newline is buffered: one error, then the next real line —
        # no phantom empty payload, no payload made of the line's tail.
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"id=1' union select 1\n"
                + b"x" * (320 * 1024)
                + b"\nq=after\n"
            )
            writer.write_eof()
            raw = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            await writer.wait_closed()
            await gateway.stop()
            return raw, gateway.telemetry.counter("protocol_errors")

        raw, errors = asyncio.run(scenario())
        responses = [json.loads(line) for line in raw.splitlines()]
        assert len(responses) == 3, responses
        first, middle, last = responses
        assert first["alert"] is True
        assert middle == {"error": "line too long"}
        assert last["alert"] is False
        assert errors == 1

    def test_oversized_first_line_of_a_connection(self):
        # The very first line decides the dialect; an oversized one can
        # not be classified and the connection is answered-and-closed —
        # but the *gateway* keeps accepting new connections.
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"z" * (5 * MAX_LINE_BYTES) + b"\n")
            await writer.drain()
            error = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            fresh = await send_lines(host, port, ["id=1' union select 1"])
            await gateway.stop()
            return error, fresh

        error, fresh = asyncio.run(scenario())
        assert error == {"error": "line too long"}
        assert fresh[0]["alert"] is True


class TestReloadMissingFile:
    def test_missing_file_keeps_old_generation_serving(self, tmp_path):
        missing = tmp_path / "not-there.json"

        async def scenario():
            store = SignatureStore(toy_detector(), path=str(missing))
            gateway = DetectionGateway(store, GatewayConfig())
            host, port = await gateway.start()
            before = await send_lines(host, port, ["id=1' union select 1"])
            # Empty body => path-based reload; the file does not exist.
            reload_result = await http(host, port, "POST", "/reload")
            after = await send_lines(host, port, ["id=1' union select 1"])
            health = await http(host, port, "GET", "/healthz")
            await gateway.stop()
            return before, reload_result, after, health, store.version

        before, (status, body), after, (h_status, health), version = (
            asyncio.run(scenario())
        )
        assert status == 400
        assert "error" in body and body["version"] == 1
        assert version == 1  # the old generation survived
        # The data plane never noticed: same verdict, same version.
        assert before == after
        assert before[0]["alert"] is True and before[0]["version"] == 1
        assert h_status == 200 and health["status"] == "ok"

    def test_no_path_configured_is_a_clean_400(self):
        async def scenario():
            gateway = DetectionGateway(SignatureStore(toy_detector()))
            host, port = await gateway.start()
            result = await http(host, port, "POST", "/reload")
            await gateway.stop()
            return result, gateway.telemetry.counter("reload_failures")

        (status, body), failures = asyncio.run(scenario())
        assert status == 400
        assert "no signature path" in body["error"]
        assert failures == 1

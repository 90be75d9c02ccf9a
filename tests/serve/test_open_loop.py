"""Open-loop replay timing: latencies count from each request's due time.

A server that stalls the event loop it shares with the generator (a
long synchronous inspection, a collection pause) also stalls the
generator's sends.  Requests due during the stall go out late; timed
from the send they would look fast, hiding the stall (coordinated
omission).  Timed from the due time, every one of them carries it.
"""

import asyncio
import json
import time

from repro.serve import open_loop_replay
from repro.serve.loadgen import _slo_attainment

RATE = 100.0  # requests per second: request i is due at i / RATE
STALL_S = 0.5
STALLED_INDEX = 2
COUNT = 10

VERDICT = json.dumps(
    {"alert": False, "score": 0.0, "matched": [], "version": 1}
).encode() + b"\n"


async def stalling_stub():
    """A line-protocol stub whose third answer blocks the loop."""
    seen = 0

    async def handle(reader, writer):
        nonlocal seen
        while await reader.readline():
            if seen == STALLED_INDEX:
                time.sleep(STALL_S)  # blocks the shared event loop
            seen += 1
            writer.write(VERDICT)
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_stall_shows_in_later_requests_latencies():
    async def scenario():
        server = await stalling_stub()
        host, port = server.sockets[0].getsockname()[:2]
        try:
            return await open_loop_replay(
                host, port, [f"q={i}" for i in range(COUNT)],
                rate=RATE, connections=1,
            )
        finally:
            server.close()
            await server.wait_closed()

    responses, latencies, _duration = asyncio.run(scenario())
    assert all(r is not None and r["alert"] is False for r in responses)
    # The stall begins once request 2 (due at 0.02 s) arrives and ends
    # STALL_S later, so request j > 2 cannot be answered before
    # 0.02 + STALL_S: its latency from its due time j / RATE is at least
    # the rest of the stall.
    for index in range(STALLED_INDEX + 1, COUNT):
        assert latencies[index] >= STALL_S - index / RATE, index
    # Requests answered before the stall stay fast.
    assert latencies[0] < STALL_S / 2
    # ...and the SLO fed by these latencies counts the stalled ones as
    # misses.
    assert _slo_attainment(responses, latencies, 100.0) <= (
        STALLED_INDEX / COUNT
    )

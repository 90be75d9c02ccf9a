"""The gateway under test, in a child process the benchmark controls.

The child is the program's own CLI (``python -m repro serve``) on an
ephemeral port, so the client in the benchmark process and the server
never share an interpreter or an event loop.  Its CPU time and peak
resident set come from ``/proc/<pid>``.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

_STARTUP_TIMEOUT_S = 60.0


class GatewayError(RuntimeError):
    """The child did not start, answer, or stay up."""


class GatewayProcess:
    """One ``repro serve`` child; :meth:`stop` ends it.

    Args:
        root: checkout root (its ``src`` goes on the child's path).
        signatures: signature JSON file the gateway mounts.
    """

    def __init__(self, root: Path, signatures: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "-s", str(signatures), "--host", "127.0.0.1", "--port", "0"],
            cwd=str(root), env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        self.pid = self.proc.pid
        self.port = self._read_port()

    def _read_port(self) -> int:
        # The CLI prints one start-up line "... on 127.0.0.1:<port> (...)".
        line = self.proc.stdout.readline()
        if " on " not in line:
            self.stop()
            raise GatewayError(f"gateway did not start: {line!r}")
        address = line.split(" on ", 1)[1].split()[0]
        return int(address.rsplit(":", 1)[1])

    @property
    def address(self) -> tuple[str, int]:
        return ("127.0.0.1", self.port)

    def wait_ready(self, timeout: float = _STARTUP_TIMEOUT_S) -> dict:
        """Poll ``GET /healthz`` until it answers ``ok``."""
        deadline = time.perf_counter() + timeout
        while True:
            try:
                status, body = http_request(self.address, "GET", "/healthz")
                if status == 200 and body.get("status") == "ok":
                    return body
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise GatewayError("gateway exited before /healthz")
            if time.perf_counter() > deadline:
                raise GatewayError("gateway /healthz timed out")
            time.sleep(0.005)

    def stats(self) -> dict:
        status, body = http_request(self.address, "GET", "/stats")
        if status != 200:
            raise GatewayError(f"/stats answered {status}")
        return body

    def cpu_seconds(self) -> float:
        """CPU time the child's threads have run so far, to the
        nanosecond (``/proc/<pid>/task/*/schedstat``), so that short
        windows are not quantized to clock ticks."""
        try:
            tasks = os.listdir(f"/proc/{self.pid}/task")
        except OSError as exc:
            raise GatewayError(f"/proc/{self.pid} unreadable") from exc
        total = 0
        for task in tasks:
            total += int(_proc_text(f"{self.pid}/task/{task}",
                                    "schedstat").split()[0])
        return total / 1e9

    def peak_rss_mb(self) -> float:
        """The child's ``VmHWM`` in MiB."""
        for line in _proc_text(self.pid, "status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise GatewayError(f"no VmHWM for {self.pid}")

    def stop(self) -> None:
        """Terminate the child and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _proc_text(pid: int | str, name: str) -> str:
    try:
        return Path(f"/proc/{pid}/{name}").read_text()
    except OSError as exc:
        raise GatewayError(f"/proc/{pid}/{name} unreadable") from exc


def http_request(
    address: tuple[str, int], method: str, path: str, body: bytes = b"",
    timeout: float = 30.0,
) -> tuple[int, dict]:
    """One blocking HTTP/1.1 exchange with the control plane."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(http_head(method, path, len(body)) + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return parse_http_response(b"".join(chunks))


def http_head(method: str, path: str, length: int) -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Length: {length}\r\nConnection: close\r\n\r\n"
    ).encode("latin-1")


def parse_http_response(raw: bytes) -> tuple[int, dict]:
    """Status code and JSON body of a complete ``Connection: close`` reply."""
    head, _, payload = raw.partition(b"\r\n\r\n")
    if not head:
        raise GatewayError("empty HTTP response")
    status = int(head.split(b" ", 2)[1])
    try:
        body = json.loads(payload) if payload else {}
    except json.JSONDecodeError:
        body = {"raw": payload.decode("utf-8", "replace")}
    return status, body

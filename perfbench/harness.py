"""The server process's lifecycle, bounded from the outside.

:class:`ServerProcess` spawns ``server.py``, times set-up (spawn until
the first echo is answered) and stop (the ``stop`` command until the
process has exited), and talks to the server over its stdin/stdout.
Every wait has a deadline; :meth:`ServerProcess.kill` is the safety net
for a server that misses one, and runs from ``finally`` so no process
or port outlives the benchmark.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

from repro.apps.echo import ECHO_NS, ECHO_SERVICE
from repro.client import ClientConfig, build_proxy
from repro.transport.tcp import TcpTransport

READY_TIMEOUT_S = 30.0
COMMAND_TIMEOUT_S = 30.0
#: Hard kill only this long after ``stop`` was asked for: well beyond
#: the threaded backend's 5 s per idle connection.
STOP_KILL_AFTER_S = 60.0
#: Channel I/O timeout for every client connection: a call the server
#: does not answer within this counts as a timeout.
IO_TIMEOUT_S = 20.0

SERVER_SCRIPT = Path(__file__).resolve().parent / "server.py"


class ServerError(RuntimeError):
    """The server process misbehaved (died, or missed a deadline)."""


def make_proxy(address):
    """One keep-alive client proxy: one connection, the default policy."""
    return build_proxy(ClientConfig(
        TcpTransport(io_timeout=IO_TIMEOUT_S),
        tuple(address),
        namespace=ECHO_NS,
        service_name=ECHO_SERVICE,
        reuse_connections=True,
    ))


class ServerProcess:
    """One spawned echo server."""

    def __init__(self) -> None:
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self._buffer = b""

    def start(self, probe_payload: str) -> float:
        """Spawn, wait for ready, answer one echo; returns set-up seconds."""
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(SERVER_SCRIPT)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        ready = self._read_message(READY_TIMEOUT_S)
        self.address = tuple(ready["ready"])
        proxy = make_proxy(self.address)
        try:
            answer = proxy.call("echo", payload=probe_payload)
        finally:
            proxy.close()
        if answer != probe_payload:
            raise ServerError(f"probe echo came back wrong: {answer!r}")
        return time.perf_counter() - started

    def command(self, name: str, **fields) -> dict:
        self._send({"cmd": name, **fields})
        return self._read_message(COMMAND_TIMEOUT_S)

    def stop(self) -> float:
        """Ask for ``stop()``; returns seconds until the process exited."""
        stop_sent = time.perf_counter()
        self._send({"cmd": "stop"})
        try:
            self.process.wait(timeout=STOP_KILL_AFTER_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerError(
                f"server did not exit within {STOP_KILL_AFTER_S:.0f}s of stop"
            ) from None
        elapsed = time.perf_counter() - stop_sent
        self._close_pipes()
        if self.process.returncode != 0:
            raise ServerError(f"server exited with code {self.process.returncode}")
        return elapsed

    def kill(self) -> None:
        """Safety net: end the process now and reap it."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.kill()
            process.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()

    def _send(self, message: dict) -> None:
        try:
            self.process.stdin.write(json.dumps(message).encode() + b"\n")
            self.process.stdin.flush()
        except BrokenPipeError:
            raise ServerError("server process has exited") from None

    def _read_message(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.process.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServerError(f"server silent for {timeout:.0f}s")
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise ServerError(
                    f"server exited (code {self.process.poll()}) before answering"
                )
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

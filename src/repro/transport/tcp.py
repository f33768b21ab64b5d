"""Real TCP transport over the loopback interface."""

from __future__ import annotations

import socket

from repro.errors import TransportError
from repro.transport.base import (
    Address,
    Channel,
    ChannelClosed,
    Listener,
    ListenerClosed,
    Transport,
)


class TcpChannel(Channel):
    """Thin socket wrapper translating OS errors to TransportError."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._closed = False
        # SOAP exchanges are small request/response bursts: disable
        # Nagle so the final partial segment is not delayed.
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass

    def sendall(self, data: bytes) -> None:
        if self._closed:
            raise ChannelClosed("sendall on closed channel")
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def recv(self, max_bytes: int = 65536) -> bytes:
        if self._closed:
            raise ChannelClosed("recv on closed channel")
        try:
            return self._sock.recv(max_bytes)
        except OSError as exc:
            raise TransportError(f"recv failed: {exc}") from exc

    def set_timeout(self, timeout: float | None) -> None:
        if self._closed:
            return
        try:
            self._sock.settimeout(timeout)
        except OSError:
            pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class TcpListener(Listener):
    def __init__(self, sock: socket.socket, *, io_timeout: float | None = None) -> None:
        self._sock = sock
        self._io_timeout = io_timeout
        self._closed = False

    @property
    def address(self) -> Address:
        return self._sock.getsockname()

    def accept(self, timeout: float | None = None) -> Channel:
        if self._closed:
            raise ListenerClosed("listener is closed")
        try:
            # close() can race this call; settimeout on a closed socket
            # raises EBADF, handled like accept on a closed listener
            self._sock.settimeout(timeout)
            conn, _peer = self._sock.accept()
        except socket.timeout:
            raise TransportError("accept timed out") from None
        except OSError as exc:
            if self._closed:
                raise ListenerClosed("listener is closed") from None
            raise TransportError(f"accept failed: {exc}") from exc
        conn.settimeout(self._io_timeout)
        return TcpChannel(conn)

    def close(self) -> None:
        """Close the listening socket; idempotent.

        On Linux ``close()`` alone does not wake a thread blocked in
        ``accept()``; ``shutdown()`` does (the accept fails with EINVAL,
        which maps to :class:`ListenerClosed` because ``_closed`` is
        already set).
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class TcpTransport(Transport):
    """Plain TCP; address is a ``(host, port)`` pair, port 0 for ephemeral.

    ``io_timeout``: per-operation send/recv timeout applied to every
    channel this transport creates (``None`` = block forever).  A timed
    out operation raises :class:`TransportError` and poisons nothing
    else — the caller decides whether to retry or close.
    """

    def __init__(self, backlog: int = 128, *, io_timeout: float | None = None) -> None:
        self._backlog = backlog
        self._io_timeout = io_timeout

    def listen(self, address: Address) -> Listener:
        """Bind and listen on ``(host, port)`` (port 0 = ephemeral)."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind(tuple(address))
            sock.listen(self._backlog)
        except OSError as exc:
            sock.close()
            raise TransportError(f"cannot listen on {address}: {exc}") from exc
        return TcpListener(sock, io_timeout=self._io_timeout)

    def selectable_listen(self, address: Address) -> socket.socket:
        """Bind a non-blocking listening socket for the event loop."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind(tuple(address))
            sock.listen(self._backlog)
        except OSError as exc:
            sock.close()
            raise TransportError(f"cannot listen on {address}: {exc}") from exc
        sock.setblocking(False)
        return sock

    def connect(self, address: Address, timeout: float | None = None) -> Channel:
        """Open a TCP connection to ``(host, port)``."""
        try:
            sock = socket.create_connection(tuple(address), timeout=timeout)
        except OSError as exc:
            raise TransportError(f"cannot connect to {address}: {exc}") from exc
        sock.settimeout(self._io_timeout)
        return TcpChannel(sock)

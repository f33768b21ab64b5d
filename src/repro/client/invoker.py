"""The paper's first two client strategies (§4.1).

* :class:`SerialInvoker` — "Serial Service Requests in Multiple SOAP
  Messages": M messages issued one after another in one client thread.
  This is the "No Optimization" line in Figures 5–7.
* :class:`ThreadedInvoker` — "Parallel Service Requests in Multiple
  SOAP Messages": the client "start[s] multiple threads to access many
  services simultaneously".  The "Multiple Threads" line.

The third strategy ("Parallel Service Requests in One SOAP Message")
is SPI itself: :class:`repro.core.batch.PackedInvoker`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.client.futures import InvocationFuture
from repro.client.proxy import ServiceProxy
from repro.resilience.policy import CallPolicy


@dataclass(frozen=True, slots=True)
class Call:
    """One planned service invocation."""

    operation: str
    params: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def many(cls, operation: str, param_list: list[Mapping[str, Any]]) -> list["Call"]:
        return [cls(operation, params) for params in param_list]


class Invoker:
    """Strategy interface: run a batch of calls, return futures.

    Every strategy consumes one :class:`~repro.resilience.CallPolicy`:
    the ``policy`` argument if given, else the invoker's own (set at
    construction), else the proxy's default.
    """

    name = "invoker"
    policy: CallPolicy | None = None

    def submit_all(
        self, calls: list[Call], policy: CallPolicy | None = None
    ) -> list[InvocationFuture]:
        """Run all calls; returns one future per call, in order."""
        raise NotImplementedError

    def invoke_all(
        self, calls: list[Call], policy: CallPolicy | None = None
    ) -> list[Any]:
        """Run all calls and return their results, in call order."""
        effective = policy if policy is not None else self.policy
        # the future wait is the whole-call budget: a retrying policy's
        # per-attempt timeout would undercut its own deadline
        wait = None
        if effective is not None:
            wait = (
                effective.deadline
                if effective.deadline is not None
                else effective.timeout
            )
        return [future.result(wait) for future in self.submit_all(calls, policy)]

    def _effective_policy(self, policy: CallPolicy | None) -> CallPolicy | None:
        return policy if policy is not None else self.policy


class SerialInvoker(Invoker):
    """One thread, M sequential request/response exchanges."""

    name = "serial"

    def __init__(self, proxy: ServiceProxy, *, policy: CallPolicy | None = None) -> None:
        self.proxy = proxy
        self.policy = policy

    def submit_all(
        self, calls: list[Call], policy: CallPolicy | None = None
    ) -> list[InvocationFuture]:
        """One blocking request/response exchange per call."""
        effective = self._effective_policy(policy)
        futures = []
        for call in calls:
            future = InvocationFuture(call.operation)
            try:
                future.resolve(
                    self.proxy.call_with_policy(
                        call.operation, effective, **dict(call.params)
                    )
                )
            except BaseException as exc:
                future.fail(exc)
            futures.append(future)
        return futures


class KeepAliveSerialInvoker(Invoker):
    """Serial requests over ONE persistent connection.

    Not one of the paper's three strategies — an ablation this
    reproduction adds to decompose the packing win: keep-alive removes
    the per-call TCP handshake but still pays M HTTP heads and M SOAP
    envelopes, so the gap between this and :class:`PackedInvoker`
    isolates the message-count (header + parse) savings from the
    connection-count savings.
    """

    name = "serial-keepalive"

    def __init__(self, proxy: ServiceProxy, *, policy: CallPolicy | None = None) -> None:
        from repro.client.config import build_proxy

        self.policy = policy
        if proxy.reuse_connections:
            self.proxy = proxy
            self._owned = False
        else:
            self.proxy = build_proxy(
                proxy.config.replace(reuse_connections=True)
            )
            self._owned = True

    def submit_all(
        self, calls: list[Call], policy: CallPolicy | None = None
    ) -> list[InvocationFuture]:
        """Serial exchanges over one pooled connection."""
        effective = self._effective_policy(policy)
        futures = []
        try:
            for call in calls:
                future = InvocationFuture(call.operation)
                try:
                    future.resolve(
                        self.proxy.call_with_policy(
                            call.operation, effective, **dict(call.params)
                        )
                    )
                except BaseException as exc:
                    future.fail(exc)
                futures.append(future)
        finally:
            if self._owned:
                self.proxy.close()
        return futures


class ThreadedInvoker(Invoker):
    """M client threads, each issuing its own SOAP message.

    As the paper notes (§3.1), this raises concurrency but "cannot
    reduce the number of the SOAP messages": every call still pays a
    connection, an HTTP head and a SOAP envelope.
    """

    name = "threaded"

    def __init__(
        self,
        proxy: ServiceProxy,
        *,
        max_threads: int | None = None,
        policy: CallPolicy | None = None,
    ) -> None:
        self.proxy = proxy
        self.max_threads = max_threads
        self.policy = policy

    def submit_all(
        self, calls: list[Call], policy: CallPolicy | None = None
    ) -> list[InvocationFuture]:
        """One client thread (and connection) per call."""
        effective = self._effective_policy(policy)
        futures = [InvocationFuture(call.operation) for call in calls]
        limit = threading.Semaphore(self.max_threads) if self.max_threads else None

        def worker(call: Call, future: InvocationFuture) -> None:
            try:
                result = self.proxy.call_with_policy(
                    call.operation, effective, **dict(call.params)
                )
            except BaseException as exc:
                future.fail(exc)
            else:
                future.resolve(result)
            finally:
                if limit is not None:
                    limit.release()

        threads = []
        for call, future in zip(calls, futures):
            if limit is not None:
                limit.acquire()
            thread = threading.Thread(target=worker, args=(call, future), daemon=True)
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join()
        return futures

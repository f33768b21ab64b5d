"""The SOAP server; the paper's two architectures are its two dispatch paths.

``config.architecture`` decides only where request entries run:

* ``"common"`` (Fig. 1): "HTTP parsing, SOAP parsing and service
  execution are coupled tightly in the same thread" — entries run in
  order on the protocol thread, and no application stage exists.
* ``"staged"`` (Fig. 2, §3.3): "the protocol processing thread goes to
  sleep ... some worker threads from the thread pool of the application
  processing stage will be assigned to complete the services request"
  — entries go to the application :class:`~repro.server.stage.Stage`,
  the protocol thread parks on a
  :class:`~repro.server.threadpool.CompletionLatch` until the last one
  finishes, then assembles the response in entry order.

Build it with :func:`repro.server.build_server`.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.errors import PoolSaturatedError, ServiceError
from repro.obs import trace as obs_trace
from repro.server.config import ServerConfig, build_http_server
from repro.server.container import ServiceContainer, entry_fault
from repro.server.endpoint import SoapEndpoint
from repro.server.handlers import MessageContext
from repro.server.stage import Stage
from repro.server.threadpool import CompletionLatch
from repro.soap.fault import SoapFault, busy_fault, timeout_fault
from repro.transport.base import Address
from repro.transport.tcp import TcpTransport
from repro.xmlcore.tree import Element

#: Local bound on how long a parked protocol thread waits for a pack's
#: workers when the client sent no deadline.
EXECUTION_TIMEOUT = 120.0


class SoapServer:
    """One SOAP deployment; ``config.architecture`` picks the dispatch
    path (``"common"``: Fig. 1, ``"staged"``: Fig. 2)."""

    def __init__(self, config: ServerConfig) -> None:
        if config.transport is None:
            config = config.replace(transport=TcpTransport())
        self.config = config
        self.architecture = config.architecture
        observability = config.observability
        self.observability = observability
        self.serialization_cache = config.serialization_cache
        registry = observability.registry if observability is not None else None
        self.container = ServiceContainer(list(config.services), registry=registry)
        # Fig. 2's application stage.  The common architecture has none
        # and must not build one: ThreadPool starts its workers in its
        # constructor.  app_queue_limit bounds the stage's backlog: once
        # that many entries wait for a worker, further entries shed with
        # a Server.Busy fault instead of queueing unboundedly.
        self.app_stage: Stage | None = None
        if config.architecture == "staged":
            self.app_stage = Stage(
                "application",
                config.app_workers,
                registry=registry,
                max_queue=config.app_queue_limit,
            )
        self.endpoint = SoapEndpoint(
            self.container,
            self._execute,
            chain=config.chain,
            observability=observability,
            serialization_cache=config.serialization_cache,
        )
        self.transport = config.transport
        self.http = build_http_server(self.endpoint, config)

    # -- dispatch --------------------------------------------------------

    def _execute(
        self, entries: list[Element], context: MessageContext
    ) -> list[Element]:
        from repro.core.oneway import accepted_response, is_one_way

        deadline = context.deadline
        stage = self.app_stage
        results: list[Element | None] = [None] * len(entries)
        waited: list[tuple[int, Element]] = []
        # The protocol thread's trace context does not follow work onto
        # the stage workers' threads; capture it here and attach each
        # per-entry execute span explicitly.
        ctx = obs_trace.current()

        # Each fault claims only its own slot: siblings still answer
        # (partial-success packs).
        for index, entry in enumerate(entries):
            if deadline is not None and deadline.expired():
                # retryable: the work never ran
                results[index] = self._timed_out(
                    entry, f"deadline expired before '{entry.local_name}' ran"
                )
            elif stage is None:
                # Fig. 1: protocol thread == application thread, so
                # entries run here in order and the deadline is
                # re-checked before each.  One-way entries run here too
                # (there is no other thread to give them to); only
                # their results are discarded.
                result = self._run(ctx, entry)
                results[index] = accepted_response(entry) if is_one_way(entry) else result
            elif is_one_way(entry):
                # Fig. 2 triage: acknowledge now, execute fire-and-forget
                results[index] = accepted_response(entry)
                try:
                    stage.submit(self._run, ctx, entry, kind="one-way-execution")
                except (PoolSaturatedError, ServiceError) as exc:
                    # the ack is already committed; record the shed in
                    # place of the silently-dropped execution.  A
                    # ServiceError means the stage is draining for
                    # shutdown — same retryable busy answer, not a
                    # bare 500 (fault-flow-escape invariant).
                    results[index] = self._shed(entry, exc)
            else:
                waited.append((index, entry))

        if len(waited) == 1:
            # Nothing to overlap: keep a single waited request on the
            # calling thread and spare a context switch (the common
            # fast path).  On the threaded backend that is the HTTP
            # connection thread; on the evented backend it is a bounded
            # http-handler stage worker — never the event loop — so the
            # fast path stays safe under SEDA's "nothing heavy on the
            # loop" rule and the app stage still bounds overlapped
            # packs.
            index, entry = waited[0]
            results[index] = self._run(ctx, entry)
        elif waited:  # only the staged path defers entries
            latch = CompletionLatch(len(waited))

            def run(index: int, entry: Element) -> None:
                try:
                    results[index] = self._run(ctx, entry)
                except BaseException as exc:  # fault the slot, not the pack
                    results[index] = entry_fault(entry, SoapFault.from_exception(exc))
                finally:
                    latch.count_down()

            for index, entry in waited:
                try:
                    stage.submit(run, index, entry, kind="service-execution")
                except (PoolSaturatedError, ServiceError) as exc:
                    # stage saturated mid-pack (or draining for
                    # shutdown): shed this entry alone, retryably
                    results[index] = self._shed(entry, exc)
                    latch.count_down()

            # the protocol thread "goes to sleep" here; its patience is
            # the client's remaining budget, capped by the local bound
            wait_s = EXECUTION_TIMEOUT
            if deadline is not None:
                wait_s = min(wait_s, max(deadline.remaining(), 0.001))
            if not latch.wait(timeout=wait_s):
                # Workers may still be running; answer for them with a
                # retryable timeout fault per unfinished slot rather
                # than failing the entire message.
                for index, entry in waited:
                    if results[index] is None:
                        results[index] = self._timed_out(
                            entry,
                            f"'{entry.local_name}' did not finish within {wait_s:.3f}s",
                        )
        return [entry for entry in results if entry is not None]

    def _run(self, ctx: tuple | None, entry: Element) -> Element:
        with obs_trace.span_in(ctx, "execute", detail=entry.local_name):
            return self.container.execute_entry(entry)

    # Entries faulted before (or instead of) executing still count into
    # the target's rollup; the container never saw them.

    def _timed_out(self, entry: Element, reason: str) -> Element:
        self._count_skipped(entry, "resilience.deadline_expired", "timeout")
        return entry_fault(entry, timeout_fault(reason))

    def _shed(self, entry: Element, exc: Exception) -> Element:
        self._count_skipped(entry, "resilience.shed", "shed")
        return entry_fault(entry, busy_fault(str(exc)))

    def _count_skipped(self, entry: Element, counter: str, fault_class: str) -> None:
        if self.observability is not None:
            registry = self.observability.registry
            registry.counter(counter).inc()
            registry.rollup(entry.namespace, entry.local_name).observe(0.0, fault_class)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> Address:
        """Start the HTTP layer; returns the bound address."""
        return self.http.start()

    def stop(self) -> None:
        """Stop the HTTP layer, then the application stage (if any)."""
        self.http.stop()
        if self.app_stage is not None:
            self.app_stage.shutdown()

    @contextlib.contextmanager
    def running(self) -> Iterator[Address]:
        """Context manager: start, yield the bound address, stop."""
        address = self.start()
        try:
            yield address
        finally:
            self.stop()

    @property
    def address(self) -> Address:
        return self.http.address

    def stats(self) -> dict:
        """Endpoint/container/HTTP counters (plus the application
        stage's on the staged architecture) as a dict."""
        stats = {
            "architecture": self.architecture,
            "endpoint": self.endpoint.stats.snapshot(),
            "container": self.container.stats.snapshot(),
        }
        if self.app_stage is not None:
            stats["app_stage"] = self.app_stage.stats.snapshot()
            stats["app_pool"] = self.app_stage.pool_stats()
        stats["connections_accepted"] = self.http.connections_accepted
        stats["requests_served"] = self.http.requests_served
        return stats

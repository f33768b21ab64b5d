"""Load generators: closed loop for packs, open loop for single calls.

Both run in the benchmark's own process and use only the public client
API (:func:`~repro.client.build_proxy`, ``PackedInvoker``,
``ServiceProxy.call``), one keep-alive connection per proxy.  Every
answer goes through the :class:`~perfbench.oracle.Oracle`.
"""

from __future__ import annotations

import dataclasses
import threading
import time

from repro.client.invoker import Call
from repro.core.batch import PackedInvoker
from repro.errors import ReproError

from perfbench.harness import IO_TIMEOUT_S
from perfbench.oracle import Oracle
from perfbench.workloads import Workload


@dataclasses.dataclass
class Window:
    """What one measured window observed."""

    seconds: float
    #: per-message round trip, seconds (open loop: from the due time)
    latencies: list[float]
    #: open loop only: how late each message was sent, seconds
    send_lags: list[float]
    calls: int
    completed: int
    client_cpu_s: float

    @classmethod
    def merged(cls, windows: list["Window"]) -> "Window":
        """Several windows read as one."""
        return cls(
            seconds=sum(w.seconds for w in windows),
            latencies=[x for w in windows for x in w.latencies],
            send_lags=[x for w in windows for x in w.send_lags],
            calls=sum(w.calls for w in windows),
            completed=sum(w.completed for w in windows),
            client_cpu_s=sum(w.client_cpu_s for w in windows),
        )


def run_window(workload: Workload, proxies, messages, oracle: Oracle, seconds: float,
               recorder=None) -> Window:
    """Drive ``workload`` for ``seconds`` and measure it."""
    attempted, failed = oracle.attempted, oracle.failed
    cpu = time.process_time()
    if workload.loop == "open":
        latencies, lags, elapsed = _open_loop(
            workload, proxies, messages, oracle, seconds, recorder
        )
    else:
        latencies, elapsed = _closed_loop(
            workload, proxies[0], messages, oracle, seconds, recorder
        )
        lags = []
    calls = oracle.attempted - attempted
    return Window(
        seconds=elapsed,
        latencies=latencies,
        send_lags=lags,
        calls=calls,
        completed=calls - (oracle.failed - failed),
        client_cpu_s=time.process_time() - cpu,
    )


def _closed_loop(workload, proxy, messages, oracle, seconds, recorder):
    """One message in flight: send the next pack when this one is answered."""
    invoker = PackedInvoker(proxy)
    latencies = []
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        sent = next(messages)
        calls = [Call(workload.operation, workload.params(p)) for p in sent]
        if recorder is not None:
            recorder.begin_request()
        begun = time.perf_counter()
        try:
            futures = invoker.submit_all(calls)
        except ReproError as exc:
            latencies.append(time.perf_counter() - begun)
            oracle.record_error(exc, len(sent))
            continue
        latencies.append(time.perf_counter() - begun)
        oracle.check_message(sent, futures)
    return latencies, time.perf_counter() - started


def _open_loop(workload, proxies, messages, oracle, seconds, recorder):
    """Send at a fixed rate whatever the answers do.

    Message ``i`` is due at ``start + i / rate`` and goes out on sender
    ``i mod connections``; its latency runs from the due time, so a
    stall also charges the messages it delayed.
    """
    interval = 1.0 / workload.rate_per_s
    count = max(1, int(seconds * workload.rate_per_s))
    payloads = [next(messages)[0] for _ in range(count)]
    latencies = [0.0] * count
    lags = [0.0] * count
    finished = [0.0] * count
    start = time.perf_counter() + 0.01
    errors: list[BaseException] = []

    def sender(first: int) -> None:
        try:
            send_every(first)
        except BaseException as exc:  # handed to the caller after join
            errors.append(exc)
            raise

    def send_every(first: int) -> None:
        proxy = proxies[first]
        for index in range(first, count, len(proxies)):
            due = start + index * interval
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if recorder is not None:
                recorder.begin_request()
            sent_at = time.perf_counter()
            payload = payloads[index]
            try:
                got = proxy.call(workload.operation, **workload.params(payload))
            except ReproError as exc:
                done = time.perf_counter()
                oracle.record_error(exc)
            else:
                done = time.perf_counter()
                oracle.check_value(payload, got)
            latencies[index] = done - due
            lags[index] = sent_at - due
            finished[index] = done

    threads = [
        threading.Thread(target=sender, args=(k,), name=f"sender-{k}", daemon=True)
        for k in range(len(proxies))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + IO_TIMEOUT_S + 5.0)
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("open-loop sender did not finish")
    # from the first due time to the last answer: past the window when
    # the server fell behind, and never shorter than the schedule itself
    return latencies, lags, max(finished) - start

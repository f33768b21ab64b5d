"""The oracle accepts faithful echoes and rejects corrupted ones."""

import signal

from repro.apps.echo import ECHO_NS, ECHO_SERVICE
from repro.client.futures import InvocationFuture
from repro.core.dispatcher import spi_server_handlers
from repro.errors import PackError, SoapFaultError, TransportError
from repro.server import ServerConfig, build_server
from repro.server.handlers import HandlerChain
from repro.server.service import service_from_functions

from perfbench import run as bench_run
from perfbench.harness import make_proxy
from perfbench.loadgen import run_window
from perfbench.oracle import Oracle
from perfbench.workloads import WORKLOADS, message_stream


def resolved(value):
    future = InvocationFuture("echo")
    future.resolve(value)
    return future


def failed(error):
    future = InvocationFuture("echo")
    future.fail(error)
    return future


def test_faithful_echo_passes():
    oracle = Oracle()
    assert oracle.check_message(["a", "b&<>\""], [resolved("a"), resolved("b&<>\"")])
    assert oracle.check_value("x", "x")
    assert (oracle.attempted, oracle.failed, oracle.correct) == (3, 0, True)


def test_corrupted_echo_is_a_wrong_output():
    oracle = Oracle()
    assert not oracle.check_message(["a", "b"], [resolved("a"), resolved("B")])
    assert oracle.mismatches == 1 and not oracle.correct
    assert "entry 1" in oracle.first_mismatch


def test_swapped_or_missing_entries_are_wrong_outputs():
    oracle = Oracle()
    oracle.check_message(["a", "b"], [resolved("b"), resolved("a")])
    assert oracle.mismatches == 2
    oracle.check_message(["a", "b"], [resolved("a")])
    assert oracle.mismatches == 4
    oracle.check_message(["a"], [failed(PackError("packed response is missing"))])
    assert oracle.mismatches == 5


def test_faults_and_timeouts_fail_without_being_wrong():
    oracle = Oracle()
    oracle.check_message(
        ["a", "b", "c"],
        [
            failed(SoapFaultError("SOAP-ENV:Server", "boom")),
            failed(TransportError("recv failed: timed out")),
            resolved("c"),
        ],
    )
    oracle.record_error(TransportError("connection reset"), calls=4)
    assert (oracle.faults, oracle.timeouts, oracle.mismatches) == (5, 1, 0)
    assert oracle.attempted == 7 and oracle.failed == 6 and oracle.correct


def corrupting_echo_service():
    """The echo service with every third answer altered."""
    answered = [0]

    def echo(payload: str) -> str:
        answered[0] += 1
        return payload[::-1] if answered[0] % 3 == 0 else payload

    return service_from_functions(ECHO_SERVICE, ECHO_NS, {"echo": echo})


def test_oracle_catches_a_server_that_corrupts_echoes():
    server = build_server(ServerConfig(
        services=[corrupting_echo_service()],
        chain=HandlerChain(spi_server_handlers()),
    ))
    workload = WORKLOADS["pack_small"]
    oracle = Oracle()
    with server.running() as address:
        proxy = make_proxy(address)
        try:
            window = run_window(workload, [proxy], message_stream(workload, 1), oracle, 0.2)
        finally:
            proxy.close()
    assert window.calls == oracle.attempted > 0
    assert oracle.mismatches > 0 and not oracle.correct


def test_wrong_output_makes_the_command_exit_nonzero(monkeypatch, capsys):
    def wrong_run(workload, seed, seconds, trace):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

    monkeypatch.setattr(bench_run, "run", wrong_run)
    handlers = {sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGALRM)}
    try:
        assert bench_run.main(["--workload", "pack_small", "--seconds", "1"]) == 1
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
    assert '"correct": false' in capsys.readouterr().out

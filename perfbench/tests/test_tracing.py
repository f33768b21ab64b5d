"""Span attribution adds up, links both processes, and patches undo."""

import pytest

from perfbench import tracing
from perfbench.harness import make_proxy
from perfbench.loadgen import run_window
from perfbench.oracle import Oracle
from perfbench.workloads import WORKLOADS, message_stream

from repro.apps.echo import make_echo_service
from repro.core.dispatcher import spi_server_handlers
from repro.server import ServerConfig, build_server
from repro.server.handlers import HandlerChain
from repro.soap.envelope import Envelope


def span(span_id, name, start, end, parent=None, request=1):
    return (span_id, name, start, end, parent, request)


def test_self_times_and_unattributed_sum_to_the_root():
    spans = [
        span(1, "client.invoke", 0, 100),
        span(2, "soap.request_serialize", 10, 30, 1),
        span(3, "xmlcore.serialize", 15, 25, 2),
        span(4, "transport.roundtrip", 40, 90, 1),
        # two parallel server spans under the round trip share 60..80
        span(5, "server.execute", 50, 80, 4),
        span(6, "server.execute", 60, 80, 4),
    ]
    result = tracing.attribute(spans)
    self_ns = result["self_ns"]
    assert result["messages"] == 1 and result["total_ns"] == 100
    assert self_ns["xmlcore.serialize"] == pytest.approx(10)
    assert self_ns["soap.request_serialize"] == pytest.approx(10)
    assert self_ns["server.execute"] == pytest.approx(30)
    assert self_ns["transport.roundtrip"] == pytest.approx(20)
    assert result["unattributed_ns"] == pytest.approx(30)
    assert sum(self_ns.values()) + result["unattributed_ns"] == pytest.approx(100)


def test_messages_without_one_root_are_skipped():
    spans = [span(1, "soap.request_parse", 0, 10, None, request=9)]
    assert tracing.attribute(spans)["messages"] == 0


def test_server_spans_join_the_round_trip_that_carried_them():
    client = [
        span(1, "client.invoke", 0, 100, request="m1"),
        span(2, "transport.roundtrip", 10, 90, 1, request="m1"),
        span(3, "client.invoke", 200, 300, request="m2"),
        span(4, "transport.roundtrip", 210, 290, 3, request="m2"),
    ]
    links = [(5000, 10, 90, 2), (5000, 210, 290, 4)]
    base = tracing.SERVER_ID_BASE
    server = [
        (base, "http.request_parse", 20, 25, None, [5000, 20]),
        (base + 1, "server.endpoint", 25, 80, None, [5000, 20]),
        (base + 2, "server.execute", 30, 40, base + 1, [5000, 20]),
        (base + 3, "server.endpoint", 220, 280, None, [5000, 220]),
        # the readiness probe: no traced round trip carried it
        (base + 4, "server.endpoint", 500, 510, None, [6000, 500]),
    ]
    merged, dropped = tracing.merge(client, links, server)
    assert dropped == 1
    by_id = {s[0]: s for s in merged}
    assert by_id[base][4] == 2 and by_id[base][5] == "m1"
    assert by_id[base + 2][4] == base + 1 and by_id[base + 2][5] == "m1"
    assert by_id[base + 3][4] == 4 and by_id[base + 3][5] == "m2"


def test_patches_restore_the_originals():
    original = Envelope.__dict__["parse"]
    patches = tracing.install_client(tracing.SpanRecorder())
    assert Envelope.__dict__["parse"] is not original
    patches.restore()
    assert Envelope.__dict__["parse"] is original


def traced_pack(install):
    """One short traced pack_small window against an in-process server."""
    recorder = tracing.SpanRecorder()
    server = build_server(ServerConfig(
        services=[make_echo_service()],
        chain=HandlerChain(spi_server_handlers()),
    ))
    workload = WORKLOADS["pack_small"]
    with server.running() as address:
        proxy = make_proxy(address)
        patches = install(recorder)
        try:
            run_window(workload, [proxy], message_stream(workload, 2), Oracle(), 0.1,
                       recorder)
        finally:
            patches.restore()
            proxy.close()
    return recorder


def test_client_instrumentation_covers_its_layers():
    recorder = traced_pack(tracing.install_client)
    names = {s[1] for s in recorder.spans}
    assert {"client.invoke", "core.pack", "core.dispatch", "core.unpack",
            "soap.request_serialize", "soap.response_parse", "xmlcore.parse",
            "xmlcore.serialize", "http.request_encode", "http.response_parse",
            "transport.roundtrip"} <= names
    assert recorder.links and recorder.counters["http.wire_bytes"] > 0
    result = tracing.attribute(recorder.spans)
    assert result["messages"] > 0


def test_server_instrumentation_covers_its_layers():
    recorder = traced_pack(tracing.install_server)
    names = {s[1] for s in recorder.spans}
    assert {"http.request_parse", "server.endpoint", "soap.request_parse",
            "core.dispatch", "core.unpack", "server.stage_wait", "server.execute",
            "core.pack", "soap.response_serialize", "xmlcore.parse",
            "xmlcore.serialize", "http.response_encode"} <= names
    # each request carries its wire id: (client port, head arrival time)
    endpoints = [s for s in recorder.spans if s[1] == "server.endpoint"]
    assert endpoints and all(isinstance(s[5], tuple) for s in endpoints)

"""Integration tests: both server architectures over real transports."""

import threading
import time

import pytest

from repro.http.connection import HttpConnection
from repro.http.message import Headers, HttpRequest
from repro.soap.constants import SOAP_CONTENT_TYPE
from repro.soap.deserializer import parse_response_envelope
from repro.soap.envelope import Envelope
from repro.soap.serializer import build_request_envelope, serialize_rpc_request
from repro.server.service import service_from_functions
from repro.transport.inproc import InProcTransport
from repro.server import ServerConfig, build_server

NS = "urn:svc:echo"


def make_services():
    def echo(payload: str) -> str:
        return payload

    def slow_echo(payload: str) -> str:
        time.sleep(0.05)
        return payload

    return [
        service_from_functions(
            "EchoService", NS, {"echo": echo, "slowEcho": slow_echo}
        )
    ]


def call(transport, address, envelope: Envelope):
    request = HttpRequest(
        "POST",
        "/services/EchoService",
        Headers({"Content-Type": SOAP_CONTENT_TYPE}),
        envelope.to_bytes(),
    )
    with HttpConnection(transport, address) as conn:
        response = conn.request(request)
    return response


@pytest.fixture(params=["common", "staged"])
def server(request):
    transport = InProcTransport()
    srv = build_server(ServerConfig(
        services=make_services(),
        architecture=request.param,
        transport=transport,
        address="soap-server",
    ))
    with srv.running() as address:
        yield srv, transport, address


class TestBothArchitectures:
    def test_single_request(self, server):
        srv, transport, address = server
        response = call(
            transport, address, build_request_envelope(NS, "echo", {"payload": "hi"})
        )
        assert response.status == 200
        env = Envelope.parse(response.body, server=True)
        assert parse_response_envelope(env).value == "hi"

    def test_multi_entry_body_executes_all(self, server):
        srv, transport, address = server
        envelope = Envelope()
        for i in range(4):
            envelope.add_body(serialize_rpc_request(NS, "echo", {"payload": f"m{i}"}))
        response = call(transport, address, envelope)
        assert response.status == 200
        env = Envelope.parse(response.body, server=True)
        values = [e.require("return").text for e in env.body_entries]
        assert values == ["m0", "m1", "m2", "m3"]

    def test_concurrent_clients(self, server):
        srv, transport, address = server
        results = {}
        lock = threading.Lock()

        def worker(i):
            response = call(
                transport,
                address,
                build_request_envelope(NS, "echo", {"payload": f"c{i}"}),
            )
            env = Envelope.parse(response.body, server=True)
            with lock:
                results[i] = parse_response_envelope(env).value

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert results == {i: f"c{i}" for i in range(6)}

    def test_stats_exposed(self, server):
        srv, transport, address = server
        call(transport, address, build_request_envelope(NS, "echo", {"payload": "x"}))
        stats = srv.stats()
        assert stats["architecture"] in ("common", "staged")
        assert stats["container"]["entries_executed"] == 1
        assert stats["endpoint"]["soap_messages"] == 1

    def test_application_stage_matches_architecture(self, server):
        srv, transport, address = server
        stats = srv.stats()
        if srv.architecture == "common":
            assert srv.app_stage is None
            assert "app_stage" not in stats and "app_pool" not in stats
        else:
            assert srv.app_stage is not None
            assert stats["app_stage"]["events"] == 0
            assert stats["app_pool"]["submitted"] == 0

    @pytest.mark.parametrize("architecture", ["common", "staged"])
    def test_lifecycle_leaves_no_application_threads(self, architecture):
        before = set(threading.enumerate())

        def new_stage_threads():
            return [
                t for t in threading.enumerate()
                if t not in before and t.name.startswith("stage-application-")
            ]

        transport = InProcTransport()
        srv = build_server(ServerConfig(
            services=make_services(),
            architecture=architecture,
            transport=transport,
            address=f"threads-{architecture}",
        ))
        with srv.running() as address:
            call(transport, address, build_request_envelope(NS, "echo", {"payload": "x"}))
            # Fig. 1 never builds the application stage's pool at all
            assert bool(new_stage_threads()) == (architecture == "staged")
        assert new_stage_threads() == []


class TestStagedConcurrency:
    def test_multi_entry_executes_concurrently(self):
        """M slow operations in one message should take ~1x the single
        operation time on the staged server (paper's server-side
        concurrency claim), not Mx."""
        transport = InProcTransport()
        srv = build_server(ServerConfig(services=make_services(), architecture="staged", transport=transport, address="staged", app_workers=8))
        with srv.running() as address:
            envelope = Envelope()
            for i in range(6):
                envelope.add_body(
                    serialize_rpc_request(NS, "slowEcho", {"payload": f"m{i}"})
                )
            start = time.monotonic()
            response = call(transport, address, envelope)
            elapsed = time.monotonic() - start
        assert response.status == 200
        # 6 x 0.05s serial would be >= 0.30s; concurrent should be well under
        assert elapsed < 0.22
        assert srv.app_stage.stats.events == 6

    def test_common_arch_is_serial(self):
        transport = InProcTransport()
        srv = build_server(ServerConfig(services=make_services(), architecture="common", transport=transport, address="common"))
        with srv.running() as address:
            envelope = Envelope()
            for i in range(4):
                envelope.add_body(
                    serialize_rpc_request(NS, "slowEcho", {"payload": f"m{i}"})
                )
            start = time.monotonic()
            call(transport, address, envelope)
            elapsed = time.monotonic() - start
        assert elapsed >= 0.2  # 4 x 0.05s, strictly sequential

    def test_staged_single_entry_stays_on_protocol_thread(self):
        transport = InProcTransport()
        srv = build_server(ServerConfig(services=make_services(), architecture="staged", transport=transport, address="fastpath"))
        with srv.running() as address:
            call(transport, address, build_request_envelope(NS, "echo", {"payload": "x"}))
        assert srv.app_stage.stats.events == 0

    def test_mixed_success_and_fault_entries(self):
        transport = InProcTransport()
        srv = build_server(ServerConfig(services=make_services(), architecture="staged", transport=transport, address="mixed"))
        with srv.running() as address:
            envelope = Envelope()
            envelope.add_body(serialize_rpc_request(NS, "echo", {"payload": "good"}))
            envelope.add_body(serialize_rpc_request(NS, "doesNotExist", {}))
            response = call(transport, address, envelope)
        env = Envelope.parse(response.body, server=True)
        assert len(env.body_entries) == 2
        tags = [e.local_name for e in env.body_entries]
        assert tags == ["echoResponse", "Fault"]

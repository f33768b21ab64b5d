"""The ClientConfig facade; the legacy ServiceProxy constructor is gone."""

import pytest

from repro.client.config import ClientConfig, build_proxy
from repro.client.proxy import ServiceProxy
from repro.errors import InvocationError
from repro.resilience.hedge import HedgePolicy
from repro.resilience.limiter import AdaptiveLimiter
from repro.resilience.policy import CallPolicy
from repro.transport.inproc import InProcTransport


class TestClientConfig:
    def test_transport_and_namespace_required(self):
        with pytest.raises(InvocationError, match="transport"):
            ClientConfig(namespace="urn:x")
        with pytest.raises(InvocationError, match="namespace"):
            ClientConfig(InProcTransport(), "addr")

    def test_resilience_knobs_are_type_checked(self):
        transport = InProcTransport()
        with pytest.raises(InvocationError, match="hedge"):
            ClientConfig(transport, "addr", namespace="urn:x", hedge=True)
        with pytest.raises(InvocationError, match="limiter"):
            ClientConfig(transport, "addr", namespace="urn:x", limiter=32)

    def test_replace_is_a_frozen_copy(self):
        base = ClientConfig(InProcTransport(), "addr", namespace="urn:x")
        pooled = base.replace(reuse_connections=True)
        assert not base.reuse_connections and pooled.reuse_connections
        assert pooled.namespace == "urn:x"

    def test_build_proxy_wires_every_knob(self):
        hedge = HedgePolicy(quantile=0.9)
        limiter = AdaptiveLimiter(initial=4.0)
        policy = CallPolicy(retries=2)
        config = ClientConfig(
            InProcTransport(),
            "addr",
            namespace="urn:x",
            service_name="Echo",
            policy=policy,
            hedge=hedge,
            limiter=limiter,
        )
        proxy = build_proxy(config)
        assert isinstance(proxy, ServiceProxy)
        assert proxy.config is config
        assert proxy.namespace == "urn:x"
        assert proxy.service_name == "Echo"
        assert proxy.policy is policy
        assert proxy.hedge is hedge
        assert proxy.limiter is limiter


class TestLegacyShim:
    def test_config_plus_legacy_arguments_rejected(self):
        config = ClientConfig(InProcTransport(), "addr", namespace="urn:x")
        with pytest.raises(InvocationError, match="legacy"):
            ServiceProxy(InProcTransport(), config=config)
        with pytest.raises(InvocationError, match="legacy"):
            ServiceProxy(config=config, namespace="urn:y")

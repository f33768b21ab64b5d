"""Client side: dynamic proxies, invocation strategies, futures, caching."""

from repro.client.cache import (
    CachePolicy,
    ClientCacheStats,
    ResponseCache,
    response_cache_key,
)
from repro.client.config import ClientConfig, build_proxy
from repro.client.futures import CompletionWatcher, InvocationFuture, wait_all
from repro.client.invoker import (
    Call,
    Invoker,
    KeepAliveSerialInvoker,
    SerialInvoker,
    ThreadedInvoker,
)
from repro.client.proxy import ServiceProxy

__all__ = [
    "CachePolicy",
    "Call",
    "ClientCacheStats",
    "ClientConfig",
    "CompletionWatcher",
    "InvocationFuture",
    "Invoker",
    "KeepAliveSerialInvoker",
    "ResponseCache",
    "SerialInvoker",
    "ServiceProxy",
    "ThreadedInvoker",
    "build_proxy",
    "response_cache_key",
    "wait_all",
]

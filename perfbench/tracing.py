"""Spans recorded around calls into the program's public functions.

Nothing in ``src/`` changes: :func:`install_client` and
:func:`install_server` replace a fixed set of module attributes and
methods with wrappers that record one span per call, and the returned
:class:`Patches` puts the originals back.  Spans live in memory as
``(id, name, start_ns, end_ns, parent_id, request_id)`` tuples and are
written out when the run ends.

The two processes share ``time.perf_counter_ns`` (``CLOCK_MONOTONIC``
on Linux), so server spans land inside the client's
``transport.roundtrip`` span on one time line.  A server request is
tied to its client round trip by a *wire id*: the client socket's port
(seen from both ends) and the moment the request head arrived, which
falls inside exactly one round trip on that connection.

:func:`attribute` turns the merged spans into per-layer self time: at
every instant of a message's round trip, the innermost open spans share
that instant evenly (parallel stage workers split wall time), so the
self times of all spans add up exactly to the root span's duration.
The root's own share is the time no layer span covers: unattributed.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import threading
import time
from collections import defaultdict

ROOT_SPAN = "client.invoke"
#: Layers in report order; a span's layer is its name up to the dot.
LAYERS = ("core", "soap", "xmlcore", "http", "transport", "server")
#: Server span ids start here so they never collide with client ids.
SERVER_ID_BASE = 10**12


class SpanRecorder:
    """In-memory span sink with a per-thread stack of open spans."""

    def __init__(self, *, first_id: int = 0) -> None:
        self.spans: list[tuple] = []
        #: ``(port, start_ns, end_ns, span_id)`` of each client round trip
        self.links: list[tuple[int, int, int, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(first_id)
        self._requests = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def state(self):
        """This thread's open-span stack, request id and adopted parent."""
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request_id = None
            local.parent = None
            local.head_at = None
        return local

    def begin_request(self) -> None:
        """Tag the spans this thread records next with a new request id."""
        state = self.state()
        state.request_id = next(self._requests)
        state.parent = None

    def open(self) -> tuple[int, int | None, int]:
        state = self.state()
        parent = state.stack[-1] if state.stack else state.parent
        span_id = next(self._ids)
        state.stack.append(span_id)
        return span_id, parent, time.perf_counter_ns()

    def close(self, name: str, token: tuple[int, int | None, int]) -> int:
        end = time.perf_counter_ns()
        state = self.state()
        state.stack.pop()
        span_id, parent, start = token
        self.spans.append((span_id, name, start, end, parent, state.request_id))
        return end

    def record(self, name: str, start: int, end: int, parent, request_id) -> None:
        """Record a span measured outside the stack discipline."""
        self.spans.append((next(self._ids), name, start, end, parent, request_id))

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counters[name] += amount


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _spanned(recorder: SpanRecorder, name: str, fn, measure=None):
    """``fn`` wrapped in a span.  ``measure`` is ``(counter, size)``:
    ``size(args, result)`` is added to the named counter per call."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = recorder.open()
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(name, token)
        if measure is not None:
            recorder.count(measure[0], measure[1](args, result))
        return result

    return traced


def _wrap(patches: Patches, recorder: SpanRecorder, owner, attr: str, name: str,
          measure=None) -> None:
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        patches.replace(
            owner, attr, classmethod(_spanned(recorder, name, raw.__func__, measure))
        )
    else:
        patches.replace(owner, attr, _spanned(recorder, name, raw, measure))


def _source_bytes(args, result) -> int:
    return len(args[-1])


def _result_bytes(args, result) -> int:
    return len(result)


def _wrap_head_parse(patches: Patches, recorder: SpanRecorder, module, attr: str,
                     name: str, on_done=None) -> None:
    """Span an HTTP message read from the moment its head has arrived.

    ``read_request``/``read_response`` block until bytes come in; that
    wait belongs to the wire, so the span starts when the head read
    (``ChannelReader.read_until``, wrapped by :func:`_mark_head`)
    returns, and covers head parsing plus the body read.
    """
    original = module.__dict__[attr]

    @functools.wraps(original)
    def traced(reader):
        state = recorder.state()
        state.head_at = None
        message = original(reader)
        end = time.perf_counter_ns()
        if on_done is not None:
            on_done(state, reader)
        start = state.head_at if state.head_at is not None else end
        parent = state.stack[-1] if state.stack else state.parent
        recorder.record(name, start, end, parent, state.request_id)
        return message

    patches.replace(module, attr, traced)


def _mark_head(patches: Patches, recorder: SpanRecorder) -> None:
    from repro.http.parser import ChannelReader

    original = ChannelReader.__dict__["read_until"]

    @functools.wraps(original)
    def read_until(self, marker, limit):
        data = original(self, marker, limit)
        state = recorder.state()
        if state.head_at is None:
            state.head_at = time.perf_counter_ns()
        return data

    patches.replace(ChannelReader, "read_until", read_until)


def _socket_port(channel, peer: bool) -> int | None:
    """The client's port of a TCP channel: its own port on the client
    side, its peer's on the server side (``peer``); None off TCP."""
    sock = getattr(channel, "_sock", None)
    if sock is None:
        return None
    try:
        return (sock.getpeername() if peer else sock.getsockname())[1]
    except OSError:
        return None


def _wrap_both_sides(patches: Patches, recorder: SpanRecorder, parse_as: str,
                     serialize_as: str) -> None:
    """Spans common to client and server; only the SOAP direction of
    an envelope parse or serialization differs between the two."""
    from repro.core import packformat
    from repro.soap import envelope as envelope_module
    from repro.soap.envelope import Envelope
    from repro.xmlcore.treebuilder import XmlScanner

    wrap = functools.partial(_wrap, patches, recorder)
    wrap(packformat, "unpack_parallel_method", "core.unpack")
    wrap(Envelope, "parse", parse_as, ("xmlcore.bytes", _source_bytes))
    wrap(Envelope, "to_bytes", serialize_as)
    wrap(XmlScanner, "read_element", "xmlcore.parse")
    wrap(envelope_module, "serialize_bytes", "xmlcore.serialize",
         ("xmlcore.bytes", _result_bytes))
    _mark_head(patches, recorder)


def install_client(recorder: SpanRecorder) -> Patches:
    """Wrap the client-side entry points of every layer."""
    from repro.client import proxy as proxy_module
    from repro.core import assembler, dispatcher
    from repro.core.batch import PackedInvoker
    from repro.http import connection
    from repro.http.message import HttpRequest

    patches = Patches()
    wrap = functools.partial(_wrap, patches, recorder)
    _wrap_both_sides(patches, recorder, "soap.response_parse", "soap.request_serialize")
    # client: the root span of one message
    wrap(PackedInvoker, "submit_all", ROOT_SPAN)
    wrap(proxy_module.ServiceProxy, "call", ROOT_SPAN)
    # core: SPI pack and dispatch
    wrap(assembler.ClientAssembler, "assemble", "core.pack")
    wrap(dispatcher.ClientDispatcher, "dispatch", "core.dispatch")
    # soap: building entries and envelopes, reading them back
    wrap(assembler, "serialize_rpc_request", "soap.request_serialize")
    wrap(proxy_module, "build_request_envelope", "soap.request_serialize")
    wrap(proxy_module, "parse_response_document", "soap.response_parse",
         ("xmlcore.bytes", _source_bytes))
    wrap(dispatcher, "parse_rpc_response", "soap.response_parse")
    # http: encoding the request, parsing the response
    wrap(HttpRequest, "to_bytes", "http.request_encode",
         ("http.wire_bytes", _result_bytes))
    _wrap_head_parse(patches, recorder, connection, "read_response", "http.response_parse")

    # transport: one round trip on the channel, linked to its server side
    original_request = connection.HttpConnection.__dict__["request"]

    @functools.wraps(original_request)
    def request(self, http_request):
        token = recorder.open()
        try:
            return original_request(self, http_request)
        finally:
            end = recorder.close("transport.roundtrip", token)
            port = _socket_port(self._channel, peer=False)
            if port is not None:
                recorder.links.append((port, token[2], end, token[0]))

    patches.replace(connection.HttpConnection, "request", request)
    return patches


def install_server(recorder: SpanRecorder) -> Patches:
    """Wrap the server-side entry points of every layer.

    Assumes the threaded HTTP backend (the ``ServerConfig`` default):
    one connection thread reads, handles and answers each request.
    """
    from repro.core import assembler, dispatcher
    from repro.http import server as http_server
    from repro.http.message import HttpResponse
    from repro.server import container as container_module
    from repro.server.endpoint import SoapEndpoint
    from repro.server.stage import Stage

    patches = Patches()
    wrap = functools.partial(_wrap, patches, recorder)
    _wrap_both_sides(patches, recorder, "soap.request_parse", "soap.response_serialize")
    wrap(SoapEndpoint, "__call__", "server.endpoint")
    wrap(container_module.ServiceContainer, "execute_entry", "server.execute")
    wrap(dispatcher.ServerDispatcher, "invoke_request", "core.dispatch")
    wrap(assembler.ServerAssembler, "invoke_response", "core.pack")
    wrap(container_module, "parse_rpc_request", "soap.request_parse")
    wrap(container_module, "serialize_rpc_response", "soap.response_serialize")
    wrap(HttpResponse, "to_bytes", "http.response_encode",
         ("http.wire_bytes", _result_bytes))

    def tag_request(state, reader) -> None:
        # spans on this thread, and the stage work it submits, carry the
        # request's wire id from here: the client's port and the moment
        # the head arrived, which falls inside exactly one client round
        # trip on that connection
        port = _socket_port(getattr(reader, "_channel", None), peer=True)
        state.request_id = None if port is None else (port, state.head_at)
        state.parent = None

    _wrap_head_parse(patches, recorder, http_server, "read_request",
                     "http.request_parse", on_done=tag_request)

    original_submit = Stage.__dict__["submit"]

    @functools.wraps(original_submit)
    def submit(self, handler, /, *args, kind="event", **kwargs):
        state = recorder.state()
        parent = state.stack[-1] if state.stack else state.parent
        request_id = state.request_id
        submitted = time.perf_counter_ns()

        def adopted(*handler_args, **handler_kwargs):
            worker = recorder.state()
            recorder.record(
                "server.stage_wait", submitted, time.perf_counter_ns(), parent,
                request_id,
            )
            worker.request_id, worker.parent = request_id, parent
            try:
                return handler(*handler_args, **handler_kwargs)
            finally:
                worker.request_id = worker.parent = None

        return original_submit(self, adopted, *args, kind=kind, **kwargs)

    patches.replace(Stage, "submit", submit)
    return patches


# -- attribution -----------------------------------------------------------


def merge(client_spans, links, server_spans):
    """One span list on the client's request ids.

    A server span keeps its parent when it has one; a request's
    top-level server spans become children of the client round trip
    whose connection and interval hold the request's wire id.  Spans of
    requests no traced round trip carried (the untraced call that opens
    each traced window) are dropped; their count is returned.
    """
    by_id = {span[0]: span for span in client_spans}
    trips: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
    for port, start, end, span_id in links:
        trips[port].append((start, end, span_id))
    for intervals in trips.values():
        intervals.sort()
    carrier_of: dict[tuple, int | None] = {}
    merged = list(client_spans)
    dropped = 0
    for span_id, name, start, end, parent, wire in server_spans:
        wire = tuple(wire) if wire is not None else None
        if wire not in carrier_of:
            carrier_of[wire] = _carrier(trips, wire)
        carrier = carrier_of[wire]
        if carrier is None:
            dropped += 1
            continue
        merged.append(
            (span_id, name, start, end, carrier if parent is None else parent,
             by_id[carrier][5])
        )
    return merged, dropped


def _carrier(trips, wire) -> int | None:
    """The round trip on ``wire``'s connection that spans its head time."""
    if wire is None or wire[1] is None:
        return None
    port, at = wire
    intervals = trips.get(port, ())
    index = bisect.bisect_right(intervals, (at, float("inf"), 0)) - 1
    if index >= 0 and intervals[index][0] <= at <= intervals[index][1]:
        return intervals[index][2]
    return None


def attribute(spans) -> dict:
    """Self time per span name, summed over every traced message.

    Returns ``{"messages", "total_ns", "self_ns": {name: ns},
    "unattributed_ns"}`` where ``sum(self_ns) + unattributed_ns ==
    total_ns`` exactly.
    """
    by_request: dict[object, list] = defaultdict(list)
    for span in spans:
        by_request[span[5]].append(span)
    self_ns: dict[str, float] = defaultdict(float)
    total = 0
    unattributed = 0.0
    messages = 0
    for group in by_request.values():
        roots = [s for s in group if s[1] == ROOT_SPAN and s[4] is None]
        if len(roots) != 1:
            continue
        root = roots[0]
        shares = _frontier_shares(root, group)
        duration = root[3] - root[2]
        messages += 1
        total += duration
        named = 0.0
        for span in group:
            if span is root:
                continue
            share = shares.get(span[0], 0.0)
            self_ns[span[1]] += share
            named += share
        unattributed += duration - named
    return {
        "messages": messages,
        "total_ns": total,
        "self_ns": dict(self_ns),
        "unattributed_ns": unattributed,
    }


def _frontier_shares(root, group) -> dict[int, float]:
    """Each span's share of the root interval.

    Sweep the span edges in time order; between two edges the open
    spans with no open child (the frontier) split the elapsed time
    evenly.  ``potential`` accumulates time-per-frontier-member so each
    span's share is the potential gained while it sat on the frontier.
    """
    lo, hi = root[2], root[3]
    parent_of = {s[0]: s[4] for s in group}
    events = []
    for span in group:
        start, end = max(span[2], lo), min(span[3], hi)
        if end <= start and span is not root:
            continue
        events.append((start, 1, span[0]))
        events.append((end, 0, span[0]))
    events.sort()
    open_children: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    entered: dict[int, float] = {}
    shares: dict[int, float] = defaultdict(float)
    potential = 0.0
    previous = lo
    for at, is_start, span_id in events:
        if entered and at > previous:
            potential += (at - previous) / len(entered)
        previous = at
        parent = parent_of.get(span_id)
        if is_start:
            active.add(span_id)
            if parent in active:
                if open_children[parent] == 0 and parent in entered:
                    shares[parent] += potential - entered.pop(parent)
                open_children[parent] += 1
            if open_children[span_id] == 0:
                entered[span_id] = potential
        else:
            if span_id in entered:
                shares[span_id] += potential - entered.pop(span_id)
            active.discard(span_id)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    entered[parent] = potential
    return shares

"""The benchmark's four workloads and their seeded inputs.

Every payload is text drawn from a seeded :class:`random.Random`, made
distinct by a per-stream call index, and a fixed share of them
(:data:`ESCAPE_SHARE`) carries the four XML-escaped characters
``& < > "`` so escaping is always on the path.  The same seed gives the
same sequence of payloads; the server only ever sees these inputs.
"""

from __future__ import annotations

import dataclasses
import random
import string

#: Share of payloads that contain ``& < > "``.
ESCAPE_SHARE = 0.25
ESCAPE_CHARS = '&<>"'
# no whitespace: XML text round-trips it, but a payload of plain
# letters and digits keeps the oracle's equality check unambiguous
_ALPHABET = string.ascii_letters + string.digits


@dataclasses.dataclass(frozen=True)
class Workload:
    """One traffic shape.

    ``entries`` is the pack size M; ``0`` means unpacked single calls
    (one SOAP message per call).  Closed-loop workloads send their next
    message when the previous one is answered; the open loop sends at
    ``rate_per_s`` regardless, spread over ``connections`` senders.
    """

    name: str
    why: str
    loop: str
    operation: str
    entries: int
    payload_bytes: int
    delay_ms: int = 0
    connections: int = 1
    rate_per_s: float = 0.0

    @property
    def calls_per_message(self) -> int:
        return self.entries or 1

    def params(self, payload: str) -> dict:
        """The operation's parameters for one call."""
        if self.operation == "delayedEcho":
            return {"payload": payload, "delay_ms": self.delay_ms}
        return {"payload": payload}


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "pack_small",
            "Fig. 5 shape: packs of 32 echo calls with 10 B payloads, closed "
            "loop on 1 connection; time goes to per-entry parse, SPI "
            "unpack/repack and stage hand-off",
            loop="closed",
            operation="echo",
            entries=32,
            payload_bytes=10,
        ),
        Workload(
            "pack_large",
            "Fig. 7 shape: packs of 4 echo calls with 100 KB payloads, closed "
            "loop on 1 connection; time goes to bytes: body read, XML lexing "
            "and escaping, copies",
            loop="closed",
            operation="echo",
            entries=4,
            payload_bytes=100_000,
        ),
        Workload(
            "rpc_open",
            "open loop at 300 calls/s over 2 connections, unpacked ~100 B "
            "echo calls; every call pays its own HTTP request and SOAP "
            "envelope, SPI packing bypassed",
            loop="open",
            operation="echo",
            entries=0,
            payload_bytes=100,
            connections=2,
            rate_per_s=300.0,
        ),
        Workload(
            "pack_blocking",
            "paper section 3.3: packs of 16 delayedEcho(2 ms), closed loop on "
            "1 connection; the staged pool's fan-out is the whole benefit, "
            "so inlining dispatch shows as a loss",
            loop="closed",
            operation="delayedEcho",
            entries=16,
            payload_bytes=10,
            delay_ms=2,
        ),
    )
}


class PayloadStream:
    """Deterministic, pairwise-distinct payloads of one size.

    Payload ``i`` is ``<i in hex>.`` followed by seeded random text, so
    no two payloads of a stream are equal.  Small payloads draw every
    character; large ones take a seeded window of one seeded base text
    (drawing 100 KB per call would cost more than the call).
    """

    def __init__(self, seed: int, size: int) -> None:
        self._rng = random.Random(seed)
        self._size = size
        self._index = 0
        self._base = (
            "".join(self._rng.choices(_ALPHABET, k=2 * size)) if size > 4096 else ""
        )

    def __iter__(self) -> "PayloadStream":
        return self

    def __next__(self) -> str:
        tag = f"{self._index:x}."
        self._index += 1
        length = max(self._size - len(tag), len(ESCAPE_CHARS))
        rng = self._rng
        if self._base:
            offset = rng.randrange(len(self._base) - length + 1)
            body = self._base[offset : offset + length]
        else:
            body = "".join(rng.choices(_ALPHABET, k=length))
        if rng.random() < ESCAPE_SHARE:
            at = rng.randrange(length - len(ESCAPE_CHARS) + 1)
            body = body[:at] + ESCAPE_CHARS + body[at + len(ESCAPE_CHARS) :]
        return tag + body


def message_stream(workload: Workload, seed: int):
    """Yield the payload list of each message, in send order.

    Each workload draws from its own stream of ``seed``, so the same
    seed gives every workload its own fixed inputs.
    """
    payloads = PayloadStream(_stream_seed(workload.name, seed), workload.payload_bytes)
    per_message = workload.calls_per_message
    while True:
        yield [next(payloads) for _ in range(per_message)]


def _stream_seed(name: str, seed: int) -> int:
    # string hashing is salted per process; mix the name in stably
    return seed * 1_000_003 + sum(ord(c) * 31**i for i, c in enumerate(name)) % 999_983

"""Seeded input generation is deterministic, distinct and escaped."""

import itertools

from perfbench.workloads import (
    ESCAPE_CHARS,
    ESCAPE_SHARE,
    WORKLOADS,
    PayloadStream,
    message_stream,
)


def take(workload, seed, messages):
    return list(itertools.islice(message_stream(workload, seed), messages))


def test_same_seed_gives_same_inputs():
    for workload in WORKLOADS.values():
        assert take(workload, 7, 20) == take(workload, 7, 20)


def test_other_seed_gives_other_inputs():
    for workload in WORKLOADS.values():
        assert take(workload, 7, 5) != take(workload, 8, 5)


def test_workloads_draw_separate_streams():
    small = take(WORKLOADS["pack_small"], 3, 1)[0]
    blocking = take(WORKLOADS["pack_blocking"], 3, 1)[0][:16]
    assert small[:16] != blocking


def test_payloads_are_distinct_and_sized():
    payloads = list(itertools.islice(PayloadStream(1, 10), 20_000))
    assert len(set(payloads)) == len(payloads)
    assert all(len(p) == 10 for p in payloads[:4096])
    large = list(itertools.islice(PayloadStream(1, 100_000), 8))
    assert len(set(large)) == len(large)
    assert all(len(p) == 100_000 for p in large)


def test_stated_share_carries_escaped_characters():
    payloads = list(itertools.islice(PayloadStream(5, 100), 4000))
    share = sum(ESCAPE_CHARS in p for p in payloads) / len(payloads)
    assert abs(share - ESCAPE_SHARE) < 0.03


def test_message_shapes_match_workloads():
    for workload in WORKLOADS.values():
        message = take(workload, 1, 1)[0]
        assert len(message) == workload.calls_per_message
        params = workload.params(message[0])
        assert params["payload"] == message[0]
        if workload.operation == "delayedEcho":
            assert params["delay_ms"] == workload.delay_ms

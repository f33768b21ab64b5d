"""Golden-finding tests: one positive and one negative fixture per rule.

The corpus lives in ``fixtures/`` (excluded from implicit directory
walks); tests hand the engine explicit file paths with ``root`` set to
the corpus directory, so fixture paths carry no ``tests`` segment and
rules that exempt ``tests`` still apply.
"""

from pathlib import Path

import pytest

from repro.analysis import check_paths, default_rules, lint_rules

FIXTURES = Path(__file__).parent / "fixtures"


def corpus_findings(name: str, rules=None):
    """Run the engine over one fixture file, anchored at the corpus."""
    return check_paths(
        [FIXTURES / name], rules if rules is not None else lint_rules(), root=FIXTURES
    )


class TestPositiveFixtures:
    def test_no_deprecated_api(self):
        findings = corpus_findings("deprecated_pos.py")
        assert {f.rule_id for f in findings} == {"no-deprecated-api"}
        assert len(findings) == 2  # one import + one attribute chain
        assert all("repro.xmlcore.parser.parse" in f.message for f in findings)
        assert all(f.severity == "error" for f in findings)

    def test_no_wallclock_duration(self):
        findings = corpus_findings("wallclock_pos.py")
        assert {f.rule_id for f in findings} == {"no-wallclock-duration"}
        assert len(findings) == 3  # one import + two time.time() calls

    def test_no_direct_sleep_random(self):
        findings = corpus_findings("sleep_pos.py")
        assert {f.rule_id for f in findings} == {"no-direct-sleep-random"}
        messages = "\n".join(f.message for f in findings)
        assert "time.sleep" in messages
        assert "random.uniform" in messages
        assert len(findings) == 4  # two imports + sleep + uniform

    def test_require_slots(self):
        findings = corpus_findings("slots_pos.py")
        assert [f.rule_id for f in findings] == ["require-slots"]
        assert "Span" in findings[0].message

    def test_no_unbounded_queue(self):
        findings = corpus_findings("queue_pos.py")
        assert {f.rule_id for f in findings} == {"no-unbounded-queue"}
        assert {f.message.split("(")[0] for f in findings} == {"ThreadPool", "Stage"}

    def test_no_unbounded_cache(self):
        findings = corpus_findings("cache_pos.py")
        assert {f.rule_id for f in findings} == {"no-unbounded-cache"}
        messages = {f.message for f in findings}
        assert any("UnboundedLookup._result_cache" in m for m in messages)
        assert any("UnboundedLookup._name_memo" in m for m in messages)
        assert any("UnboundedTemplates._templates" in m for m in messages)
        assert len(findings) == 3

    def test_no_unbounded_span_store(self):
        findings = corpus_findings("span_store_pos.py")
        assert {f.rule_id for f in findings} == {"no-unbounded-span-store"}
        messages = {f.message for f in findings}
        assert any("UnboundedSpanRing._spans" in m for m in messages)
        assert any("UnboundedSpanRing._trace_index" in m for m in messages)
        assert any("UnboundedTraceLog.completed_traces" in m for m in messages)
        assert len(findings) == 3

    def test_no_bare_except(self):
        findings = corpus_findings("bare_except_pos.py")
        assert [f.rule_id for f in findings] == ["no-bare-except"]

    def test_no_swallowed_fault(self):
        findings = corpus_findings("server/swallow_pos.py")
        assert {f.rule_id for f in findings} == {"no-swallowed-fault"}
        assert len(findings) == 2  # pass body + docstring-only body
        assert all(f.path == "server/swallow_pos.py" for f in findings)

    def test_no_blocking_call_on_event_loop(self):
        from repro.analysis.rules import NoBlockingCallOnEventLoop

        # run the loop rule alone: the corpus deliberately also trips
        # no-direct-sleep-random, which is not under test here
        findings = corpus_findings(
            "loop_pos/evented.py", rules=[NoBlockingCallOnEventLoop()]
        )
        assert {f.rule_id for f in findings} == {"no-blocking-call-on-event-loop"}
        messages = "\n".join(f.message for f in findings)
        assert ".recv()" in messages
        assert ".sendall()" in messages
        assert ".send()" in messages
        assert ".accept()" in messages
        assert "time.sleep()" in messages
        assert ".acquire() without a timeout" in messages
        assert ".submit(...).result()" in messages
        assert ".select() with no timeout outside the main loop body" in messages
        # the no-arg select() inside _run_loop itself stays legal:
        # waiting is the loop body's job
        assert "(in _wait_for_events)" in messages
        # recv + sendall + sleep + acquire + submit().result() + send
        # + accept + helper select()
        assert len(findings) == 8
        assert all(f.severity == "error" for f in findings)

    def test_no_wallclock_in_hedge(self):
        from repro.analysis.rules import NoWallclockInHedge

        # run the hedge rule alone: the corpus deliberately also trips
        # no-direct-sleep-random, which is not under test here
        findings = corpus_findings(
            "hedge_pos/hedge.py", rules=[NoWallclockInHedge()]
        )
        assert {f.rule_id for f in findings} == {"no-wallclock-in-hedge"}
        messages = "\n".join(f.message for f in findings)
        assert "from time import monotonic" in messages
        assert "time.time()" in messages
        assert "time.sleep()" in messages
        assert "time.monotonic()" in messages
        assert "time.perf_counter()" in messages
        # one from-import + four inline calls
        assert len(findings) == 5
        assert all(f.severity == "error" for f in findings)


@pytest.mark.parametrize(
    "name",
    [
        "deprecated_neg.py",
        "wallclock_neg.py",
        "sleep_neg.py",
        "slots_neg.py",
        "queue_neg.py",
        "cache_neg.py",
        "span_store_neg.py",
        "bare_except_neg.py",
        "server/swallow_neg.py",
        "loop_neg/evented.py",
        "hedge_neg/hedge.py",
    ],
)
def test_negative_fixture_is_clean(name):
    assert corpus_findings(name) == []


class TestScoping:
    def test_swallowed_fault_only_patrols_dispatch_paths(self):
        # The same source outside a server/http/core path is not flagged.
        source = (FIXTURES / "server" / "swallow_pos.py").read_text()
        from repro.analysis import check_source
        from repro.analysis.rules import NoSwallowedFault

        assert check_source(source, path="apps/helper.py", rules=[NoSwallowedFault()]) == []
        assert check_source(source, path="server/x.py", rules=[NoSwallowedFault()]) != []

    def test_sleep_rule_exempts_the_injected_seams(self):
        source = (FIXTURES / "sleep_pos.py").read_text()
        from repro.analysis import check_source
        from repro.analysis.rules import NoDirectSleepRandom

        rule = [NoDirectSleepRandom()]
        assert check_source(source, path="resilience/policy.py", rules=rule) == []
        assert check_source(source, path="transport/chaos.py", rules=rule) == []
        assert check_source(source, path="apps/echo.py", rules=rule) != []

    def test_loop_rule_only_patrols_the_evented_module(self):
        # The same blocking calls are legal anywhere but evented.py —
        # the threaded backend blocks by design.
        source = (FIXTURES / "loop_pos" / "evented.py").read_text()
        from repro.analysis import check_source
        from repro.analysis.rules import NoBlockingCallOnEventLoop

        rule = [NoBlockingCallOnEventLoop()]
        assert check_source(source, path="http/server.py", rules=rule) == []
        assert check_source(source, path="http/evented.py", rules=rule) != []

    def test_hedge_rule_only_patrols_hedge_and_limiter_modules(self):
        # The same inline clock reads are legal elsewhere (subject only
        # to the general wallclock/sleep rules, not this stricter one).
        source = (FIXTURES / "hedge_pos" / "hedge.py").read_text()
        from repro.analysis import check_source
        from repro.analysis.rules import NoWallclockInHedge

        rule = [NoWallclockInHedge()]
        assert check_source(source, path="client/proxy.py", rules=rule) == []
        assert check_source(source, path="resilience/hedge.py", rules=rule) != []
        assert check_source(source, path="resilience/limiter.py", rules=rule) != []

    def test_suppression_pragmas_silence_everything(self):
        assert corpus_findings("suppressed.py", rules=default_rules()) == []

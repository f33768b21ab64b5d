"""The repository's benchmark: out-of-process SOAP/SPI load.

    python3 perfbench/run.py --workload pack_small --seed 1 --seconds 15 --trace 0

Starts the echo server (``server.py``) in its own process, drives it
over loopback TCP from this process with the public client API, checks
every answer, and prints each metric by name and unit, then one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced windows and reports the per-layer breakdown instead.
``--workload all`` runs every workload in turn.  Exits 1 when an answer
was wrong, 2 when the run could not complete.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

# both import only the standard library; the rest waits for src/
from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, message_stream  # noqa: E402

#: Set-up is timed this many times per run (fresh server each, the
#: previous one killed first); the median is reported and the last
#: server is the one measured.
SETUP_REPS = 15
WARMUP_S = 2.0
#: A traced run alternates this many untraced and traced windows.
TRACE_ROUNDS = 3
#: The whole run is abandoned (server killed, exit 2) after this long.
RUN_LIMIT_S = 170

E2E_UNITS = {
    "setup_s": "s",
    "stop_s": "s",
    "latency_p50_ms": "ms",
    "calls_per_s": "1/s",
    "success_pct": "%",
    "server_cpu_ms_per_call": "ms",
    "client_cpu_ms_per_call": "ms",
    "server_rss_mb": "MB",
}

#: Span names reported as ``<name>_ms``: mean self time per message.
SPAN_METRICS = (
    "core.pack",
    "core.unpack",
    "core.dispatch",
    "soap.request_serialize",
    "soap.request_parse",
    "soap.response_serialize",
    "soap.response_parse",
    "xmlcore.parse",
    "xmlcore.serialize",
    "http.request_encode",
    "http.request_parse",
    "http.response_encode",
    "http.response_parse",
    "transport.roundtrip",
    "server.endpoint",
    "server.stage_wait",
    "server.execute",
)

LAYER_UNITS = {
    "client.invoke_ms": "ms",
    **{f"{name}_ms": "ms" for name in SPAN_METRICS},
    **{f"{layer}.self_ms": "ms" for layer in tracing.LAYERS},
    "xmlcore.bytes_per_call": "B",
    "http.wire_bytes_per_call": "B",
    "http.requests_per_connection": "count",
    "transport.connections_opened": "count",
    "server.entries_per_message": "count",
    "server.fanout_share": "ratio",
    "server.rejected": "count",
    "trace.unattributed_pct": "%",
    "trace.overhead_pct": "%",
    "loadgen.latency_p99_ms": "ms",
    "loadgen.send_lag_p99_ms": "ms",
}


class RunTimeout(Exception):
    """The run hit :data:`RUN_LIMIT_S`."""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")

    signal.signal(signal.SIGTERM, _exit_on_signal)
    status = 0
    for name in names:
        signal.signal(signal.SIGALRM, _timeout)
        signal.alarm(RUN_LIMIT_S)
        try:
            report = run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except Exception as exc:  # noqa: BLE001 - CLI boundary: report, exit 2
            print(f"error: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        finally:
            signal.alarm(0)
        print(json.dumps(report), flush=True)
        if not report["correct"]:
            status = 1
    return status


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the result object."""
    from perfbench.harness import ServerProcess, make_proxy
    from perfbench.loadgen import run_window
    from perfbench.oracle import Oracle

    messages = message_stream(workload, seed)
    oracle = Oracle()
    setups = []
    server = None
    proxies = []
    try:
        # a traced run reports no set-up time, so it starts one server;
        # a spare is killed once timed, so no spare shares the machine
        # with the next spawn or the measured server
        for _ in range(1 if trace else SETUP_REPS):
            if server is not None:
                server.kill()
            server = ServerProcess()
            setups.append(server.start(next(messages)[0]))
        proxies = [make_proxy(server.address) for _ in range(workload.connections)]
        run_window(workload, proxies, messages, oracle, WARMUP_S)
        if trace:
            metrics = _traced(workload, seed, seconds, server, proxies, messages, oracle)
        else:
            metrics = _measured(workload, seconds, server, proxies, messages, oracle)
            metrics["setup_s"] = statistics.median(setups)
        # the load is over: the client hangs up, then the server is stopped
        for proxy in proxies:
            proxy.close()
        metrics["stop_s"] = server.stop()
    finally:
        if server is not None:
            server.kill()
        for proxy in proxies:
            proxy.close()

    units = LAYER_UNITS if trace else E2E_UNITS
    _print_report(workload, seed, trace, metrics, units, oracle, setups)
    if oracle.first_mismatch is not None:
        print(f"WRONG OUTPUT: {oracle.first_mismatch}", file=sys.stderr)
    return {
        "correct": oracle.correct,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def _measured(workload, seconds, server, proxies, messages, oracle) -> dict:
    from perfbench.loadgen import run_window

    before = server.command("usage")
    steal_before = _cpu_ticks()
    window = run_window(workload, proxies, messages, oracle, seconds)
    steal_after = _cpu_ticks()
    after = server.command("usage")
    calls = max(window.calls, 1)
    return {
        **_latency(window),
        "calls_per_s": window.completed / window.seconds,
        "success_pct": 100.0 * (oracle.attempted - oracle.failed) / oracle.attempted,
        "server_cpu_ms_per_call": 1000.0 * (after["cpu_s"] - before["cpu_s"]) / calls,
        "client_cpu_ms_per_call": 1000.0 * window.client_cpu_s / calls,
        "server_rss_mb": after["maxrss_kb"] / 1024.0,
        "_samples": len(window.latencies),
        "_steal_pct": _steal_pct(steal_before, steal_after),
        "_stats": after["stats"],
    }


def _cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole machine, where Linux gives them."""
    try:
        with open("/proc/stat") as stat:
            ticks = [int(field) for field in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def _steal_pct(before, after) -> float | None:
    """Share of the machine's CPU time the hypervisor took for others."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return 100.0 * (after[0] - before[0]) / (after[1] - before[1])


def _latency(window) -> dict:
    samples = sorted(window.latencies)
    return {
        "latency_p50_ms": 1000.0 * statistics.median(samples),
        "latency_p99_ms": 1000.0 * _percentile(samples, 99),
    }


def _percentile(sorted_samples: list[float], pct: int) -> float:
    if len(sorted_samples) < 2:
        return sorted_samples[0]
    return statistics.quantiles(sorted_samples, n=100, method="inclusive")[pct - 1]


def _traced(workload, seed, seconds, server, proxies, messages, oracle) -> dict:
    """Untraced and traced windows in turn; spans merged and attributed.

    Alternating :data:`TRACE_ROUNDS` times, rather than one half each,
    keeps a drift in machine speed out of ``trace.overhead_pct``.
    """
    from perfbench.loadgen import Window, run_window

    share = seconds / (2 * TRACE_ROUNDS)
    recorder = tracing.SpanRecorder()
    plain_windows, traced_windows = [], []
    for _ in range(TRACE_ROUNDS):
        plain_windows.append(run_window(workload, proxies, messages, oracle, share))
        server.command("trace")
        # each server connection thread is already blocked reading its
        # next request with the unwrapped functions: let one untraced
        # call through per connection, so every traced one is tagged
        for proxy in proxies:
            payload = next(messages)[0]
            oracle.check_value(payload, proxy.call("echo", payload=payload))
        patches = tracing.install_client(recorder)
        try:
            traced_windows.append(
                run_window(workload, proxies, messages, oracle, share, recorder)
            )
        finally:
            patches.restore()
            server.command("untrace")
    plain, traced = Window.merged(plain_windows), Window.merged(traced_windows)
    OUT_DIR.mkdir(exist_ok=True)
    server_file = OUT_DIR / f"server-spans-{server.process.pid}.json"
    server.command("dump", path=str(server_file))
    dumped = json.loads(server_file.read_text())
    server_file.unlink()
    stats = server.command("usage")["stats"]

    spans, dropped = tracing.merge(recorder.spans, recorder.links, dumped["spans"])
    # one file per workload, overwritten: the latest traced run's spans
    (OUT_DIR / f"trace-{workload.name}.json").write_text(
        json.dumps({"seed": seed, "spans": spans, "dropped_server_spans": dropped})
    )
    result = tracing.attribute(spans)
    messages_traced = max(result["messages"], 1)
    calls = max(traced.calls, 1)

    def per_message_ms(ns: float) -> float:
        return ns / messages_traced / 1e6

    self_ns = result["self_ns"]
    metrics = {
        "client.invoke_ms": per_message_ms(result["total_ns"]),
        **{f"{name}_ms": per_message_ms(self_ns.get(name, 0.0)) for name in SPAN_METRICS},
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_ms"] = per_message_ms(
            sum(ns for name, ns in self_ns.items() if name.split(".")[0] == layer)
        )
    counters = dict(dumped["counters"])
    for name, value in recorder.counters.items():
        counters[name] = counters.get(name, 0) + value
    container, endpoint, pool = stats["container"], stats["endpoint"], stats["app_pool"]
    plain_p50 = _latency(plain)["latency_p50_ms"]
    metrics.update({
        "xmlcore.bytes_per_call": counters.get("xmlcore.bytes", 0) / calls,
        "http.wire_bytes_per_call": counters.get("http.wire_bytes", 0) / calls,
        "http.requests_per_connection":
            stats["requests_served"] / max(stats["connections_accepted"], 1),
        # every connection the server accepted but the readiness probe's
        "transport.connections_opened": stats["connections_accepted"] - 1,
        "server.entries_per_message":
            container["entries_executed"] / max(endpoint["soap_messages"], 1),
        "server.fanout_share": pool["submitted"] / max(container["entries_executed"], 1),
        "server.rejected": pool["rejected"],
        "trace.unattributed_pct": 100.0 * result["unattributed_ns"] / max(result["total_ns"], 1),
        "trace.overhead_pct":
            100.0 * (_latency(traced)["latency_p50_ms"] - plain_p50) / plain_p50,
        "loadgen.latency_p99_ms": _latency(plain)["latency_p99_ms"],
        "loadgen.send_lag_p99_ms":
            1000.0 * _percentile(sorted(plain.send_lags), 99) if plain.send_lags else 0.0,
        "_bases": {
            "messages traced": result["messages"],
            "calls traced": traced.calls,
            "server spans of untraced calls, dropped": dropped,
            "requests_served / connections_accepted":
                f"{stats['requests_served']} / {stats['connections_accepted']}",
            "entries_executed / soap_messages":
                f"{container['entries_executed']} / {endpoint['soap_messages']}",
            "app_pool submitted / entries_executed":
                f"{pool['submitted']} / {container['entries_executed']}",
            "untraced p50 ms (overhead base)": round(plain_p50, 4),
        },
    })
    return metrics


def _print_report(workload, seed, trace, metrics, units, oracle, setups) -> None:
    shape = (
        f"open loop {workload.rate_per_s:g} msg/s over {workload.connections} connections"
        if workload.loop == "open"
        else f"closed loop, {workload.connections} connection"
    )
    pack = f"M={workload.entries}" if workload.entries else "unpacked"
    print(f"== {workload.name}  seed {seed}  {'traced' if trace else 'untraced'}: "
          f"{shape}, {pack} {workload.operation}, {workload.payload_bytes} B payloads")
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:>14.4f} {unit}")
    if not trace:
        print(f"  {'latency_p99_ms':<32} {metrics['latency_p99_ms']:>14.4f} ms")
        print(f"  {'fail_pct':<32} {100.0 - metrics['success_pct']:>14.4f} %")
        print(f"  latency samples: {metrics['_samples']} messages; "
              f"set-up samples: {', '.join(f'{s:.3f}' for s in setups)} s")
        if metrics["_steal_pct"] is not None:
            # a virtual machine's stolen time slows every timed metric
            print(f"  CPU steal during the window: {metrics['_steal_pct']:.1f} %")
        stats = metrics["_stats"]
        print(f"  server.stats(): requests_served {stats['requests_served']}, "
              f"connections_accepted {stats['connections_accepted']}, "
              f"entries_executed {stats['container']['entries_executed']}, "
              f"app_pool submitted {stats['app_pool']['submitted']}")
    else:
        for base, value in metrics["_bases"].items():
            print(f"  base: {base} = {value}")
    print(f"  calls attempted {oracle.attempted}: faults {oracle.faults}, "
          f"timeouts {oracle.timeouts}, wrong {oracle.mismatches}")


def _timeout(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S}s")


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    sys.exit(main())

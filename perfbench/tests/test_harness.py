"""The server process starts, answers commands, stops and can be killed."""

from perfbench.harness import ServerProcess


def test_lifecycle_is_timed_from_outside():
    server = ServerProcess()
    try:
        setup_s = server.start("probe&<>\"")
        assert setup_s > 0
        usage = server.command("usage")
        assert usage["cpu_s"] > 0 and usage["maxrss_kb"] > 0
        assert usage["stats"]["connections_accepted"] == 1
        stop_s = server.stop()
        assert stop_s > 0 and server.process.returncode == 0
    finally:
        server.kill()


def test_kill_reaps_a_running_server():
    server = ServerProcess()
    server.start("probe")
    server.kill()
    assert server.process.poll() is not None
    assert server.process.stdin.closed and server.process.stdout.closed

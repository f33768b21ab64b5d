"""The echo server process the benchmark drives.

Run by ``run.py`` as ``python3 perfbench/server.py``.  It builds the
server from the ``ServerConfig`` defaults (staged architecture,
threaded backend, observability off) with the echo service and
``spi_server_handlers()``, prints one JSON line
``{"ready": [host, port]}`` and then answers one JSON command per stdin
line, one JSON line each:

* ``{"cmd": "usage"}`` - process CPU seconds, peak RSS and ``stats()``;
* ``{"cmd": "trace"}`` - start recording spans (see ``tracing.py``);
* ``{"cmd": "untrace"}`` - stop recording them;
* ``{"cmd": "dump", "path": ...}`` - write the recorded spans there;
* ``{"cmd": "stop"}`` - call the server's ``stop()`` and exit, without
  a reply: the parent times this from outside.

End of input means stop too, so the server never outlives its parent.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.apps.echo import make_echo_service  # noqa: E402
from repro.core.dispatcher import spi_server_handlers  # noqa: E402
from repro.server import ServerConfig, build_server  # noqa: E402
from repro.server.handlers import HandlerChain  # noqa: E402

from perfbench import tracing  # noqa: E402


def build():
    """The benchmarked deployment: defaults plus the SPI handler pair."""
    return build_server(ServerConfig(
        services=[make_echo_service()],
        chain=HandlerChain(spi_server_handlers()),
    ))


def usage(server) -> dict:
    return {
        "cpu_s": time.process_time(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stats": server.stats(),
    }


def main() -> int:
    server = build()
    host, port = server.start()[:2]
    reply({"ready": [host, port]})
    recorder = tracing.SpanRecorder(first_id=tracing.SERVER_ID_BASE)
    patches = None
    for line in sys.stdin:
        command = json.loads(line)
        name = command["cmd"]
        if name == "stop":
            break
        if name == "usage":
            reply(usage(server))
        elif name == "trace":
            if patches is None:
                patches = tracing.install_server(recorder)
            reply({"ok": True})
        elif name == "untrace":
            if patches is not None:
                patches.restore()
                patches = None
            reply({"ok": True})
        elif name == "dump":
            Path(command["path"]).write_text(json.dumps(
                {"spans": recorder.spans, "counters": dict(recorder.counters)}
            ))
            reply({"spans": len(recorder.spans)})
        else:
            reply({"error": f"unknown command {name!r}"})
    server.stop()
    return 0


def reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())

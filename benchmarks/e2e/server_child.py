"""The TCP server of ``ch_mixed_tcp``, in its own process.

Client and server must not share an interpreter lock, or the benchmark
would measure the load generator's threads competing with the engine's.
This process builds the CH hybrid database exactly as ``repro serve``
does (``SessionManager`` with four morsel workers, I/O replay off, hot
statements), binds an ephemeral port, prints it, and then answers JSON
commands on stdin: ``built``, ``stats``, ``trace_on``, ``trace_off``. EOF
on stdin shuts it down.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import harness
from trace import Tracer

from repro.server.bench import build_ch_database
from repro.server.frontend import ReproServer
from repro.server.session import SessionManager

#: ``repro serve``'s default (``--morsel-workers``).
MORSEL_WORKERS = 4


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--warehouses", type=int, default=2)
    args = parser.parse_args()
    database = build_ch_database(n_warehouses=args.warehouses)
    manager = SessionManager(database, morsel_workers=MORSEL_WORKERS)
    server = ReproServer(manager, port=0)
    server.serve_background()
    tracer = None
    try:
        print(json.dumps({"port": server.server_address[1]}), flush=True)
        for line in sys.stdin:
            request = json.loads(line)
            command = request["command"]
            if command == "stats":
                reply = {
                    "counters": harness.engine_counters(database, manager),
                    "cpu_s": time.process_time(),
                    "rss_mib": harness.peak_rss_mib(),
                    "delta_rows": harness.delta_rows(database),
                }
            elif command == "built":
                reply = {"cpu_s": time.process_time(),
                         "speed_sample_s": harness.steady_speed_sample()}
            elif command == "trace_on":
                tracer = Tracer()
                tracer.install()
                reply = {"ok": True}
            elif command == "trace_off":
                tracer.uninstall()
                with open(request["path"], "w") as f:
                    json.dump(tracer.chrome_trace(), f)
                reply = tracer.summary("Session.execute")
                tracer = None
            else:
                reply = {"error": f"unknown command {command!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        if tracer is not None:
            tracer.uninstall()
        server.shutdown()
        server.server_close()
        manager.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

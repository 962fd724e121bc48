"""Line-protocol TCP frontend over the session manager.

``python -m repro serve`` binds a ``ThreadingTCPServer``; every client
connection gets its own thread and its own
:class:`~repro.server.session.Session`, so the socket layer is nothing
but transport — all concurrency semantics live in the session and
scheduler modules.

Protocol (deliberately trivial, one line each way):

* client sends one statement per line (UTF-8, newline-terminated):
  plain SQL, or a JSON object ``{"sql": "... ? ...", "params": [...]}``
  whose values fill the text's ``?`` markers in order (a repeated text
  then reuses its parse, and an equality lookup its plan);
* server replies with one JSON object per line:
  ``{"ok": true, "columns": [...], "rows": [...], "rows_affected": n,
  "elapsed_ms": modeled, "session": id}`` or
  ``{"ok": false, "error": "..."}`` — also for a JSON line that is
  malformed or whose ``params`` do not match the ``?`` count, after
  which the connection stays open;
* an empty line (or EOF) closes the session;
* a line longer than :data:`MAX_STATEMENT_BYTES` gets one
  ``{"ok": false, ...}`` reply and the connection is closed (the stream
  cannot be resynchronised mid-line).

Try it with ``nc localhost 5433``.
"""

from __future__ import annotations

import json
import socketserver
import threading
from typing import Optional, Sequence, Tuple

from repro.server.session import SessionManager

DEFAULT_PORT = 5433

#: Longest statement line accepted, newline included.
MAX_STATEMENT_BYTES = 1 << 20


def _request(line: str) -> Tuple[str, Sequence[object]]:
    """``(sql, params)`` of one request line (ValueError when a JSON
    line is not a request object)."""
    if not line.startswith("{"):
        return line, ()
    try:
        request = json.loads(line)
    except ValueError:
        raise ValueError("malformed JSON request line") from None
    if not (isinstance(request, dict) and isinstance(request.get("sql"), str)
            and isinstance(request.get("params", []), list)):
        raise ValueError(
            'a JSON request line is {"sql": "...", "params": [...]}')
    return request["sql"], request.get("params", [])


class _SessionHandler(socketserver.StreamRequestHandler):
    """One thread per connection; one session per connection."""

    def handle(self) -> None:
        manager: SessionManager = self.server.manager  # type: ignore[attr-defined]
        with manager.session(cold=self.server.cold) as session:  # type: ignore[attr-defined]
            self._reply({"ok": True, "session": session.session_id,
                         "server": manager.database.name})
            while True:
                raw = self.rfile.readline(MAX_STATEMENT_BYTES + 1)
                if len(raw) > MAX_STATEMENT_BYTES:
                    session.stats.errors += 1
                    self._reply({
                        "ok": False, "session": session.session_id,
                        "error": f"statement longer than "
                                 f"{MAX_STATEMENT_BYTES} bytes"})
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    break
                try:
                    sql, params = _request(line)
                except ValueError as exc:
                    session.stats.errors += 1
                    self._reply({"ok": False, "error": str(exc),
                                 "session": session.session_id})
                    continue
                try:
                    result = session.execute(sql, params)
                    self._reply({
                        "ok": True,
                        "session": session.session_id,
                        "columns": result.columns,
                        "rows": [list(row) for row in result.rows],
                        "rows_affected": result.rows_affected,
                        "elapsed_ms": round(result.metrics.elapsed_ms, 4),
                    })
                except Exception as exc:  # noqa: BLE001 - report to client
                    self._reply({"ok": False, "error": str(exc),
                                 "session": session.session_id})

    def _reply(self, payload: dict) -> None:
        self.wfile.write(
            (json.dumps(payload, default=str) + "\n").encode("utf-8"))
        self.wfile.flush()


class ReproServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server bound to one :class:`SessionManager`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, manager: SessionManager, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT, cold: bool = False):
        super().__init__((host, port), _SessionHandler)
        self.manager = manager
        self.cold = cold

    def serve_background(self) -> threading.Thread:
        """Start serving on a daemon thread; returns the thread."""
        thread = threading.Thread(target=self.serve_forever,
                                  name="repro-serve", daemon=True)
        thread.start()
        return thread


def serve(manager: SessionManager, host: str = "127.0.0.1",
          port: int = DEFAULT_PORT, cold: bool = False,
          forever: bool = True) -> Optional[ReproServer]:
    """Bind and serve; with ``forever=False`` returns the running server
    (serving on a background thread) instead of blocking."""
    server = ReproServer(manager, host=host, port=port, cold=cold)
    if forever:
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        return None
    server.serve_background()
    return server

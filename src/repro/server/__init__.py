"""Multi-session serving layer.

This package turns the single-statement engine into something that can
serve many concurrent clients:

* :mod:`repro.server.session` — :class:`SessionManager` /
  :class:`Session`: one session per client, each with its own
  :class:`~repro.engine.executor.Executor`, statement clock stamps, and
  per-session settings (encoded execution, run temperature). Each
  statement, its columnstore scans included, runs on its session's
  thread.
* :mod:`repro.server.scheduler` — admission control: a byte-budgeted
  :class:`MemoryGrantPool` reusing the engine's memory-grant sizing, and
  a reader/writer :class:`DatabaseLatch` serializing DML against reads.
* :mod:`repro.server.frontend` — a line-protocol TCP frontend
  (``python -m repro serve``).
* :mod:`repro.server.bench` — :func:`build_ch_database`, the hybrid-design
  CH database ``serve``, the tests and the e2e benchmark share.

Shared-state ownership rules (enforced by the bugfixes that shipped with
this package) are documented in DESIGN.md's "Serving layer" section.
"""

from repro.server.scheduler import AdmissionController, MemoryGrantPool
from repro.server.session import Session, SessionManager

__all__ = [
    "AdmissionController",
    "MemoryGrantPool",
    "Session",
    "SessionManager",
]

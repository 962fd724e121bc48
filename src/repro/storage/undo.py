"""Statement undo log: the one way a failed write statement is undone.

A :class:`~repro.storage.table.Table` hands one :class:`UndoLog` to
every structure it owns (heap, B+ trees, columnstores) and opens it
around each write statement. A structure records the *physical* inverse
of each step right after the step changed it — an entry removed or put
back, a delete-bitmap slot unmasked with its locator, a delete-buffer
rid discarded, a delta row removed or re-inserted, a tuple move swapped
back — and if the statement fails the table replays the log newest
first, so every structure is left exactly as the statement found it
(statement rollback as in ARIES; Mohan et al., TODS 1992).

Outside an open log — a structure used on its own, a bulk build, a
snapshot restore, explicit maintenance — nothing is recorded, and a
structure that fails part way stays as the failure left it.
"""

from __future__ import annotations

from typing import Callable, List, Tuple


class UndoLog:
    """The inverses recorded since the log was opened, oldest first."""

    __slots__ = ("entries", "is_open", "rows")

    def __init__(self) -> None:
        self.entries: List[Tuple[Callable, tuple]] = []
        self.is_open = False
        #: Rows the open statement's write calls have changed so far.
        self.rows = 0

    def record(self, inverse: Callable, *args) -> None:
        """Note that ``inverse(*args)`` undoes the step just taken."""
        if self.is_open:
            self.entries.append((inverse, args))

    def close(self) -> None:
        """End the statement: forget its inverses and its row count."""
        self.entries = []
        self.is_open = False
        self.rows = 0

    def undo(self) -> None:
        """Run the inverses newest first, then :meth:`close`. The log is
        closed first, so an inverse that goes through a recording method
        records nothing."""
        entries = self.entries
        self.close()
        for inverse, args in reversed(entries):
            inverse(*args)

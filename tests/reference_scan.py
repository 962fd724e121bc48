"""The decoded scan: the test oracle for encoded execution.

Columnstore scans always hand dictionary-coded segments to the operators
as :class:`~repro.engine.encoded.EncodedColumn` values. The scan builds
one only where ``ColumnSegment.code_space()`` returns a code space, so
making that method return ``None`` makes every segment decode up front:
the plain-array execution the code-space paths must agree with, in rows
and in every modeled metric.
"""

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

from repro.storage.compression import ColumnSegment


@contextmanager
def decoded_scans() -> Iterator[None]:
    """Within the block, columnstore scans decode every segment."""
    with mock.patch.object(ColumnSegment, "code_space", lambda self: None):
        yield


@contextmanager
def scans(encoded: bool) -> Iterator[None]:
    """Encoded scans (the engine as shipped) or :func:`decoded_scans`."""
    if encoded:
        yield
    else:
        with decoded_scans():
            yield

"""Helpers shared by the test modules."""

import io

from prccsl import write_trace


def csv_text(trace) -> str:
    """The CSV text that ``write_trace`` writes for ``trace``."""
    buffer = io.StringIO()
    write_trace(trace, buffer)
    return buffer.getvalue()

"""Trace serialization: dense 0/1 CSV with an explicit step column.

Format:

    step,<clk1>,<clk2>,...
    0,0,1,...
    1,1,0,...

LF line endings, no quoting (clock names are identifiers), row r holds
step index r.  The explicit step column is redundant but catches
truncated or reordered files cheaply.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from contextlib import contextmanager
from os import PathLike
from typing import IO, Any, Iterator, Union

from .clocks import Trace
from .errors import DeclarationError, TraceFormatError

__all__ = ["write_trace", "read_trace"]

Source = Union[str, PathLike, IO[str]]

_BLOCK_ROWS = 8192  # rows rendered per write; bounds the writer's buffer


@contextmanager
def _opened(target: Source, mode: str) -> Iterator[IO[str]]:
    if isinstance(target, (str, PathLike)):
        with open(target, mode, encoding="utf-8", newline="") as handle:
            yield handle
    else:
        yield target


def write_trace(trace: Trace, sink: Source) -> None:
    """Write ``trace`` as canonical CSV to a path or text stream.

    Rows are rendered a block at a time straight from the date lists:
    a block starts as all-"0" cells and only its ticks become "1".
    """
    clocks = trace.clocks
    width = 2 * len(clocks) + 1  # ",0" per clock, then the newline
    blank_row = b",0" * len(clocks) + b"\n"
    n = len(trace)
    with _opened(sink, "w") as out:
        out.write(",".join(("step", *clocks)) + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            cells = bytearray(blank_row * (stop - start))
            for col, clock in enumerate(clocks):
                dates = trace.dates(clock)
                offset = 2 * col + 1 - start * width
                for step in dates[bisect_left(dates, start):bisect_left(dates, stop)]:
                    cells[step * width + offset] = 49  # ord("1")
            text = cells.decode("ascii")
            rows = range(stop - start)
            out.write("".join([f"{start + r}{text[r * width:(r + 1) * width]}" for r in rows]))


def read_trace(source: Source) -> Trace:
    """Parse a trace CSV, validating structure cell by cell.

    Raises TraceFormatError (with the 1-based line number) on a
    malformed header, a non-0/1 cell, a ragged row, a step index
    that does not match the row position, or a line the csv module
    cannot parse.  A UTF-8 byte order mark before the header is
    skipped.
    """
    with _opened(source, "r") as handle:
        reader = csv.reader(handle)
        try:
            return _read_rows(reader)
        except csv.Error as exc:
            raise TraceFormatError(str(exc), reader.line_num) from None


def _read_rows(reader: Any) -> Trace:
    try:
        header = next(reader)
    except StopIteration:
        raise TraceFormatError("missing header row", 1) from None
    if not header or header[0].removeprefix("\ufeff") != "step":
        raise TraceFormatError("header must start with 'step'", 1)
    clocks = header[1:]
    try:
        Trace(clocks)
    except DeclarationError as exc:
        raise TraceFormatError(f"bad header: {exc}", 1) from None
    width = len(header)
    columns: list[list[int]] = [[] for _ in clocks]
    step = 0
    for row in reader:
        line = reader.line_num
        if len(row) != width:
            raise TraceFormatError(
                f"row has {len(row)} fields, expected {width}", line
            )
        if row[0] != str(step):
            raise TraceFormatError(
                f"non-consecutive step index {row[0]!r}, expected {step}", line
            )
        for dates, cell in zip(columns, row[1:]):
            if cell == "1":
                dates.append(step)
            elif cell != "0":
                raise TraceFormatError("cell must be 0 or 1", line)
        step += 1
    return Trace.from_dates(clocks, step, dict(zip(clocks, columns)))


def trace_to_string(trace: Trace) -> str:
    """Render a trace to its canonical CSV text."""
    buffer = io.StringIO()
    write_trace(trace, buffer)
    return buffer.getvalue()

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
from itertools import chain, compress, islice
from operator import itemgetter, ne
from os import PathLike
from typing import IO, Any, Iterator, Union

from .clocks import Trace
from .errors import DeclarationError, TraceFormatError

__all__ = ["read_trace", "write_trace", "trace_to_string"]

Source = Union[str, PathLike, IO[str]]

_BLOCK_ROWS = 8192  # rows rendered per write or checked per read; bounds buffers
_CELL_BITS = bytes.maketrans(b"01", b"\0\1")


@contextmanager
def _opened(target: Source, mode: str) -> Iterator[IO[str]]:
    if isinstance(target, (str, PathLike)):
        with open(target, mode, encoding="utf-8", newline="") as handle:
            yield handle
    else:
        yield target


def write_trace(trace: Trace, sink: Source) -> None:
    """Write ``trace`` as canonical CSV to a path or text stream.

    Rows go out in segments of at most ``_BLOCK_ROWS`` rows that never
    cross a power of ten, so all rows of a segment have one width.  In a
    segment's buffer of "0" cells, each step digit position is one strided
    assignment of its repeating digit pattern, and so is "1" for a clock
    ticking on every row; other ticks are set a byte each.
    """
    clocks = trace.clocks
    with _opened(sink, "w") as out:
        out.write(",".join(("step", *clocks)) + "\n")
        start = 0
        while start < len(trace):
            digits = len(str(start))
            stop = min(start + _BLOCK_ROWS, len(trace), 10**digits)
            width = digits + 2 * len(clocks) + 1  # the step, ",0" per clock, "\n"
            cells = bytearray((b"0" * digits + b",0" * len(clocks) + b"\n") * (stop - start))
            for pos in range(digits):
                cells[pos::width] = _digit_column(start, stop, 10 ** (digits - 1 - pos))
            for offset, dates in zip(range(digits + 1, width, 2), map(trace.dates, clocks)):
                lo, hi = bisect_left(dates, start), bisect_left(dates, stop)
                if hi - lo == stop - start:
                    cells[offset::width] = b"1" * (stop - start)
                    continue
                offset -= start * width
                for step in dates[lo:hi]:
                    cells[step * width + offset] = 49  # ord("1")
            out.write(cells.decode("ascii"))
            start = stop


def _digit_column(start: int, stop: int, unit: int) -> bytes:
    """The ASCII digit at place value ``unit`` of each step in [start, stop)."""
    if 10 * unit <= stop - start:  # whole cycles "0..01..1...9..9": tile one
        cycle = b"".join(b"%d" % d * unit for d in range(10))
        return (cycle * ((stop - start) // len(cycle) + 2))[start % len(cycle):][:stop - start]
    return b"".join(  # at most eleven runs, one per value of step // unit
        b"%d" % (q % 10) * (min(stop, q * unit + unit) - max(start, q * unit))
        for q in range(start // unit, (stop - 1) // unit + 1)
    )


def read_trace(source: Source) -> Trace:
    """Parse a trace CSV, validating its structure.

    The body is read ``_BLOCK_ROWS`` lines at a time.  A block of
    canonical rows (exactly ``str(step)`` then ``",0"`` or ``",1"`` per
    clock and a newline, as ``write_trace`` renders them) is accepted
    by whole-block string checks and its ticks are found with
    ``str.find``.  The first block that is not canonical, and every
    line after it, goes through ``csv.reader`` row by row, which
    handles quoting and CRLF line ends and raises every format error.

    Raises TraceFormatError (with the 1-based line number) on a
    malformed header, a non-0/1 cell, a ragged row, a step index
    that does not match the row position, or a line the csv module
    cannot parse.  A UTF-8 byte order mark before the header is
    skipped.
    """
    with _opened(source, "r") as handle:
        reader = csv.reader(handle)
        try:
            clocks = _read_header(reader)
        except csv.Error as exc:
            raise TraceFormatError(str(exc), reader.line_num) from None
        header_lines = reader.line_num
        columns: list[list[int]] = [[] for _ in clocks]
        step = 0
        while block := list(islice(handle, _BLOCK_ROWS)):
            if not _take_block(block, step, columns):
                offset = header_lines + step
                reader = csv.reader(chain(block, handle))
                try:
                    step = _read_rows(reader, step, offset, columns)
                except csv.Error as exc:
                    raise TraceFormatError(str(exc), offset + reader.line_num) from None
                break
            step += len(block)
    return Trace.from_dates(clocks, step, dict(zip(clocks, columns)))


def _read_header(reader: Any) -> list[str]:
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
    return clocks


def _take_block(lines: list[str], step: int, columns: list[list[int]]) -> bool:
    """Add the ticks of ``lines`` to ``columns`` if every line is canonical.

    Returns False, leaving ``columns`` unchanged, when any line is not
    exactly its step index followed by one ",0" or ",1" per column and
    a newline.
    """
    n = len(lines)
    width = 2 * len(columns) + 1
    if any(map(ne, map(itemgetter(slice(None, -width)), lines), map(str, range(step, step + n)))):
        return False
    text = "".join(map(itemgetter(slice(-width, None)), lines))
    if len(text) != n * width or text[width - 1::width].count("\n") != n:
        return False
    cells = []
    for col in range(len(columns)):
        vals = text[2 * col + 1::width]
        ones = vals.count("1")
        if text[2 * col::width].count(",") != n or vals.count("0") + ones != n:
            return False
        cells.append((vals, ones))
    for dates, (vals, ones) in zip(columns, cells):
        if 16 * ones > n:
            dates.extend(compress(range(step, step + n), vals.encode().translate(_CELL_BITS)))
            continue
        pos = vals.find("1")
        while pos >= 0:
            dates.append(step + pos)
            pos = vals.find("1", pos + 1)
    return True


def _read_rows(reader: Any, step: int, lines_before: int, columns: list[list[int]]) -> int:
    """Add the ticks of the rows ``reader`` yields from ``step`` on.

    Returns the step count at the end.  ``lines_before`` is the number
    of file lines before the reader's first, for error line numbers.
    """
    width = len(columns) + 1
    for row in reader:
        line = lines_before + reader.line_num
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
    return step


def trace_to_string(trace: Trace) -> str:
    """Render a trace to its canonical CSV text."""
    buffer = io.StringIO()
    write_trace(trace, buffer)
    return buffer.getvalue()

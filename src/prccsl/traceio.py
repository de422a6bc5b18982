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

import io
from bisect import bisect_left
from contextlib import contextmanager
from itertools import accumulate, chain, compress
from operator import add
from os import PathLike
from typing import IO, Any, Iterator, Union

from .clocks import Trace
from .errors import DeclarationError, TraceFormatError, bad_utf8_position

__all__ = ["read_trace", "write_trace", "trace_to_string"]

Source = Union[str, PathLike, IO[str]]

_BLOCK_ROWS = 8192  # rows rendered per write or checked per read; bounds buffers
_CELL_BITS = bytes.maketrans(b"01", b"\0\1")


@contextmanager
def _opened(target: Source, mode: str) -> Iterator[IO[str]]:
    if isinstance(target, (str, PathLike)):
        with open(target, mode, encoding="utf-8", newline="") as handle:
            try:
                yield handle
            except UnicodeDecodeError:
                raise TraceFormatError("not valid UTF-8", bad_utf8_position(target)[0]) from None
    else:
        yield target


def write_trace(trace: Trace, sink: Source) -> None:
    """Write ``trace`` as canonical CSV to a path or text stream.

    Rows go out in segments of at most ``_BLOCK_ROWS`` rows that never
    cross a power of ten, so all rows of a segment have one width.  Each
    segment starts as its ``_blank``, the layout ``read_trace`` checks
    input against; a clock ticking on every row is one strided "1"
    assignment, other ticks are set a byte each.
    """
    clocks = trace.clocks
    with _opened(sink, "w") as out:
        out.write(",".join(("step", *clocks)) + "\n")
        start = 0
        while start < len(trace):
            digits = len(str(start))
            stop = min(start + _BLOCK_ROWS, len(trace), 10**digits)
            width = digits + 2 * len(clocks) + 1  # the step, ",0" per clock, "\n"
            cells = _blank(start, stop, len(clocks))
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


def _blank(start: int, stop: int, clocks: int) -> bytearray:
    """Canonical rows for steps [start, stop), all of one digit count, with every cell "0"."""
    digits = len(str(start))
    width = digits + 2 * clocks + 1
    cells = bytearray((b"0" * digits + b",0" * clocks + b"\n") * (stop - start))
    for pos in range(digits):
        cells[pos::width] = _digit_column(start, stop, 10 ** (digits - 1 - pos))
    return cells


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

    A path and a text stream are read alike: every line, the header's
    too, ends at "\n", "\r" or "\r\n", whatever the stream's own line
    splitting.  The body is read in the segments ``write_trace`` writes.
    A segment is canonical when it is ASCII, has its ``_blank``'s step
    digits and equals the blank once "1" reads "0"; each column's ticks
    then come from its strided slice.  From the first segment that is
    not, every line goes through ``csv.reader``, which handles quoting
    and CRLF line ends and raises every format error.

    Raises TraceFormatError (with the 1-based line number) on a malformed
    header, a non-0/1 cell, a ragged row, a step index that does not match
    the row position, a line the csv module cannot parse, or a file that
    is not UTF-8.  A UTF-8 byte order mark before the header is skipped.
    """
    import csv  # here, not at the top: the write path never needs it

    with _opened(source, "r") as handle:
        first = io.StringIO(handle.readline(), newline="")  # a stream may end lines at "\n" only
        reader = csv.reader(chain(first, handle))
        try:
            clocks = _read_header(reader)
        except csv.Error as exc:
            raise TraceFormatError(str(exc), reader.line_num) from None
        header_lines = reader.line_num
        if rest := first.read():  # the body began inside the stream's first line
            handle = io.StringIO(rest + handle.read(), newline="")
        columns: list[list[int]] = [[] for _ in clocks]
        step = 0
        while True:
            digits = len(str(step))
            width = digits + 2 * len(clocks) + 1
            text = handle.read((min(step + _BLOCK_ROWS, 10**digits) - step) * width)
            if not text:
                break
            seg = text.encode("ascii", "replace")  # other text is not canonical
            rows = len(seg) // width
            blank = _blank(step, step + rows, len(clocks))
            if (  # equal with "1" read as "0": whole rows, commas, newlines, 0/1 cells
                any(seg[pos::width] != blank[pos::width] for pos in range(digits))
                or seg.replace(b"1", b"0") != blank.replace(b"1", b"0")
            ):
                offset = header_lines + step
                chunks = chain([text], iter(lambda: handle.read(len(text)), ""))
                lines = (io.StringIO(chunk + handle.readline(), newline="") for chunk in chunks)
                reader = csv.reader(chain.from_iterable(lines))
                try:
                    step = _read_rows(reader, step, offset, columns)
                except csv.Error as exc:
                    raise TraceFormatError(str(exc), offset + reader.line_num) from None
                break
            for dates, offset in zip(columns, range(digits + 1, width, 2)):
                cells = seg[offset::width]
                ones = cells.count(b"1")
                if 16 * ones > rows:
                    dates.extend(compress(range(step, step + rows), cells.translate(_CELL_BITS)))
                else:  # the i-th "1" follows i earlier ones and the gaps before it
                    gaps = map(len, cells.split(b"1"))
                    dates.extend(map(add, accumulate(gaps), range(step, step + ones)))
            step += rows
    return Trace._from_sorted(clocks, step, dict(zip(clocks, columns)))


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

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
from typing import IO, Any, Iterable, Iterator, Union

from . import _EXPORTS
from .clocks import Trace
from .errors import DeclarationError, TraceFormatError, bad_utf8_position

__all__ = _EXPORTS["traceio"]

Source = Union[str, PathLike, IO[str]]

_BLOCK_ROWS = 8192  # rows rendered per write or checked per read; bounds buffers
_BLOCK_BYTES = 1 << 20  # and so do bytes, however wide the rows
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

    Rows go out in segments of at most ``_BLOCK_ROWS`` rows and
    ``_BLOCK_BYTES`` bytes (or one row) that never cross a power of ten,
    so all rows of a segment have one width.  Each segment starts as its
    ``_blank``, the layout ``read_trace`` checks input against; a clock
    ticking on every row is one strided "1" assignment, other ticks are
    set a byte each.
    """
    clocks = trace.clocks
    with _opened(sink, "w") as out:
        out.write(",".join(("step", *clocks)) + "\n")
        start = 0
        while start < len(trace):
            digits = len(str(start))
            width = digits + 2 * len(clocks) + 1  # the step, ",0" per clock, "\n"
            stop = min(start + min(_BLOCK_ROWS, max(1, _BLOCK_BYTES // width)), len(trace), 10**digits)
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


def read_trace(source: Source, clocks: Iterable[str] | None = None) -> Trace:
    """Parse a trace CSV, validating its structure.

    A path and a text stream are read alike: every line, the header's
    too, ends at "\n", "\r" or "\r\n", whatever the stream's own line
    splitting.  The body is read in the segments ``write_trace`` writes,
    as bytes: from a path's binary buffer, or ASCII-encoded from a text
    stream.  A segment is canonical when it is ASCII, has the step
    digits ``write_trace`` gives its rows and, once "1" reads "0",
    equals a template of rows of "0" cells kept per digit count and row
    count, into which only the step digits are written.  Each column's
    ticks then come from its strided slice, and columns ticking on more
    than one row in 16 take their dates from one list of the segment's
    steps, so they share its int objects.  A column that ticks on every
    row gets no list at all: it is ``range(steps)``.  From the first
    segment that is not canonical, every line goes through
    ``csv.reader`` (a path is read on as text from that segment's first
    byte), which handles quoting and CRLF line ends and raises every
    format error.

    ``clocks`` names the clocks to keep, by default all of them.  Every
    cell of every column is validated either way, but only the kept
    clocks get date lists: the trace holds the header's clocks that
    ``clocks`` names, in header order, and names the header lacks are
    ignored.

    Raises TraceFormatError (with the 1-based line number) on a malformed
    header, a non-0/1 cell, a ragged row, a step index that does not match
    the row position, a line the csv module cannot parse, or a file that
    is not UTF-8.  A UTF-8 byte order mark before the header is skipped.
    """
    import csv  # here, not at the top: the write path never needs it

    if isinstance(clocks, str):  # would keep the clocks named by its letters
        raise TypeError(f"clocks must be clock names, not one str: {clocks!r}")
    with _opened(source, "r") as handle:
        line = handle.readline()
        first = io.StringIO(line, newline="")  # a stream may end lines at "\n" only
        reader = csv.reader(chain(first, handle))
        try:
            header = _read_header(reader)
        except csv.Error as exc:
            raise TraceFormatError(str(exc), reader.line_num) from None
        header_lines = reader.line_num
        read = None  # a path's body bytes come from its buffer, not through the text layer
        if rest := first.read():  # the body began inside the stream's first line
            handle = io.StringIO(rest + handle.read(), newline="")
        elif isinstance(source, (str, PathLike)) and handle.seekable():
            handle.buffer.seek(len(line.encode("utf-8")))  # the body's first byte
            read = handle.buffer.read
        wanted = set(header if clocks is None else clocks)
        dates: dict[str, list[int]] = {name: [] for name in header if name in wanted}
        columns = [(index, name, dates[name]) for index, name in enumerate(header) if name in dates]
        full = set(dates)  # the kept clocks that ticked on every row so far; their lists wait empty
        templates: dict[tuple[int, int], bytearray] = {}  # (digits, rows) -> rows of "0" cells
        step = 0
        while True:
            digits = len(str(step))
            width = digits + 2 * len(header) + 1
            size = (min(step + min(_BLOCK_ROWS, max(1, _BLOCK_BYTES // width)), 10**digits) - step) * width
            if read is None:
                text = handle.read(size)
                seg = text.encode("ascii", "replace")  # other text is not canonical
            else:
                seg = read(size)
            if not seg:
                break
            rows = len(seg) // width
            template = templates.get((digits, rows))
            if template is None:
                template = templates[digits, rows] = bytearray((b"0" * digits + b",0" * len(header) + b"\n") * rows)
            canonical = True
            for pos in range(digits):  # the step digits as they are, and in the template with "1" as "0"
                digit = _digit_column(step, step + rows, 10 ** (digits - 1 - pos))
                canonical = canonical and seg[pos::width] == digit
                template[pos::width] = digit.replace(b"1", b"0")
            # equal with "1" read as "0": whole rows, commas, newlines, 0/1 cells
            if not canonical or seg.replace(b"1", b"0") != template:
                for name in full:  # they ticked on every row before this segment
                    dates[name].extend(range(step))
                full.clear()
                if read is not None:  # go on as text from the segment's first byte:
                    # a segment starts a line, where the decoder holds no state,
                    # so the byte offset is the text handle's own seek cookie
                    handle.seek(handle.buffer.tell() - len(seg))
                    text = handle.read(size)
                offset = header_lines + step
                chunks = chain([text], iter(lambda: handle.read(len(text)), ""))
                lines = (io.StringIO(chunk + handle.readline(), newline="") for chunk in chunks)
                reader = csv.reader(chain.from_iterable(lines))
                try:
                    step = _read_rows(reader, step, offset, len(header), [(i, ticks) for i, _, ticks in columns])
                except csv.Error as exc:
                    raise TraceFormatError(str(exc), offset + reader.line_num) from None
                break
            steps: list[int] = []  # the segment's steps, made once for the dense columns
            for index, name, ticks in columns:
                cells = seg[digits + 1 + 2 * index::width]
                ones = cells.count(b"1")
                if name in full:
                    if ones == rows:
                        continue
                    full.remove(name)
                    ticks.extend(range(step))
                if 16 * ones > rows:
                    steps = steps or list(range(step, step + rows))
                    ticks.extend(steps if ones == rows else compress(steps, cells.translate(_CELL_BITS)))
                else:  # the i-th "1" follows i earlier ones and the gaps before it
                    gaps = map(len, cells.split(b"1"))
                    ticks.extend(map(add, accumulate(gaps), range(step, step + ones)))
            step += rows
    dates.update(dict.fromkeys(full, range(step)))  # _from_sorted makes a list of every step one too
    return Trace._from_sorted(list(dates), step, dates)


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


def _read_rows(
    reader: Any, step: int, lines_before: int, clocks: int, columns: list[tuple[int, list[int]]]
) -> int:
    """Validate the rows ``reader`` yields from ``step`` on and add their ticks.

    Each row has ``clocks`` cells; ``columns`` pairs the index of each
    kept cell with its date list.  Returns the step count at the end.
    ``lines_before`` is the number of file lines before the reader's
    first, for error line numbers.
    """
    for row in reader:
        line = lines_before + reader.line_num
        if len(row) != clocks + 1:
            raise TraceFormatError(
                f"row has {len(row)} fields, expected {clocks + 1}", line
            )
        if row[0] != str(step):
            raise TraceFormatError(
                f"non-consecutive step index {row[0]!r}, expected {step}", line
            )
        cells = row[1:]
        if cells.count("0") + cells.count("1") != clocks:
            raise TraceFormatError("cell must be 0 or 1", line)
        for index, dates in columns:
            if cells[index] == "1":
                dates.append(step)
        step += 1
    return step


def trace_to_string(trace: Trace) -> str:
    """Render a trace to its canonical CSV text."""
    buffer = io.StringIO()
    write_trace(trace, buffer)
    return buffer.getvalue()

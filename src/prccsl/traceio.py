"""Trace serialization: dense 0/1 CSV with an explicit step column.

Format:

    step,<clk1>,<clk2>,...
    0,0,1,...
    1,1,0,...

LF line endings, no quoting (clock names are identifiers), row r holds
step index r.  The explicit step column is redundant but catches
truncated or reordered files cheaply.

Both directions work in bytes: a path is opened in binary, a text
stream's text is encoded to UTF-8 as it is read, and the writer's ASCII
bytes are decoded as they are written to one.  So a path, a pipe and a
text stream go through one read loop and one write loop.
"""

from __future__ import annotations

import io
from bisect import bisect_left
from contextlib import contextmanager
from functools import reduce
from itertools import accumulate, compress, islice
from operator import add, iadd
from os import PathLike
from typing import IO, Any, Callable, Iterable, Iterator

from . import _EXPORTS
from .clocks import Trace
from .errors import DeclarationError, TraceFormatError

__all__ = _EXPORTS["traceio"]

Source = str | PathLike | IO[str]

_BLOCK_ROWS = 8192  # rows rendered per write or checked per read; bounds buffers
_BLOCK_BYTES = 1 << 20  # and so do bytes, however wide the rows
_CELL_BITS = bytes.maketrans(b"01", b"\0\1")


@contextmanager
def _opened(target: Source, mode: str) -> Iterator[Callable[[Any], Any]]:
    """A bytes ``read(size)`` (mode "rb") or ``write(data)`` (mode "wb") on ``target``.

    A path is opened in binary.  A text stream's text is encoded to UTF-8
    as it is read, a lone surrogate to bytes that do not decode, so it is
    reported as a file's bad byte is; ASCII bytes written are decoded.
    """
    if isinstance(target, (str, PathLike)):
        with open(target, mode) as handle:
            yield handle.read if mode == "rb" else handle.write
    elif mode == "rb":
        yield lambda size: target.read(size).encode("utf-8", "surrogatepass")
    else:
        yield lambda data: target.write(data.decode("ascii"))


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
    with _opened(sink, "wb") as write:
        write((",".join(("step", *clocks)) + "\n").encode("ascii"))
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
            write(cells)
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

    A path (a pipe too) and a text stream are read alike, as bytes: a
    path in binary, a stream's text encoded to UTF-8.  Every line, the
    header's too, ends at "\n", "\r" or "\r\n", whatever the stream's own
    line splitting.  The body is read in the segments ``write_trace``
    writes.  A segment is canonical when it has the step digits
    ``write_trace`` gives its rows and, once "1" reads "0", equals a
    template of rows of "0" cells kept per digit count and row count,
    into which only the step digits are written.  Each column's ticks
    then come from its strided slice, and columns ticking on more than
    one row in 16 take their dates from one list of the segment's steps,
    so they share its int objects.  A column that ticks on every row gets
    no list at all: it is ``range(steps)``.  From the first segment that
    is not canonical on, ``csv.reader`` parses each line, decoded from
    UTF-8 (quoting and CRLF line ends included); each row is validated
    and re-read as the line ``write_trace`` writes for it, and segments
    of those lines go the same way, at about 10 times the cost (60k
    steps: 140 vs 14 ms).  Lines are parsed in file order, so the first
    bad line is the one reported, whatever is wrong with it.

    ``clocks`` names the clocks to keep, by default all of them.  Every
    cell of every column is validated either way, but only the kept
    clocks get date lists: the trace holds the header's clocks that
    ``clocks`` names, in header order, and names the header lacks are
    ignored.

    Raises TraceFormatError (with the 1-based line number) on a malformed
    header, a non-0/1 cell, a ragged row, a step index that does not match
    the row position, a line the csv module cannot parse, or a line that
    is not UTF-8.  A UTF-8 byte order mark before the header is skipped.
    """
    import csv  # here, not at the top: the write path never needs it

    if isinstance(clocks, str):  # would keep the clocks named by its letters
        raise TypeError(f"clocks must be clock names, not one str: {clocks!r}")
    with _opened(source, "rb") as read:
        pending = bytearray()  # bytes read but not used yet
        while b"\n" not in pending and b"\r" not in pending[:-1] and (chunk := read(io.DEFAULT_BUFFER_SIZE)):
            pending += chunk  # until the header's line end is known: a "\r" may yet be a "\r\n"
        line = pending.splitlines(True)[0] if pending else b""
        del pending[:len(line)]
        try:
            reader = csv.reader([line.decode()])
        except UnicodeDecodeError:
            raise TraceFormatError("not valid UTF-8", 1) from None
        try:
            header = _read_header(reader)
        except csv.Error as exc:
            raise TraceFormatError(str(exc), reader.line_num) from None
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
            while len(pending) < size and (chunk := read(size - len(pending))):
                pending += chunk
            chunk = b""  # its bytes are in pending now: not held twice while the segment is checked
            seg = pending[:size] if len(pending) > size else pending  # mostly all of it, not a copy
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
                # parse on from the segment's first byte; the rows come back rendered, so canonical
                rendered = _read_rows(csv.reader(_lines(pending, read)), step, len(header))
                # a segment of ``size // width`` rendered rows, at the width of the step being read, grown
                # in place: a bytes join would hold a list of the rows and a buffer view of each at once
                read = lambda size: reduce(iadd, islice(rendered, size // width), bytearray())
                pending = bytearray()
                continue
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
                else:  # the i-th "1" follows i earlier ones and the gaps before it; bytes
                    gaps = map(len, bytes(cells).split(b"1"))  # split twice as fast as a bytearray
                    ticks.extend(map(add, accumulate(gaps), range(step, step + ones)))
            step += rows
            del pending[:size]
    dates.update(dict.fromkeys(full, range(step)))  # _from_sorted makes a list of every step one too
    return Trace._from_sorted(list(dates), step, dates)


def _lines(pending: bytearray, read: Callable[[int], bytes]) -> Iterator[str]:
    """The lines of ``pending`` and then of the bytes ``read`` returns, decoded.

    Lines end at "\n", "\r" or "\r\n", as ``bytes.splitlines`` splits them.
    The bytes come ``io.DEFAULT_BUFFER_SIZE`` at a time, taken off the
    front of ``pending`` until it is empty, then read; a line spread over
    several chunks is joined once, from its pieces.  Each line is decoded
    from UTF-8 as it is yielded, so one that does not decode raises
    UnicodeDecodeError only after the lines before it are used.
    """
    size = io.DEFAULT_BUFFER_SIZE
    head: list[bytes] = []  # chunks not split yet: their last line may go on, or be a "\r" that a "\n" joins
    while chunk := pending[:size] or read(size):
        del pending[:size]
        head.append(chunk)
        if b"\n" in chunk or b"\r" in chunk:  # else the line goes on
            lines = b"".join(head).splitlines(True)
            head = [] if lines[-1].endswith(b"\n") else [lines.pop()]
            yield from map(bytes.decode, lines)
    yield from map(bytes.decode, b"".join(head).splitlines(True))


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


def _read_rows(reader: Any, step: int, clocks: int) -> Iterator[bytes]:
    """Validate the rows of ``clocks`` cells that ``reader`` yields from ``step`` on.

    Each is yielded as the ASCII bytes ``write_trace`` writes for it.
    The reader starts on the line of ``step``, which follows the
    one-line header.
    """
    from csv import Error  # loaded already: read_trace made the reader

    lines_before, zeros = step + 1, ",0" * clocks + "\n"
    try:
        for row in reader:
            line = lines_before + reader.line_num
            if len(row) != clocks + 1:
                raise TraceFormatError(f"row has {len(row)} fields, expected {clocks + 1}", line)
            if row[0] != str(step):
                raise TraceFormatError(f"non-consecutive step index {row[0]!r}, expected {step}", line)
            text = ",".join(row) + "\n"
            # every cell is "0" or "1" exactly: a comma in a cell, or an empty one, shifts the commas
            if text[len(row[0]):].replace("1", "0") != zeros:
                raise TraceFormatError("cell must be 0 or 1", line)
            yield text.encode("ascii")
            step += 1
    except Error as exc:
        raise TraceFormatError(str(exc), lines_before + reader.line_num) from None
    except UnicodeDecodeError:  # raised by the next line, which the reader has not counted
        raise TraceFormatError("not valid UTF-8", lines_before + reader.line_num + 1) from None


def trace_to_string(trace: Trace) -> str:
    """Render a trace to its canonical CSV text."""
    buffer = io.StringIO()
    write_trace(trace, buffer)
    return buffer.getvalue()

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
from functools import partial, reduce
from itertools import accumulate, compress, islice
from operator import add, iadd
from os import PathLike
from typing import IO, Any, Callable, Iterable, Iterator

from . import _EXPORTS
from .clocks import Trace
from .errors import DeclarationError, TraceFormatError, bad_utf8_position

__all__ = _EXPORTS["traceio"]

Source = str | PathLike | IO[str]

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
    splitting, and is split out of bounded chunks of text.  The body is
    read in the segments ``write_trace`` writes, as bytes: from a path's
    binary buffer, or ASCII-encoded from a text stream.  A segment is canonical when it is ASCII, has the step
    digits ``write_trace`` gives its rows and, once "1" reads "0",
    equals a template of rows of "0" cells kept per digit count and row
    count, into which only the step digits are written.  Each column's
    ticks then come from its strided slice, and columns ticking on more
    than one row in 16 take their dates from one list of the segment's
    steps, so they share its int objects.  A column that ticks on every
    row gets no list at all: it is ``range(steps)``.  From the first
    segment that is not canonical on, ``csv.reader`` parses each row (a
    path is read on as text from that segment's first byte), handling
    quoting and CRLF line ends; each row is validated and re-read as the
    line ``write_trace`` writes for it, and segments of those lines go
    the same way, at about 20 times the cost (60k steps: 250 vs 12 ms).

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
        line, rest = _first_line(handle.read)
        reader = csv.reader([line])
        try:
            header = _read_header(reader)
        except csv.Error as exc:
            raise TraceFormatError(str(exc), reader.line_num) from None
        read = None  # a path's body bytes come from its buffer, not through the text layer
        if isinstance(source, (str, PathLike)) and handle.seekable():
            handle.buffer.seek(len(line.encode("utf-8")))  # the body's first byte
            read = handle.buffer.read
        else:  # the body began inside the text read for the header
            read_text = _read_on(rest, handle.read)
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
                text = read_text(size)
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
                if read is None:  # a stream: the segment's text is read already
                    read_text = _read_on(text, read_text)
                else:  # go on as text from the segment's first byte: a line start, where
                    # the decoder holds no state, so the byte offset is the text handle's own seek cookie
                    handle.seek(handle.buffer.tell() - len(seg))
                    read_text = handle.read
                lines = _lines(iter(partial(read_text, io.DEFAULT_BUFFER_SIZE), ""))
                rendered = _read_rows(csv.reader(lines), step, len(header))
                # a segment of ``size // width`` rendered rows, at the width of the step being read, grown
                # in place: a bytes join would hold a list of the rows and a buffer view of each at once
                read = lambda size: reduce(iadd, islice(rendered, size // width), bytearray())
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
                else:  # the i-th "1" follows i earlier ones and the gaps before it
                    gaps = map(len, cells.split(b"1"))
                    ticks.extend(map(add, accumulate(gaps), range(step, step + ones)))
            step += rows
    dates.update(dict.fromkeys(full, range(step)))  # _from_sorted makes a list of every step one too
    return Trace._from_sorted(list(dates), step, dates)


def _first_line(read: Callable[[int], str]) -> tuple[str, str]:
    """The first line of the text ``read`` returns, and the text read past it.

    The line ends at "\n", "\r" or "\r\n".  Text is read in chunks of
    ``io.DEFAULT_BUFFER_SIZE``, so little is read past the line.
    """
    pieces = []
    while chunk := read(io.DEFAULT_BUFFER_SIZE):
        if chunk[-1] == "\r":  # a "\n" next would end the same line
            chunk += read(1)
        text = io.StringIO(chunk, newline="")
        pieces.append(text.readline())
        if pieces[-1][-1] in "\r\n":
            return "".join(pieces), text.read()
    return "".join(pieces), ""


def _read_on(text: str, read: Callable[[int], str]) -> Callable[[int], str]:
    """``read``, returning the characters of ``text`` before its own."""
    head = io.StringIO(text)

    def read_on(size: int) -> str:
        got = head.read(size)
        return got + read(size - len(got)) if len(got) < size else got

    return read_on


def _lines(chunks: Iterable[str]) -> Iterator[str]:
    """The lines of the text ``chunks`` make, each ending at "\n", "\r" or "\r\n".

    Each chunk is split here, whatever line splitting its stream has, so
    nothing is read past a chunk to find a line end; a line spread over
    several chunks is joined once, from its pieces.
    """
    head: list[str] = []  # a line not ended yet, or ended by a "\r" that a "\n" may still join
    for chunk in chunks:
        for line in io.StringIO(chunk, newline=""):
            if head and head[-1][-1] == "\r" and line != "\n":
                yield "".join(head)
                head = []
            head.append(line)
            if line[-1] == "\n":
                yield "".join(head)
                head = []
    if head:
        yield "".join(head)


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


def trace_to_string(trace: Trace) -> str:
    """Render a trace to its canonical CSV text."""
    buffer = io.StringIO()
    write_trace(trace, buffer)
    return buffer.getvalue()

"""Trace serialization: dense 0/1 CSV with an explicit step column.

Format:

    step,<clk1>,<clk2>,...
    0,0,1,...
    1,1,0,...

The writer writes LF line endings and no quoting (clock names are
identifiers); row r holds step index r.  The explicit step column is
redundant but catches truncated or reordered files cheaply.  The reader
also takes CRLF and CR line ends, and a field quoted as RFC 4180 quotes
a plain value (``"1"`` for ``1``); it has one parser, which reads the
writer's segments in bulk and checks the lines of any other segment.

Both directions work in bytes: a path is opened in binary, a text
stream's text is encoded to UTF-8 as it is read, each line end read as
"\n", and the writer's ASCII bytes are decoded as they are written to
one.  So a path, a pipe and a text stream go through one read loop and
one write loop.
"""

from __future__ import annotations

import io
from bisect import bisect_left
from contextlib import contextmanager
from itertools import accumulate, compress
from operator import add
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
def _opened(target: Source, mode: str) -> Iterator[Any]:
    """A bytes ``write(data)`` (mode "wb") or a buffered bytes reader (mode "rb") on ``target``.

    A path is opened in binary.  A text stream's text is encoded to UTF-8
    as it is read, a lone surrogate to bytes that do not decode, so it is
    reported as a file's bad byte is; ASCII bytes written are decoded.
    """
    if isinstance(target, (str, PathLike)):
        with open(target, mode, buffering=-1 if mode == "wb" else 0) as handle:  # a reader buffers once
            yield handle.write if mode == "wb" else io.BufferedReader(_LineEnds(handle.read))
    elif mode == "wb":
        yield lambda data: target.write(data.decode("ascii"))
    else:  # a character is at most 4 bytes
        yield io.BufferedReader(_LineEnds(lambda size: target.read(max(1, size // 4)).encode("utf-8", "surrogatepass")))


class _LineEnds(io.RawIOBase):
    """The bytes ``read(size)`` returns, each "\r\n" and lone "\r" read as "\n"."""

    def __init__(self, read: Callable[[int], bytes]) -> None:
        self._read, self._rest, self._cr = read, b"", False  # _cr: the last byte read was "\r"

    def readable(self) -> bool:
        return True

    def readinto(self, buffer: Any) -> int:
        data = self._rest  # what a small buffer did not take: a text stream's bytes may outnumber its characters
        while not data and (data := self._read(len(buffer))):  # a read of the "\n" of a split "\r\n" gives none
            if self._cr and data.startswith(b"\n"):
                data = data[1:]
            self._cr = data.endswith(b"\r")
            if b"\r" in data:  # a find of one byte, which costs about 1% of a "\r\n" replace
                data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        size = min(len(buffer), len(data))
        buffer[:size], self._rest = data[:size], data[size:]
        return size


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
    path in binary, a stream's text encoded to UTF-8.  Each "\r\n" and
    lone "\r" is read as "\n" as the bytes come in, so a CRLF or CR file
    reads as its LF copy does.  A field may be quoted as RFC 4180 quotes
    a plain value: ``"1"`` reads as ``1``, where the value holds no
    quote, comma or line end; any other quote stays in its field.

    The body is read in the segments ``write_trace`` writes.  A segment
    is canonical when ``write_trace`` would write it for some ticks (see
    ``_canonical``).  Each column's ticks then come from its strided
    slice, and columns ticking on more than one row in 16 take their
    dates from one list of the segment's steps, so they share its int
    objects.  A column that ticks on every row gets no list at all: it
    is ``range(steps)``.  A segment that is
    not canonical (a quoted field, a last line without "\n", a bad row)
    gets its last line completed, a final "\n" and its quotes unwrapped
    (see ``_canonical_segment``).  If that makes it canonical it is read
    as one; if not, its lines are checked in file order against the line
    ``write_trace`` writes for each step, and the first that differs is
    reported, whatever is wrong with it.  The next segment is read in
    bulk again.

    ``clocks`` names the clocks to keep, by default all of them.  Every
    cell of every column is validated either way, but only the kept
    clocks get date lists: the trace holds the header's clocks that
    ``clocks`` names, in header order, and names the header lacks are
    ignored.

    Raises TraceFormatError (with the 1-based line number) on a malformed
    header, a non-0/1 cell, a ragged row, a step index that does not match
    the row position, or a line that is not UTF-8.  A UTF-8 byte order
    mark before the header is skipped.
    """
    if isinstance(clocks, str):  # would keep the clocks named by its letters
        raise TypeError(f"clocks must be clock names, not one str: {clocks!r}")
    with _opened(source, "rb") as stream:
        try:
            header = _fields(stream.readline().decode().removesuffix("\n"))
        except UnicodeDecodeError:
            raise TraceFormatError("not valid UTF-8", 1) from None
        if not header or header.pop(0).removeprefix("\ufeff") != "step":  # the rest are clocks
            raise TraceFormatError("header must start with 'step'", 1)
        try:
            Trace(header)
        except DeclarationError as exc:
            raise TraceFormatError(f"bad header: {exc}", 1) from None
        wanted = set(header if clocks is None else clocks)
        dates: dict[str, list[int]] = {name: [] for name in header if name in wanted}
        columns = [(index, name, dates[name]) for index, name in enumerate(header) if name in dates]
        full = set(dates)  # the kept clocks that ticked on every row so far; their lists wait empty
        templates: dict[tuple[int, int], bytearray] = {}  # (digits, rows) -> rows of "0" cells
        step = 0
        while True:
            seg = cells = b""  # the last segment is not held while the next is read
            digits = len(str(step))
            width = digits + 2 * len(header) + 1
            size = (min(step + min(_BLOCK_ROWS, max(1, _BLOCK_BYTES // width)), 10**digits) - step) * width
            seg = stream.read(size)
            if not seg:
                break
            if not _canonical(seg, step, len(header), templates):
                if not seg.endswith(b"\n"):  # complete its last line, and give the file's last a "\n"
                    seg = b"".join((seg, stream.readline().removesuffix(b"\n"), b"\n"))
                seg = _canonical_segment(seg, step, len(header), templates)
            rows = len(seg) // width
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
    dates.update(dict.fromkeys(full, range(step)))  # _from_sorted makes a list of every step one too
    return Trace._from_sorted(list(dates), step, dates)


def _canonical(seg: bytes, step: int, clocks: int, templates: dict[tuple[int, int], bytearray]) -> bool:
    """Whether ``seg`` is whole rows as ``write_trace`` writes them from ``step`` on, of ``clocks`` cells.

    It is when it has the rows' step digits and, once "1" reads "0",
    equals the template of as many rows of "0" cells, kept in
    ``templates``, into which only the step digits are written.
    """
    digits = len(str(step))
    width = digits + 2 * clocks + 1
    rows = len(seg) // width
    template = templates.get((digits, rows))
    if template is None:
        template = templates[digits, rows] = bytearray((b"0" * digits + b",0" * clocks + b"\n") * rows)
    for pos in range(digits):  # the step digits as they are, and in the template with "1" as "0"
        digit = _digit_column(step, step + rows, 10 ** (digits - 1 - pos))
        if seg[pos::width] != digit:
            return False
        template[pos::width] = digit.replace(b"1", b"0")
    # equal with "1" read as "0": whole rows, commas, newlines, 0/1 cells
    return seg.replace(b"1", b"0") == template


def _canonical_segment(seg: bytes, step: int, clocks: int, templates: dict[tuple[int, int], bytearray]) -> bytes:
    """The canonical rows that ``seg`` reads as, or raise at its first bad line.

    ``seg`` is whole lines from ``step`` on, not canonical as they are
    read.  Its quoted fields are unwrapped.  When that leaves rows that
    are not canonical, each line is checked against the line
    ``write_trace`` writes for its step, and the first that differs
    raises.  As every line end already reads as "\n", lines that all
    match are canonical byte for byte.
    """
    plain = seg.translate(None, b'"')
    # When the rest is canonical, every field is digits, so every quote is
    # a plain field's iff each is a field's first or last byte (never both:
    # the field would be empty) and no field has one alone (with the digits
    # deleted, a quoted field reads '""').  Bytes counts, not a regular
    # expression, which made a file quoting every field ten times slower.
    edges = seg.count(b',"') + seg.count(b'\n"') + seg.startswith(b'"') + seg.count(b'",') + seg.count(b'"\n')
    paired = 2 * seg.translate(None, b"0123456789").count(b'""')
    if not (edges == paired == len(seg) - len(plain) and _canonical(plain, step, clocks, templates)):
        for step, line in enumerate(io.BytesIO(seg), step):  # the header is line 1, step 0 line 2
            try:
                fields = _fields(line.decode().removesuffix("\n"))
            except UnicodeDecodeError:
                raise TraceFormatError("not valid UTF-8", step + 2) from None
            if len(fields) != clocks + 1:
                raise TraceFormatError(f"row has {len(fields)} fields, expected {clocks + 1}", step + 2)
            if fields[0] != str(step):
                raise TraceFormatError(f"non-consecutive step index {fields[0]!r}, expected {step}", step + 2)
            if not {"0", "1"}.issuperset(fields[1:]):
                raise TraceFormatError("cell must be 0 or 1", step + 2)
    return plain


def _fields(line: str) -> list[str]:
    """The fields of ``line``, none if it is empty; ``"value"`` reads as ``value`` where the value has no quote."""
    return [f[1:-1] if f[:1] == f[-1:] == '"' and f.count('"') == 2 else f for f in (line.split(",") if line else [])]


def trace_to_string(trace: Trace) -> str:
    """Render a trace to its canonical CSV text."""
    buffer = io.StringIO()
    write_trace(trace, buffer)
    return buffer.getvalue()

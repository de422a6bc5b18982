import csv
import io
import os
import re
import tempfile
import threading
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prccsl import (
    AVParams,
    FaultSpec,
    Trace,
    TraceFormatError,
    read_trace,
    simulate,
    simulate_faulty,
    trace_to_string,
    write_trace,
)
from prccsl import traceio
from prccsl.traceio import _BLOCK_ROWS


def sample_trace() -> Trace:
    return Trace.from_dates(["ms", "a", "b"], 3, {"ms": [0, 1, 2], "a": [0, 2], "b": [2]})


CANONICAL = "step,ms,a,b\n0,1,1,0\n1,1,0,0\n2,1,1,1\n"


def test_write_canonical_bytes():
    assert trace_to_string(sample_trace()) == CANONICAL


def test_write_read_identity(tmp_path):
    path = tmp_path / "t.csv"
    params = AVParams(seed=3, steps=5000)
    for original in (
        sample_trace(),
        simulate_faulty(params, FaultSpec("exec-R7", 0.2)),
        simulate_faulty(params, FaultSpec("periodic-R1", 1.0)),
    ):
        write_trace(original, path)
        back = read_trace(path)
        assert back.clocks == original.clocks
        assert len(back) == len(original)
        assert [back.dates(c) for c in back.clocks] == [original.dates(c) for c in original.clocks]


def test_read_write_byte_identity():
    back = read_trace(io.StringIO(CANONICAL))
    assert trace_to_string(back) == CANONICAL


def test_empty_trace_round_trip():
    t = Trace(["x"])
    text = trace_to_string(t)
    assert text == "step,x\n"
    back = read_trace(io.StringIO(text))
    assert len(back) == 0 and back.clocks == ("x",)


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("", 1, "header"),
        ("time,a\n0,1\n", 1, "header"),
        ("step,a,a\n", 1, "duplicate"),
        ("step,9bad\n", 1, "clock name"),
        ("step,a\n1,1\n", 2, "step index"),
        ("step,a\n0,1\n2,1\n", 3, "step index"),
        ("step,a\nx,1\n", 2, "step index"),
        ("step,a\n0,1,0\n", 2, "row has 3 fields, expected 2"),
        ("step,a,b\n0,1\n", 2, "row has 2 fields, expected 3"),
        ("step,a\n0,2\n", 2, "must be 0 or 1"),
        ("step,a\n0, 1\n", 2, "must be 0 or 1"),
        ("step,a\n0,\n", 2, "must be 0 or 1"),
        # three fields each, rendered as "0,0,1,", "0,00," and "0,0\n,1"
        ('step,a,b\n0,"0,1",\n', 2, "must be 0 or 1"),
        ("step,a,b\n0,00,\n", 2, "must be 0 or 1"),
        ('step,a,b\n0,"0\n",1\n', 3, "must be 0 or 1"),  # the record ends on line 3
        pytest.param("step,ms,a\n0,1," + "x" * 200000 + "\n", 2, "field limit", id="over-long-field"),
        pytest.param("step," + "x" * 200000 + "\n0,1\n", 1, "field limit", id="over-long-header-field"),
    ],
)
def test_format_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(TraceFormatError) as err:
        read_trace(io.StringIO(text))
    assert err.value.line == line
    assert fragment in str(err.value)


def test_crlf_input_accepted(tmp_path):
    path = tmp_path / "t.csv"
    for text in ("step,a\r\n0,1\r\n", "\ufeffstep,a\n0,1\n"):
        path.write_bytes(text.encode("utf-8"))
        for source in (io.StringIO(text), path):
            back = read_trace(source)
            assert list(back.dates("a")) == [0]
            assert trace_to_string(back) == "step,a\n0,1\n"


def block_trace(steps: int) -> Trace:
    dates = {"ms": range(steps), "a": range(0, steps, 3), "b": range(5, steps, 4000)}
    return Trace.from_dates(["ms", "a", "b"], steps, dates)


@pytest.mark.parametrize(
    "steps",
    [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]
    + [10**d + e for d in range(1, 5) for e in (-1, 0, 1)],  # segments also end at powers of ten
)
def test_round_trip_at_block_boundaries(tmp_path, steps):
    original = block_trace(steps)
    text = trace_to_string(original)
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    for source in (path, io.StringIO(text)):
        back = read_trace(source)
        assert len(back) == steps
        assert [back.dates(c) for c in back.clocks] == [original.dates(c) for c in original.clocks]
        assert trace_to_string(back) == text


def edit_line(text: str, line: int, new: str) -> str:
    lines = text.split("\n")
    lines[line - 1] = new
    return "\n".join(lines)


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("{s},1,2,0", "must be 0 or 1"),
        ("{s}9,1,0,0", "non-consecutive step index"),
        ("{s};1;0;0", "row has 1 fields, expected 4"),
    ],
)
def test_errors_in_second_block_carry_absolute_line(row, fragment):
    line = _BLOCK_ROWS + 5
    text = edit_line(trace_to_string(block_trace(2 * _BLOCK_ROWS)), line, row.format(s=line - 2))
    with pytest.raises(TraceFormatError) as err:
        read_trace(io.StringIO(text))
    assert err.value.line == line
    assert fragment in str(err.value)


@pytest.mark.parametrize("first", [10, 1000])
@pytest.mark.parametrize(
    "row,fragment",
    [
        ("{s},1,2,0", "must be 0 or 1"),
        ("{s}9,1,0,0", "non-consecutive step index"),
        ("{s};1;0;0", "row has 1 fields, expected 4"),
    ],
)
def test_errors_after_a_power_of_ten_carry_absolute_line(tmp_path, first, row, fragment):
    line = first + 2  # the header, then step 0 on line 2
    text = edit_line(trace_to_string(block_trace(2 * first)), line, row.format(s=first))
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    for source in (path, io.StringIO(text)):
        with pytest.raises(TraceFormatError) as err:
            read_trace(source)
        assert err.value.line == line
        assert fragment in str(err.value)


def test_canonical_text_never_reaches_the_row_parser(tmp_path):
    text = trace_to_string(block_trace(10001))
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(traceio, "_read_rows", side_effect=AssertionError("row parser reached")):
        for rows in (3, 1000, _BLOCK_ROWS):
            with mock.patch.object(traceio, "_BLOCK_ROWS", rows):
                assert trace_to_string(read_trace(path)) == text
                assert trace_to_string(read_trace(io.StringIO(text))) == text


def test_invalid_utf8_reports_its_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"step,ms,a\n0,1,0\n1,1,1\n2,1,\xff\n3,1,0\n")
    with pytest.raises(TraceFormatError) as err:
        read_trace(path)
    assert err.value.line == 4
    assert "not valid UTF-8" in str(err.value)


def test_quoting_crlf_and_missing_final_newline_in_second_block():
    canonical = trace_to_string(block_trace(_BLOCK_ROWS + 20))
    line = _BLOCK_ROWS + 5
    row = canonical.split("\n")[line - 1]
    quoted = edit_line(canonical, line, row.replace(",1", ',"1"', 1))  # ms ticks on every step
    crlf = edit_line(canonical, line, row + "\r")
    assert '"1"' in quoted and "\r" in crlf
    for text in (quoted, crlf, canonical.removesuffix("\n")):
        back = read_trace(io.StringIO(text))
        assert trace_to_string(back) == canonical


def test_extra_character_on_last_row_without_newline():
    text = trace_to_string(block_trace(_BLOCK_ROWS + 3)).removesuffix("\n") + "x"
    with pytest.raises(TraceFormatError) as err:
        read_trace(io.StringIO(text))
    assert err.value.line == _BLOCK_ROWS + 4
    assert "must be 0 or 1" in str(err.value)


def naive_csv(trace: Trace) -> str:
    """Row-by-row rendering that shares no code with ``write_trace``."""
    ticks = [set(trace.dates(c)) for c in trace.clocks]
    rows = [f"{i}," + ",".join("1" if i in t else "0" for t in ticks) + "\n" for i in range(len(trace))]
    return "step," + ",".join(trace.clocks) + "\n" + "".join(rows)


# around powers of ten (where the step column widens) and segment ends
WRITER_SIZES = [0, 1, 9, 10, 11, 99, 100, 999, 1000, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]
WRITER_SIZES += [9999, 10000, 10001, 2 * _BLOCK_ROWS, 100001]


@st.composite
def writer_traces(draw, sizes):
    n = draw(sizes)
    dates = {"always": range(n), "never": [], "last": [n - 1]}
    for name in draw(st.lists(st.sampled_from("abc"), unique=True)):
        if draw(st.booleans()):
            dates[name] = range(draw(st.integers(0, 20)), n, draw(st.integers(1, 50)))
        else:
            dates[name] = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=30))
    return Trace.from_dates(list(dates), n, dates)


@pytest.mark.parametrize(
    "sizes",
    [st.just(n) for n in WRITER_SIZES] + [st.integers(0, 60)],
    ids=[str(n) for n in WRITER_SIZES] + ["small"],
)
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_writer_matches_naive_rendering(tmp_path, sizes, data):
    trace = data.draw(writer_traces(sizes))
    expected = naive_csv(trace)
    assert trace_to_string(trace) == expected
    path = tmp_path / "t.csv"
    write_trace(trace, path)
    assert path.read_bytes() == expected.encode("ascii")


def reference_read(text: str):
    """(clocks, steps, dates) of a trace CSV, or the line of its first
    error, from one ``csv.reader`` pass over rows; shares no code with
    ``read_trace``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if not header or header[0].removeprefix("\ufeff") != "step":
            return 1
        clocks = header[1:]
        valid = all(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) for name in clocks)
        if not valid or len(set(clocks)) != len(clocks):
            return 1
        dates = {name: [] for name in clocks}
        step = 0
        for row in reader:
            if len(row) != len(header) or row[0] != str(step) or not set(row[1:]) <= {"0", "1"}:
                return reader.line_num
            for name, cell in zip(clocks, row[1:]):
                if cell == "1":
                    dates[name].append(step)
            step += 1
    except csv.Error:
        return reader.line_num
    return tuple(clocks), step, dates


@st.composite
def edited_csvs(draw):
    steps = draw(st.integers(0, 130))
    clocks = ["ms", "a", "b"][: draw(st.integers(0, 3))]
    dates = {name: draw(st.lists(st.integers(0, max(steps - 1, 0)), max_size=steps)) for name in clocks}
    text = trace_to_string(Trace.from_dates(clocks, steps, dates))
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["replace", "insert", "delete", "truncate", "crlf"]))
        at = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(list('012,\n\r"\u00e9 ')))
        text = {
            "replace": text[:at] + char + text[at + 1:],
            "insert": text[:at] + char + text[at:],
            "delete": text[:at] + text[at + 1:],
            "truncate": text[:at],
            "crlf": text.replace("\n", "\r\n"),
        }[edit]
    return text


def outcome(source, clocks=None):
    try:
        trace = read_trace(source, clocks=clocks)
    except TraceFormatError as exc:
        return str(exc), exc.line
    return trace.clocks, len(trace), {name: list(trace.dates(name)) for name in trace.clocks}


@settings(max_examples=400, deadline=None)
@given(text=edited_csvs())
def test_reader_matches_csv_reader_reference_at_any_segment_size(text):
    # the reference splits lines as a path is read, at "\n", "\r" or
    # "\r\n"; so must read_trace, whatever line splitting the stream has
    outcomes = []
    for rows in (1, 3, _BLOCK_ROWS):
        with mock.patch.object(traceio, "_BLOCK_ROWS", rows):
            outcomes += [outcome(io.StringIO(text, newline="")), outcome(io.StringIO(text))]
    assert all(other == outcomes[0] for other in outcomes)
    expected = reference_read(text)
    if isinstance(expected, int):
        assert outcomes[0][1] == expected
    else:
        assert outcomes[0] == expected


def restricted(full, clocks):
    """A full read's outcome cut down to ``clocks``, in header order."""
    if not isinstance(full[0], tuple):
        return full  # an error
    kept = tuple(name for name in full[0] if name in clocks)
    return kept, full[1], {name: full[2][name] for name in kept}


def outcomes_of(tmp_path, text, clocks=None):
    """The outcomes of reading ``text`` from a path and from a text stream."""
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    return [outcome(path, clocks), outcome(io.StringIO(text), clocks)]


@pytest.mark.parametrize("rows", [3, 1000, _BLOCK_ROWS])
def test_projection_equals_the_full_read_restricted(tmp_path, rows):
    text = trace_to_string(block_trace(10001))
    with mock.patch.object(traceio, "_BLOCK_ROWS", rows):
        full = outcomes_of(tmp_path, text)
        for clocks in ([], ["ms"], ["b", "a"], ["a", "zz"], ["zz"], ["ms", "a", "b"]):
            assert outcomes_of(tmp_path, text, clocks) == [restricted(each, clocks) for each in full]


def test_projection_rejects_one_str():
    with pytest.raises(TypeError, match="not one str: 'ms'"):
        read_trace(io.StringIO(CANONICAL), clocks="ms")


def test_dense_columns_share_the_segment_step_ints():
    # a and b tick on more than one row in 16, so both take their dates
    # from one list of the segment's steps, and share its int objects
    # with each other (dates above 256 are not cached ints, so `is`
    # tells); ms ticks on every row, so it holds no ints at all
    steps = 3000
    dates = {"ms": range(steps), "a": range(0, steps, 2), "b": range(0, steps, 3)}
    text = trace_to_string(Trace.from_dates(list(dates), steps, dates))
    back = read_trace(io.StringIO(text))
    a = {date: date for date in back.dates("a")}
    shared = [date for date in back.dates("b") if date in a]
    assert len(shared) == 500 and all(a[date] is date for date in shared)
    assert back.dates("ms") == range(steps)


def sources(tmp_path, text):
    """A path to ``text`` and a text stream of it."""
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    return [path, io.StringIO(text)]


@pytest.mark.parametrize("rows", [3, _BLOCK_ROWS])
@pytest.mark.parametrize("crlf", [None, 2, 700], ids=["canonical", "crlf", "crlf-from-line-700"])
@pytest.mark.parametrize("clocks", [None, ["b", "ms"]], ids=["all", "projected"])
def test_an_every_row_column_reads_as_a_range(tmp_path, clocks, crlf, rows):
    # ms ticks on every row: a range from a path and from a stream, on the
    # canonical path and after the csv.reader fallback; a and b stay lists
    steps = 1001
    text = trace_to_string(block_trace(steps))
    if crlf is not None:
        lines = text.split("\n")
        text = "\n".join(lines[: crlf - 1] + [line + "\r" for line in lines[crlf - 1:-1]] + [""])
    with mock.patch.object(traceio, "_BLOCK_ROWS", rows):
        for source in sources(tmp_path, text):
            back = read_trace(source, clocks)
            assert type(back.dates("ms")) is range and back.dates("ms") == range(steps)
            assert type(back.dates("b")) is list and back.dates("b") == [5]


@pytest.mark.parametrize("rows", [3, _BLOCK_ROWS])
@pytest.mark.parametrize("crlf", [False, True], ids=["canonical", "crlf"])
@pytest.mark.parametrize("silent", [1, 2, 500, 1001])
def test_a_column_silent_on_one_row_reads_as_a_list(tmp_path, silent, crlf, rows):
    # ms ticks on every row but step ``silent - 1``, so it is a list, at
    # the first row, in the first segment, in a middle one or the last
    steps = 1001
    text = trace_to_string(block_trace(steps))
    line = silent + 1
    index, _, rest = text.split("\n")[line - 1].split(",", 2)
    text = edit_line(text, line, f"{index},0,{rest}")
    if crlf:
        text = text.replace("\n", "\r\n")
    expected = [step for step in range(steps) if step != silent - 1]
    with mock.patch.object(traceio, "_BLOCK_ROWS", rows):
        for source in sources(tmp_path, text):
            back = read_trace(source, ["ms"])
            assert type(back.dates("ms")) is list and back.dates("ms") == expected


@pytest.mark.parametrize("rows", [7, _BLOCK_ROWS])
@pytest.mark.parametrize("fallback", [False, True], ids=["canonical", "after-fallback"])
@pytest.mark.parametrize(
    "row,fragment",
    [
        ("{s},1,0,2", "must be 0 or 1"),  # in b, which the projection drops
        ("{s}9,1,0,0", "non-consecutive step index"),
        ("{s},1,0,0,0", "row has 5 fields, expected 4"),
        ("{s},1,0", "row has 3 fields, expected 4"),
    ],
)
def test_errors_in_dropped_columns_match_the_full_read(tmp_path, row, fragment, fallback, rows):
    line = 2 * _BLOCK_ROWS + 5
    text = edit_line(trace_to_string(block_trace(3 * _BLOCK_ROWS)), line, row.format(s=line - 2))
    if fallback:  # a CRLF row a segment earlier sends every later row through csv.reader
        earlier = line - _BLOCK_ROWS
        text = edit_line(text, earlier, text.split("\n")[earlier - 1] + "\r")
    with mock.patch.object(traceio, "_BLOCK_ROWS", rows):
        full = outcomes_of(tmp_path, text)
        assert all(at == line and fragment in message for message, at in full)
        assert outcomes_of(tmp_path, text, ["ms", "a"]) == full


@pytest.mark.parametrize("rows", [7, _BLOCK_ROWS])
def test_later_segment_of_a_path_reads_as_a_stream(tmp_path, rows):
    # past the text layer's first chunk, a path's body is read as bytes;
    # a segment that is not canonical there is read on as text
    canonical = trace_to_string(block_trace(3 * _BLOCK_ROWS))
    line = 2 * _BLOCK_ROWS + 5
    row = canonical.split("\n")[line - 1]
    quoted = edit_line(canonical, line, row.replace(",1", ',"1"', 1))
    crlf = edit_line(canonical, line, row + "\r")
    accented = edit_line(canonical, line, row[:-1] + "\u00e9")
    with mock.patch.object(traceio, "_BLOCK_ROWS", rows):
        for text in (quoted, crlf, canonical.removesuffix("\n")):
            path_read, stream_read = outcomes_of(tmp_path, text)
            assert path_read == stream_read == outcome(io.StringIO(canonical))
            assert outcomes_of(tmp_path, text, ["a"]) == [restricted(path_read, ["a"])] * 2
        path_read, stream_read = outcomes_of(tmp_path, accented)
        assert path_read == stream_read and path_read[1] == line and "must be 0 or 1" in path_read[0]
        path = tmp_path / "t.csv"
        path.write_bytes(canonical.encode("ascii").replace(row.encode(), row[:-1].encode() + b"\xff"))
        for clocks in (None, ["a"]):
            message, at = outcome(path, clocks)
            assert "not valid UTF-8" in message and at == line


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_unseekable_path_is_read_as_a_stream(tmp_path):
    text = trace_to_string(block_trace(_BLOCK_ROWS + 20))  # more than a pipe holds
    fifo = tmp_path / "t.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), kwargs={"encoding": "utf-8"}, daemon=True)
    writer.start()
    back = read_trace(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert trace_to_string(back) == text


@settings(max_examples=200, deadline=None)
@given(text=edited_csvs(), clocks=st.lists(st.sampled_from(["ms", "a", "b", "zz"])))
def test_path_and_stream_reads_agree_with_and_without_projection(text, clocks):
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "t.csv")
        with open(path, "wb") as handle:
            handle.write(text.encode("utf-8"))
        for rows in (1, 3, _BLOCK_ROWS):
            with mock.patch.object(traceio, "_BLOCK_ROWS", rows):
                full = outcome(io.StringIO(text, newline=""))
                assert outcome(path) == full
                assert outcome(path, clocks) == restricted(full, clocks)
                assert outcome(io.StringIO(text), clocks) == restricted(full, clocks)


def test_segments_of_a_wide_trace_are_bounded_by_bytes(tmp_path):
    # 2000 clocks make a row about 4 kB wide, so 8192 rows would be a
    # 32 MB segment; reading one clock must hold about 1 MiB at a time
    names = [f"c{i}" for i in range(2000)]
    dates = {name: sorted({(7 * i + 611 * k) % 3000 for k in range(5)}) for i, name in enumerate(names)}
    original = Trace.from_dates(names, 3000, dates)
    path = tmp_path / "wide.csv"
    write_trace(original, path)
    tracemalloc.start()
    try:
        back = read_trace(path, clocks={"c0"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.dates("c0") == dates["c0"]
    assert peak < 8 << 20, f"peak {peak} bytes"
    # one row per segment, over the first 120 steps (both digit-count
    # boundaries): all 3000 would take seconds, 2000 clocks at a time
    head = {name: [date for date in dates[name] if date < 120] for name in names}
    short = Trace.from_dates(names, 120, head)
    write_trace(short, path)
    with mock.patch.object(traceio, "_BLOCK_BYTES", 4096):
        write_trace(short, tmp_path / "small.csv")
        assert (tmp_path / "small.csv").read_bytes() == path.read_bytes()
        back = read_trace(tmp_path / "small.csv")
    assert [back.dates(name) for name in names] == [head[name] for name in names]


def test_every_row_clock_stays_a_range_through_the_row_parser(tmp_path):
    # CRLF sends every row through csv.reader; a clock ticking on every
    # row must not become a list of every step on the way
    steps = 100_000
    original = Trace.from_dates(["ms", "a"], steps, {"ms": range(steps), "a": range(0, steps, 97)})
    path = tmp_path / "crlf.csv"
    path.write_bytes(trace_to_string(original).replace("\n", "\r\n").encode("ascii"))
    for clocks in ({"ms"}, None):
        tracemalloc.start()
        try:
            back = read_trace(path, clocks=clocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(back.dates("ms"), range) and len(back) == steps
        assert peak < 3 << 20, f"peak {peak} bytes"
    assert back.dates("a") == original.dates("a")


def test_the_row_parser_holds_a_segment_once(tmp_path):
    # each segment of rows that csv.reader parses is rendered into one
    # bytearray, not joined from a list of row strings and then encoded,
    # and text is read on in chunks of 8 KiB, not of a whole segment, each
    # of which io.StringIO stores at 4 bytes a character: on Python 3.10
    # to 3.13 the peaks were 0.93-0.99 MiB (CRLF) and 6.5-6.6 MiB (one
    # quoted cell) before, and are 0.52-0.53 and 2.3 MiB
    steps = 30_000
    original = Trace.from_dates(["ms", "a"], steps, {"ms": range(steps), "a": range(0, steps, 97)})
    names = [f"c{i}" for i in range(40)]
    wide = Trace.from_dates(names, 10_000, {name: range(i, 10_000, 50 + i) for i, name in enumerate(names)})
    lines = trace_to_string(wide).split("\n")
    lines[5000] = re.sub(r",(\d)", r',"\1"', lines[5000], count=1)  # from the segment of steps 1000 to 9191 on
    for trace, text, bound in (
        (original, trace_to_string(original).replace("\n", "\r\n"), 0.65),
        (wide, "\n".join(lines), 4),
    ):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("ascii"))
        tracemalloc.start()
        try:
            back = read_trace(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [back.dates(name) for name in back.clocks] == [trace.dates(name) for name in trace.clocks]
        assert peak < bound * (1 << 20), f"peak {peak} bytes"


def test_cr_lines_on_a_stream_that_splits_at_lf_are_read_in_chunks():
    # a default io.StringIO's readline splits at "\n" only; lines ended by
    # a lone "\r", from the header on or only in the body, must still be
    # read a chunk at a time, as CRLF lines are, not the rest of the stream
    # at once (on the 60k-step trace that took the peak from 4.9 to 54.0
    # and 24.6 MiB)
    text = trace_to_string(simulate(AVParams(seed=11, steps=10_000)))
    header, body = text.split("\n", 1)
    variants = (text.replace("\n", "\r\n"), text.replace("\n", "\r"), header + "\n" + body.replace("\n", "\r"))
    peaks, reads = [], []
    for variant in variants:
        stream = io.StringIO(variant)
        tracemalloc.start()
        try:
            back = read_trace(stream)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        reads.append([list(back.dates(name)) for name in back.clocks])
    assert reads[1] == reads[2] == reads[0]
    assert max(peaks[1:]) < 1.2 * peaks[0], f"peaks {peaks} bytes"


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet="ab\r\n", max_size=40), size=st.integers(1, 8), held=st.integers(0, 40))
def test_lines_split_as_a_path_does_however_the_text_is_chunked(text, size, held):
    # the first ``held`` bytes are pending, the rest read ``size`` at a
    # time; a "\r\n" may be cut between two chunks, or between the pending
    # bytes and the first chunk read
    expected = io.StringIO(text, newline="").readlines()
    data = text.encode("ascii")
    stream = io.BytesIO(data[held:])
    pending = bytearray(data[:held])
    assert list(traceio._lines(pending, lambda n: stream.read(min(n, size)))) == expected
    assert not pending


def short_reads(text: str, most: int) -> SimpleNamespace:
    """A text stream of ``text`` whose ``read(n)`` returns at most ``most`` characters."""
    stream = io.StringIO(text, newline="")
    return SimpleNamespace(read=lambda n: stream.read(min(n, most)))


@settings(max_examples=200, deadline=None)
@given(text=edited_csvs(), most=st.integers(1, 8))
def test_a_stream_of_short_reads_reads_as_the_path_does(text, most):
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "t.csv")
        with open(path, "wb") as handle:
            handle.write(text.encode("utf-8"))
        for rows in (1, 3, _BLOCK_ROWS):
            with mock.patch.object(traceio, "_BLOCK_ROWS", rows):
                assert outcome(short_reads(text, most)) == outcome(path)


def test_short_reads_still_fill_canonical_segments():
    text = trace_to_string(block_trace(1001))
    with mock.patch.object(traceio, "_read_rows", side_effect=AssertionError("row parser reached")):
        for most in (1, 7):
            assert trace_to_string(read_trace(short_reads(text, most))) == text


@pytest.mark.parametrize("rows", [1, _BLOCK_ROWS])
@pytest.mark.parametrize(
    "third,fifth,message",
    [(b"1,1,2", b"3,1,\xff", "cell must be 0 or 1"), (b"1,1,\xff", b"3,1,2", "not valid UTF-8")],
    ids=["cell-first", "utf8-first"],
)
def test_the_first_bad_line_in_file_order_is_reported(tmp_path, rows, third, fifth, message):
    # a path, and a text stream of the same rows with the byte read as
    # latin-1 text (so a bad cell there), fail at line 3 alike
    data = b"step,ms,a\n0,1,0\n" + third + b"\n2,1,0\n" + fifth + b"\n4,1,0\n"
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with mock.patch.object(traceio, "_BLOCK_ROWS", rows):
        for source in (path, io.StringIO(data.decode("latin-1"))):
            with pytest.raises(TraceFormatError) as err:
                read_trace(source)
            assert err.value.line == 3
        assert err.value.message == "cell must be 0 or 1"  # the stream's
        with pytest.raises(TraceFormatError, match=re.escape(f"{message} (line 3)")):
            read_trace(path)


@pytest.mark.parametrize("clocks", [None, ["ms"]], ids=["all", "projected"])
@pytest.mark.parametrize(
    "text,line",
    [
        ("step,ms,a\n0,1,0\n1,1,\ud800\n", 3),  # in a cell of a column the projection drops
        ("step,ms,a\udcff\n0,1,0\n", 1),  # in the header
        (trace_to_string(block_trace(_BLOCK_ROWS + 1000)).replace("\n9000,", "\n9000,\udfff", 1), 9002),
    ],
    ids=["cell", "header", "later-segment"],
)
def test_a_lone_surrogate_in_a_stream_is_reported_at_its_line(text, line, clocks):
    # it has no UTF-8 encoding: it reads as a file's bytes that do not
    # decode would, never as a UnicodeEncodeError
    with pytest.raises(TraceFormatError) as err:
        read_trace(io.StringIO(text), clocks)
    assert (err.value.message, err.value.line) == ("not valid UTF-8", line)

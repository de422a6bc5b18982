import io
import os
import re
import tempfile
import threading
import tracemalloc
from itertools import chain
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
        ("", 1, "header must start with 'step'"),
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
        ("step,a\n0,1\n\n", 3, "row has 0 fields, expected 2"),  # an empty line has no fields
        ("\nstep,a\n", 1, "header must start with 'step'"),
        ("step,a,b\n0,00,\n", 2, "must be 0 or 1"),
        # only a value without a quote, comma or line end is unwrapped; any
        # other quote stays in its field, so the line it starts on is reported
        ('step,a,b\n0,"0,1",\n', 2, "row has 4 fields, expected 3"),
        ('step,a,b\n0,"0\n",1\n', 2, "row has 2 fields, expected 3"),
        ('step,ms\n",0\n1,0\n', 2, "non-consecutive step index '\"', expected 0"),
        ('step,ms,"a\r\n"\n0,1,1\n', 1, "invalid clock name '\"a'"),
        ('step,ms,"a\r"\n0,1,1\n', 1, "invalid clock name '\"a'"),
        ('step,ms\n"0\r\n",1\n', 2, "row has 1 fields, expected 2"),
        ('step,ms\n0,""1\n', 2, "cell must be 0 or 1"),
        ('step,ms\n0,"1"2\n', 2, "cell must be 0 or 1"),
        ('step,ms\n"0"1,1\n', 2, "non-consecutive step index '\"0\"1', expected 0"),
        ('step,ms\n0,"1\n', 2, "cell must be 0 or 1"),
        ('step,ms\n0,"\n', 2, "cell must be 0 or 1"),
        ('step,"ms\n0,1\n', 1, "invalid clock name '\"ms'"),
        ('"step,ms"\n0,1\n', 1, "header must start with 'step'"),
        ("step,ms\n0,1\n1,\0\n", 3, "cell must be 0 or 1"),
        pytest.param("step,ms,a\n0,1," + "x" * 200000 + "\n", 2, "cell must be 0 or 1", id="over-long-field"),
    ],
)
def test_format_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(TraceFormatError) as err:
        read_trace(io.StringIO(text))
    assert err.value.line == line
    assert fragment in str(err.value)


@pytest.mark.parametrize("cell", [b'""1', b'"1"2', b'"1""', b'1"1"', b"\0"])
def test_a_cell_quoted_other_than_whole_or_holding_nul_is_a_bad_cell(tmp_path, cell):
    # csv's lenient mode read the first two as 1 and 12, and a NUL cell
    # was "line contains NUL" on Python 3.10 only
    path = tmp_path / "t.csv"
    path.write_bytes(b"step,ms\n0,1\n1," + cell + b"\n2,1\n")
    for source in (path, io.StringIO(path.read_text(encoding="utf-8"))):
        with pytest.raises(TraceFormatError, match=re.escape("cell must be 0 or 1 (line 3)")):
            read_trace(source)


def test_a_field_has_no_length_limit():
    # csv stopped at 131072 bytes; a long clock name is a clock name
    name = "x" * 200000
    back = read_trace(io.StringIO(f"step,{name}\n0,1\n"))
    assert back.clocks == (name,) and list(back.dates(name)) == [0]


def test_one_quoted_cell_sends_only_its_segment_to_the_line_check(tmp_path):
    # the segments after it are read in bulk again, to the same trace
    text = trace_to_string(block_trace(3 * _BLOCK_ROWS))
    quoted = quote_cell(text, 2)
    assert quoted.count('"') == 2
    for source in sources(tmp_path, quoted):
        with line_check_spy() as spy:
            back = read_trace(source)
        assert spy.call_count == 1 and spy.call_args.args[1] == 0
        assert trace_to_string(back) == text


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


def mixed_ends(text: str, first: int = 0) -> str:
    """``text`` with its "\n" line ends read in turn as "\n", "\r\n" and "\r", from the ``first``."""
    *lines, last = text.split("\n")
    return "".join(line + ("\n", "\r\n", "\r")[(first + i) % 3] for i, line in enumerate(lines)) + last


def quote_cell(text: str, line: int) -> str:
    """``text`` with the first cell after the step of ``line`` quoted, as a spreadsheet may write it."""
    return edit_line(text, line, re.sub(r",(\d)", r',"\1"', text.split("\n")[line - 1], count=1))


def line_check_spy():
    """A patch that records the calls of ``traceio._canonical_segment`` and lets them run."""
    return mock.patch.object(traceio, "_canonical_segment", wraps=traceio._canonical_segment)


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


@pytest.mark.parametrize("ends", ["lf", "crlf", "cr", "mixed"])
def test_canonical_text_never_reaches_the_row_parser(tmp_path, ends):
    # every line end is read as "\n" before rows are compared, so CRLF,
    # lone-CR and mixed copies of a canonical file are canonical too
    text = trace_to_string(block_trace(10001))
    copy = {"lf": text, "crlf": text.replace("\n", "\r\n"), "cr": text.replace("\n", "\r"), "mixed": mixed_ends(text)}[ends]
    path = tmp_path / "t.csv"
    path.write_bytes(copy.encode("ascii"))
    with mock.patch.object(traceio, "_canonical_segment", side_effect=AssertionError("line check reached")):
        for rows in (3, 1000, _BLOCK_ROWS):
            with mock.patch.object(traceio, "_BLOCK_ROWS", rows):
                assert trace_to_string(read_trace(path)) == text
                assert trace_to_string(read_trace(io.StringIO(copy))) == text
                assert trace_to_string(read_trace(io.StringIO(copy, newline=""))) == text


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
    error, from one pass over lines split with a regular expression at
    "\r\n", "\r" or "\n", each field ``"value"`` read as ``value`` where
    the value holds no quote; shares no code with ``read_trace``."""
    lines = re.split(r"\r\n|\r|\n", text)
    if len(lines) > 1 and not lines[-1]:  # the last line's end
        lines.pop()
    rows = [[re.sub(r'\A"([^"]*)"\Z', r"\1", field) for field in line.split(",")] for line in lines]
    header = rows[0]
    if header[0].removeprefix("\ufeff") != "step":
        return 1
    clocks = header[1:]
    valid = all(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) for name in clocks)
    if not valid or len(set(clocks)) != len(clocks):
        return 1
    dates = {name: [] for name in clocks}
    for step, row in enumerate(rows[1:]):
        if len(row) != len(header) or row[0] != str(step) or not set(row[1:]) <= {"0", "1"}:
            return step + 2
        for name, cell in zip(clocks, row[1:]):
            if cell == "1":
                dates[name].append(step)
    return tuple(clocks), len(rows) - 1, dates


@st.composite
def edited_csvs(draw):
    steps = draw(st.integers(0, 130))
    clocks = ["ms", "a", "b"][: draw(st.integers(0, 3))]
    dates = {name: draw(st.lists(st.integers(0, max(steps - 1, 0)), max_size=steps)) for name in clocks}
    text = trace_to_string(Trace.from_dates(clocks, steps, dates))
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(
            ["replace", "insert", "delete", "truncate", "crlf", "cr", "mixed", "quote", "quote-all", "no-final-end"]
        ))
        at = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(list('012,\n\r"\u00e9 ')))
        text = {
            "replace": text[:at] + char + text[at + 1:],
            "insert": text[:at] + char + text[at:],
            "delete": text[:at] + text[at + 1:],
            "truncate": text[:at],
            "crlf": text.replace("\n", "\r\n"),
            "cr": text.replace("\n", "\r"),
            "mixed": mixed_ends(text, at),
            "quote": quote_field(text, at),
            "quote-all": re.sub(r"[^,\r\n]+", r'"\g<0>"', text),
            "no-final-end": text.rstrip("\r\n"),
        }[edit]
    return text


def quote_field(text: str, at: int) -> str:
    """``text`` with the field that holds its character ``at`` (or ends there) wrapped in quotes."""
    start = max(text.rfind(",", 0, at), text.rfind("\n", 0, at), text.rfind("\r", 0, at)) + 1
    end = min(i for i in (text.find(",", at), text.find("\n", at), text.find("\r", at), len(text)) if i >= 0)
    return text[:start] + '"' + text[start:end] + '"' + text[end:]


def outcome(source, clocks=None):
    try:
        trace = read_trace(source, clocks=clocks)
    except TraceFormatError as exc:
        return str(exc), exc.line
    return trace.clocks, len(trace), {name: list(trace.dates(name)) for name in trace.clocks}


@settings(max_examples=400, deadline=None)
@given(text=edited_csvs())
def test_reader_matches_a_line_by_line_reference_at_any_segment_size(text):
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
@pytest.mark.parametrize(
    "edit, at",
    [(None, None), ("crlf", 2), ("crlf", 700), ("quoted", 700)],
    ids=["canonical", "crlf", "crlf-from-line-700", "quoted-from-line-700"],
)
@pytest.mark.parametrize("clocks", [None, ["b", "ms"]], ids=["all", "projected"])
def test_an_every_row_column_reads_as_a_range(tmp_path, clocks, edit, at, rows):
    # ms ticks on every row: a range from a path and from a stream, read
    # in bulk and after the line check, which a quoted cell's segment takes
    # and CRLF rows do not; a and b stay lists
    steps = 1001
    text = trace_to_string(block_trace(steps))
    if edit == "crlf":
        lines = text.split("\n")
        text = "\n".join(lines[: at - 1] + [line + "\r" for line in lines[at - 1:-1]] + [""])
    elif edit == "quoted":
        text = quote_cell(text, at)
    with mock.patch.object(traceio, "_BLOCK_ROWS", rows):
        for source in sources(tmp_path, text):
            with line_check_spy() as spy:
                back = read_trace(source, clocks)
            assert spy.called == (edit == "quoted")
            assert type(back.dates("ms")) is range and back.dates("ms") == range(steps)
            assert type(back.dates("b")) is list and back.dates("b") == [5]


@pytest.mark.parametrize("rows", [3, _BLOCK_ROWS])
@pytest.mark.parametrize("edit", [None, "crlf", "quoted"], ids=["canonical", "crlf", "quoted"])
@pytest.mark.parametrize("silent", [1, 2, 500, 1001])
def test_a_column_silent_on_one_row_reads_as_a_list(tmp_path, silent, edit, rows):
    # ms ticks on every row but step ``silent - 1``, so it is a list, at
    # the first row, in the first segment, in a middle one or the last;
    # a quoted cell on the first row sends the first segment to the line check
    steps = 1001
    text = trace_to_string(block_trace(steps))
    line = silent + 1
    index, _, rest = text.split("\n")[line - 1].split(",", 2)
    text = edit_line(text, line, f"{index},0,{rest}")
    if edit == "crlf":
        text = text.replace("\n", "\r\n")
    elif edit == "quoted":
        text = quote_cell(text, 2)
    expected = [step for step in range(steps) if step != silent - 1]
    with mock.patch.object(traceio, "_BLOCK_ROWS", rows):
        for source in sources(tmp_path, text):
            with line_check_spy() as spy:
                back = read_trace(source, ["ms"])
            assert spy.called == (edit == "quoted")
            assert type(back.dates("ms")) is list and back.dates("ms") == expected


@pytest.mark.parametrize("rows", [7, _BLOCK_ROWS])
@pytest.mark.parametrize("earlier_edit", [None, "crlf", "quoted"], ids=["canonical", "after-crlf-row", "after-quoted-cell"])
@pytest.mark.parametrize(
    "row,fragment",
    [
        ("{s},1,0,2", "must be 0 or 1"),  # in b, which the projection drops
        ("{s}9,1,0,0", "non-consecutive step index"),
        ("{s},1,0,0,0", "row has 5 fields, expected 4"),
        ("{s},1,0", "row has 3 fields, expected 4"),
    ],
)
def test_errors_in_dropped_columns_match_the_full_read(tmp_path, row, fragment, earlier_edit, rows):
    line = 2 * _BLOCK_ROWS + 5
    text = edit_line(trace_to_string(block_trace(3 * _BLOCK_ROWS)), line, row.format(s=line - 2))
    earlier = line - _BLOCK_ROWS
    if earlier_edit == "crlf":  # a CRLF row a segment earlier is read as the LF row it equals
        text = edit_line(text, earlier, text.split("\n")[earlier - 1] + "\r")
    elif earlier_edit == "quoted":  # a quoted cell a segment earlier sends that segment to the line check
        text = quote_cell(text, earlier)
    with mock.patch.object(traceio, "_BLOCK_ROWS", rows), line_check_spy() as spy:
        full = outcomes_of(tmp_path, text)
        # the bad row's segment always reaches the line check, the quoted cell's before it, and no other
        targets = ([earlier] if earlier_edit == "quoted" else []) + [line]
        starts = [call.args[1] for call in spy.call_args_list]
        assert len(starts) == 2 * len(targets)  # a path and a stream
        assert all(start <= target - 2 < start + rows for start, target in zip(starts, 2 * targets))
        assert all(at == line and fragment in message for message, at in full)
        assert outcomes_of(tmp_path, text, ["ms", "a"]) == full


@pytest.mark.parametrize("rows", [7, _BLOCK_ROWS])
def test_later_segment_of_a_path_reads_as_a_stream(tmp_path, rows):
    # past the buffer's first chunk, a segment that is not canonical is
    # read and checked as it is from a stream
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


@pytest.mark.parametrize("edit", ["crlf", "quoted"])
def test_every_row_clock_stays_a_range_through_the_row_parser(tmp_path, edit):
    # a quoted cell on the first row sends the first segment to the line
    # check, while CRLF rows are read in bulk; a clock ticking on every row
    # must not become a list of every step on either way
    steps = 100_000
    original = Trace.from_dates(["ms", "a"], steps, {"ms": range(steps), "a": range(0, steps, 97)})
    text = trace_to_string(original)
    path = tmp_path / "t.csv"
    path.write_bytes((text.replace("\n", "\r\n") if edit == "crlf" else quote_cell(text, 2)).encode("ascii"))
    for clocks in ({"ms"}, None):
        with line_check_spy() as spy:
            tracemalloc.start()
            try:
                back = read_trace(path, clocks=clocks)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert spy.called == (edit == "quoted")
        assert isinstance(back.dates("ms"), range) and len(back) == steps
        assert peak < 3 << 20, f"peak {peak} bytes"
    assert back.dates("a") == original.dates("a")


def test_the_row_parser_holds_a_segment_once(tmp_path):
    # a segment that reaches the line check is completed and unquoted as
    # bytes, not split into a list of lines, and the next is read only
    # once it is dropped; the CRLF copy is read in bulk.  On Python 3.11
    # the peaks are 0.40 MiB (CRLF), 0.38 MiB (a quoted first row) and
    # 2.8 MiB (a quoted cell in the wide trace)
    steps = 30_000
    original = Trace.from_dates(["ms", "a"], steps, {"ms": range(steps), "a": range(0, steps, 97)})
    names = [f"c{i}" for i in range(40)]
    wide = Trace.from_dates(names, 10_000, {name: range(i, 10_000, 50 + i) for i, name in enumerate(names)})
    for trace, text, bound in (
        (original, trace_to_string(original).replace("\n", "\r\n"), 0.65),
        (original, quote_cell(trace_to_string(original), 2), 0.65),
        (wide, quote_cell(trace_to_string(wide), 5001), 4),  # from the segment of steps 1000 to 9191 on
    ):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("ascii"))
        with line_check_spy() as spy:
            tracemalloc.start()
            try:
                back = read_trace(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert spy.called == ('"' in text)
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
    # bytes (as from a pipe) and text are read ``size`` at a time, so a
    # "\r\n" may be cut between two reads; each line end is read as "\n".
    # The first ``held`` bytes are read whole and their last line completed,
    # as the line check completes a segment
    expected = [re.sub(r"\r\n?$", "\n", line) for line in io.StringIO(text, newline="").readlines()]
    data = io.BytesIO(text.encode("ascii"))
    with traceio._opened(short_reads(text, size), "rb") as from_text:
        for stream in (io.BufferedReader(traceio._LineEnds(lambda n: data.read(min(n, size)))), from_text):
            lines = chain(io.BytesIO(stream.read(held) + stream.readline()), stream)
            assert [line.decode() for line in lines] == expected


def test_a_character_wider_than_the_buffer_waits_for_the_next_read():
    # a text stream's character may encode to more bytes than the reader
    # asks for; the bytes it does not take come first in its next read
    text = "\u00e9\r\n\u20ac\r\U0001f600\ud800\n"
    with traceio._opened(io.StringIO(text, newline=""), "rb") as stream:
        data, buffer = bytearray(), bytearray(1)
        while size := stream.raw.readinto(buffer):
            data += buffer[:size]
    assert bytes(data) == "\u00e9\n\u20ac\n\U0001f600\ud800\n".encode("utf-8", "surrogatepass")


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
    with mock.patch.object(traceio, "_canonical_segment", side_effect=AssertionError("line check reached")):
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

import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prccsl import (
    AVParams,
    FaultSpec,
    Trace,
    TraceFormatError,
    read_trace,
    simulate_faulty,
    trace_to_string,
    write_trace,
)
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
        ("step,a\n0,1,0\n", 2, "3 fields"),
        ("step,a,b\n0,1\n", 2, "2 fields"),
        ("step,a\n0,2\n", 2, "must be 0 or 1"),
        ("step,a\n0, 1\n", 2, "must be 0 or 1"),
        ("step,a\n0,\n", 2, "must be 0 or 1"),
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
            assert back.dates("a") == [0]
            assert trace_to_string(back) == "step,a\n0,1\n"


def block_trace(steps: int) -> Trace:
    dates = {"ms": range(steps), "a": range(0, steps, 3), "b": range(5, steps, 4000)}
    return Trace.from_dates(["ms", "a", "b"], steps, dates)


@pytest.mark.parametrize("steps", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
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
        ("{s};1;0;0", "row has 1 fields"),
    ],
)
def test_errors_in_second_block_carry_absolute_line(row, fragment):
    line = _BLOCK_ROWS + 5
    text = edit_line(trace_to_string(block_trace(2 * _BLOCK_ROWS)), line, row.format(s=line - 2))
    with pytest.raises(TraceFormatError) as err:
        read_trace(io.StringIO(text))
    assert err.value.line == line
    assert fragment in str(err.value)


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

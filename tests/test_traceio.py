import io

import pytest

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

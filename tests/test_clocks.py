from bisect import bisect_left

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prccsl import DeclarationError, Trace, UNIVERSAL_CLOCK, UnknownClockError


def test_universal_clock_name():
    assert UNIVERSAL_CLOCK == "ms"


def test_trace_basic_accessors():
    t = Trace.from_dates(["ms", "a"], 3, {"ms": [0, 1], "a": [0]})
    assert len(t) == 3
    assert t.clocks == ("ms", "a")
    assert "a" in t and "zz" not in t
    assert 0 in t.dates("a") and 1 not in t.dates("a")
    assert t.dates("a") == [0]
    assert t.dates("ms") == [0, 1]
    assert [c for c in t.clocks if 0 in t.dates(c)] == ["ms", "a"]
    assert [[c for c in t.clocks if i in t.dates(c)] for i in range(3)] == [["ms", "a"], ["ms"], []]


def test_history_counts_strictly_earlier_ticks():
    t = Trace.from_dates(["a"], 3, {"a": [0, 2]})
    history = [sum(s in t.dates("a") for s in range(i)) for i in range(len(t) + 1)]
    assert history == [0, 1, 1, 2]
    # the history at a clock's j-th tick is j
    assert [history[date] for date in t.dates("a")] == [0, 1]


def test_duplicate_and_invalid_clock_names():
    with pytest.raises(DeclarationError):
        Trace(["a", "a"])
    with pytest.raises(DeclarationError):
        Trace(["1bad"])
    with pytest.raises(DeclarationError):
        Trace(["has space"])
    with pytest.raises(DeclarationError):
        Trace([""])


def test_from_dates_rejects_unknown_clock():
    with pytest.raises(UnknownClockError):
        Trace.from_dates(["a"], 2, {"a": [0], "b": [1]})


def test_from_dates_clips_out_of_range():
    t = Trace.from_dates(["a", "b"], 4, {"a": [0, 3, 4, 99], "b": []})
    assert len(t) == 4
    assert t.dates("a") == [0, 3]
    assert t.dates("b") == []


def test_from_dates_unlisted_clock_is_silent():
    t = Trace.from_dates(["a", "b"], 2, {"a": [1]})
    assert t.dates("b") == []


def test_history_at_matches_running_count():
    # h_c(i), the ticks strictly before step i, is the number of dates below i
    t = Trace.from_dates(["a", "b"], 4, {"a": [0, 1], "b": [1, 3]})
    h = {"a": 0, "b": 0}
    for i in range(len(t)):
        assert bisect_left(t.dates("a"), i) == h["a"]
        assert bisect_left(t.dates("b"), i) == h["b"]
        for clock in h:
            h[clock] += i in t.dates(clock)
    assert bisect_left(t.dates("a"), 4) == 2
    assert bisect_left(t.dates("b"), 4) == 2


def test_from_dates_sorts_dedupes_clips_and_copies():
    unsorted = [5, 1, 3, 1, -2, 7, 3, 9, 0]
    increasing = [0, 2, 4]
    t = Trace.from_dates(
        ["a", "b", "c", "d", "e", "f"],
        6,
        {
            "a": unsorted,
            "b": range(-3, 10, 2),
            "c": (s for s in (4, 0, 0, 2)),
            "d": increasing,
            "e": [-1, 6, 100, -7],
            "f": [1, 1, 2, 4, 4],
        },
    )
    assert t.dates("a") == [0, 1, 3, 5]
    assert t.dates("b") == [1, 3, 5]
    assert t.dates("c") == [0, 2, 4]
    assert t.dates("d") == [0, 2, 4]
    assert t.dates("e") == []
    assert t.dates("f") == [1, 2, 4]
    unsorted[:] = [2]
    increasing.append(5)
    increasing[0] = 1
    assert t.dates("a") == [0, 1, 3, 5]
    assert t.dates("d") == [0, 2, 4]


@pytest.mark.parametrize("length", [-1, True, False, 2.0, "3", None])
def test_from_dates_rejects_a_length_that_is_not_an_int_at_least_zero(length):
    with pytest.raises(ValueError, match="trace length"):
        Trace.from_dates(["a"], length, {})


@pytest.mark.parametrize("date", [0.5, 1.0, True, False, "1", None])
def test_from_dates_rejects_a_date_that_is_not_an_int(date):
    for steps in ([date, 2], [2, date], [1, date]):
        with pytest.raises(ValueError, match="clock 'a'"):
            Trace.from_dates(["a", "b"], 3, {"b": [0], "a": steps})


@given(st.integers(0, 20), st.lists(st.integers(-5, 25), max_size=20))
def test_from_dates_keeps_each_in_range_date_once_in_order(length, steps):
    t = Trace.from_dates(["a"], length, {"a": steps})
    assert list(t.dates("a")) == sorted({s for s in steps if 0 <= s < length})

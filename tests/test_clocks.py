import pytest

from prccsl import DeclarationError, Trace, UNIVERSAL_CLOCK, UnknownClockError


def test_universal_clock_name():
    assert UNIVERSAL_CLOCK == "ms"


def test_trace_basic_accessors():
    t = Trace(["ms", "a"])
    t.append({"ms", "a"})
    t.append({"ms"})
    t.append(set())
    assert len(t) == 3
    assert t.clocks == ("ms", "a")
    assert "a" in t and "zz" not in t
    assert t.tick_at("a", 0) and not t.tick_at("a", 1)
    assert t.dates("a") == [0]
    assert t.dates("ms") == [0, 1]
    assert [c for c in t.clocks if t.tick_at(c, 0)] == ["ms", "a"]
    assert [[c for c in t.clocks if t.tick_at(c, i)] for i in range(3)] == [["ms", "a"], ["ms"], []]


def test_history_counts_strictly_earlier_ticks():
    t = Trace(["a"])
    for ticks in ({"a"}, set(), {"a"}):
        t.append(ticks)
    assert [t.history_at("a", i) for i in range(4)] == [0, 1, 1, 2]
    with pytest.raises(IndexError):
        t.history_at("a", 4)
    with pytest.raises(IndexError):
        t.tick_at("a", 3)


def test_duplicate_and_invalid_clock_names():
    with pytest.raises(DeclarationError):
        Trace(["a", "a"])
    with pytest.raises(DeclarationError):
        Trace(["1bad"])
    with pytest.raises(DeclarationError):
        Trace(["has space"])
    with pytest.raises(DeclarationError):
        Trace([""])


def test_append_rejects_unknown_clock():
    t = Trace(["a"])
    with pytest.raises(UnknownClockError):
        t.append({"a", "b"})
    assert len(t) == 0 and t.dates("a") == []


def test_from_dates_clips_out_of_range():
    t = Trace.from_dates(["a", "b"], 4, {"a": [0, 3, 4, 99], "b": []})
    assert len(t) == 4
    assert t.dates("a") == [0, 3]
    assert t.dates("b") == []


def test_from_dates_unlisted_clock_is_silent():
    t = Trace.from_dates(["a", "b"], 2, {"a": [1]})
    assert t.dates("b") == []


def test_history_at_matches_running_count():
    t = Trace(["a", "b"])
    for ticks in ({"a"}, {"a", "b"}, set(), {"b"}):
        t.append(ticks)
    h = {"a": 0, "b": 0}
    for i in range(len(t)):
        assert t.history_at("a", i) == h["a"]
        assert t.history_at("b", i) == h["b"]
        for clock in h:
            h[clock] += t.tick_at(clock, i)
    assert t.history_at("a", 4) == 2
    assert t.history_at("b", 4) == 2

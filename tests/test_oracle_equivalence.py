"""Monitors and the expression engine against the brute-force oracle.

The oracle walks every step with literal per-step tick and history
definitions; the engine merges sorted date lists and never visits a
step on its own.  The two share no evaluation code, so agreement on
random inputs is strong evidence for both.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prccsl import (
    DelayFor,
    Inf,
    PeriodicOn,
    Ref,
    RelationKind,
    RelationSpec,
    Sup,
    Trace,
    check_relations,
    eval_expr,
)
from prccsl.oracle import oracle_expr, oracle_relation
from prccsl.relations import _count

CLOCKS = ("a", "b", "c")


@st.composite
def traces(draw, max_len=64):
    n = draw(st.integers(min_value=1, max_value=max_len))
    steps = st.integers(min_value=0, max_value=n)
    columns = {}
    for name in CLOCKS:
        # scattered ticks, a run of consecutive steps at any offset and of
        # any length (empty and single dates too), the two mixed, or every
        # k-th step from some offset on, like a periodicon of ms
        shape = draw(st.sampled_from(("ticks", "run", "mixed", "strided")))
        if shape == "strided":
            ticks = set(range(draw(steps), n, draw(st.integers(2, 5))))
        elif shape == "run":
            ticks = set()
        else:
            ticks = draw(st.sets(st.integers(0, n - 1)))
        if shape in ("run", "mixed"):
            start, stop = sorted((draw(steps), draw(steps)))
            ticks.update(range(start, stop))
        columns[name] = sorted(ticks)
    # sometimes one clock ticks on every step, like ms
    full = draw(st.sampled_from((None, *CLOCKS)))
    if full is not None:
        columns[full] = list(range(n))
    return Trace.from_dates(CLOCKS, n, columns), n


sample_sizes = st.sampled_from((None, *range(1, 9)))


@st.composite
def exprs(draw, depth=3):
    if depth == 0:
        return Ref(draw(st.sampled_from(CLOCKS)))
    kind = draw(st.sampled_from(("ref", "periodic", "delay", "inf", "sup")))
    if kind == "ref":
        return Ref(draw(st.sampled_from(CLOCKS)))
    if kind == "periodic":
        return PeriodicOn(draw(exprs(depth=depth - 1)), draw(st.integers(1, 5)))
    if kind == "delay":
        return DelayFor(
            draw(exprs(depth=depth - 1)),
            draw(st.integers(1, 6)),
            draw(exprs(depth=depth - 1)),
        )
    node = Inf if kind == "inf" else Sup
    return node(draw(exprs(depth=depth - 1)), draw(exprs(depth=depth - 1)))


@settings(max_examples=300, deadline=None)
@given(traces(), st.sampled_from(list(RelationKind)), sample_sizes)
def test_monitor_counts_match_oracle(tn, kind, cap):
    trace, n = tn
    spec = RelationSpec("x", kind, Ref("a"), Ref("b"), Fraction(1, 2), cap)
    (verdict,) = check_relations([spec], trace)
    expected = oracle_relation(kind, trace.dates("a"), trace.dates("b"), n, cap=cap)
    assert (verdict.k, verdict.m) == expected


@settings(max_examples=300, deadline=None)
@given(traces(), exprs())
def test_expression_dates_match_oracle(tn, expr):
    trace, n = tn
    expected = oracle_expr(expr, {c: trace.dates(c) for c in CLOCKS}, n)
    assert list(eval_expr(expr, trace)) == expected


@settings(max_examples=200, deadline=None)
@given(traces(), exprs(), exprs(), st.sampled_from(list(RelationKind)), sample_sizes)
def test_monitors_accept_compound_expressions(tn, left, right, kind, cap):
    trace, n = tn
    spec = RelationSpec("x", kind, left, right, Fraction(1, 2), cap)
    (verdict,) = check_relations([spec], trace)
    dates = {c: trace.dates(c) for c in CLOCKS}
    expected = oracle_relation(
        kind, oracle_expr(left, dates, n), oracle_expr(right, dates, n), n, cap=cap
    )
    assert (verdict.k, verdict.m) == expected


@settings(max_examples=200, deadline=None)
@given(traces())
def test_periodic_is_subclock_and_delay_is_subclock_of_ref(tn):
    trace, n = tn
    periodic = eval_expr(PeriodicOn(Ref("a"), 2), trace)
    assert set(periodic) <= set(trace.dates("a"))
    delayed = eval_expr(DelayFor(Ref("a"), 2, Ref("b")), trace)
    assert set(delayed) <= set(trace.dates("b"))


# Inf and Sup return the operands as they are when the longer one (the
# left one if both are as long) is at or before the other at every tick,
# and merge otherwise; these pairs take both paths, in either order.
DOMINANCE_N = 60
DOMINANCE_PAIRS = {
    "equal": ([1, 4, 6], [1, 4, 6]),
    "prefix": ([0, 2, 5, 7, 9], [0, 2, 5]),
    "p2-p3": (list(range(0, 60, 2)), list(range(0, 60, 3))),
    "p3-p2": (list(range(0, 60, 3)), list(range(0, 60, 2))),
    "shorter-leads": (list(range(0, 15, 3)), list(range(5, 60, 2))),
    "longer-trails": (list(range(5, 60, 2)), list(range(0, 15, 3))),
    "empty": ([], [1, 2, 40]),
    "both-empty": ([], []),
    "crossing": ([0, 10, 11, 12], [5, 6, 30]),
}


@pytest.mark.parametrize("node", [Inf, Sup])
@pytest.mark.parametrize("pair", list(DOMINANCE_PAIRS))
def test_inf_sup_of_dominating_operands_match_oracle(pair, node):
    a, b = DOMINANCE_PAIRS[pair]
    trace = Trace.from_dates(("a", "b"), DOMINANCE_N, {"a": a, "b": b})
    for expr in (node(Ref("a"), Ref("b")), node(Ref("b"), Ref("a"))):
        assert eval_expr(expr, trace) == oracle_expr(expr, {"a": a, "b": b}, DOMINANCE_N)


@pytest.mark.parametrize("pair", ["equal", "prefix", "p2-p3", "p3-p2"])
def test_inf_sup_of_dominating_operands_share_their_lists(pair):
    a, b = DOMINANCE_PAIRS[pair]
    trace = Trace.from_dates(("a", "b"), DOMINANCE_N, {"a": a, "b": b})
    for left, right in (("a", "b"), ("b", "a")):
        longer, shorter = sorted((left, right), key=lambda name: -len(trace.dates(name)))
        assert eval_expr(Inf(Ref(left), Ref(right)), trace) is trace.dates(longer)
        assert eval_expr(Sup(Ref(left), Ref(right)), trace) is trace.dates(shorter)


@pytest.mark.parametrize("delay", [1, 3, 16, 17])
@pytest.mark.parametrize(
    "base",
    [(1002, 1010), (1004, 1010), (1008, 1030), (1000, 1003), (1025, 1028)],
    ids=["collapse-then-run", "inside", "past-the-end", "before-only", "after-only"],
)
def test_delay_for_on_run_ref_and_run_base_matches_oracle(base, delay):
    # ref ticks on steps 1004..1019; base dates before 1004 collapse onto
    # one tick, and dates above 256 are not cached ints, so `is` tells
    # whether the output holds ref's own int objects
    n = 1030
    dates = {"base": list(range(*base)), "ref": list(range(1004, 1020))}
    trace = Trace.from_dates(("base", "ref"), n, dates)
    expr = DelayFor(Ref("base"), delay, Ref("ref"))
    out = eval_expr(expr, trace)
    assert out == oracle_expr(expr, dates, n)
    ref = trace.dates("ref")
    assert all(date is ref[date - ref[0]] for date in out)


@pytest.mark.parametrize("delay", [1, 3, 17])
@pytest.mark.parametrize(
    "base",
    [(1004, 1030, 2), (1004, 1030, 3), (1000, 1040, 3)],
    ids=["stride-2", "stride-3", "offset-stride-3"],
)
def test_delay_for_on_run_ref_and_strided_base_holds_ref_dates(base, delay):
    # ref ticks on steps 1004..1035, as in the run test above; the offset
    # base puts 1000 and 1003 before ref and its other dates off ref's grid
    n = 1040
    dates = {"base": list(range(*base)), "ref": list(range(1004, 1036))}
    trace = Trace.from_dates(("base", "ref"), n, dates)
    expr = DelayFor(Ref("base"), delay, Ref("ref"))
    out = eval_expr(expr, trace)
    assert out == oracle_expr(expr, dates, n)
    ref = trace.dates("ref")
    assert len(out) > 1 and all(date is ref[date - ref[0]] for date in out)


@pytest.mark.parametrize(
    "base",
    [[1004, 1006, 1007, 1010], [1004, 1006, 1009], [1005, 1006, 1008, 1010, 1012]],
    ids=["even-span", "uneven-span", "stride-breaks"],
)
def test_delay_for_on_run_ref_and_non_progression_base_matches_oracle(base):
    n = 1040
    dates = {"base": base, "ref": list(range(1004, 1036))}
    trace = Trace.from_dates(("base", "ref"), n, dates)
    for delay in (1, 2, 5):
        expr = DelayFor(Ref("base"), delay, Ref("ref"))
        assert eval_expr(expr, trace) == oracle_expr(expr, dates, n)


# A trace holds a clock that ticks on every step as a range, and the
# progressions derived from one stay ranges.  Each pair is two
# (start, stop, step) ranges over RANGE_N steps; the monitors count them
# in closed form, and each against the other as a list by its paths for
# a range against a list.
RANGE_N = 60
RANGE_PAIRS = {
    "coprime": ((0, 60, 3), (1, 60, 4)),
    "coprime-offset-spans": ((2, 50, 5), (7, 60, 3)),
    "one-divides": ((0, 60, 2), (4, 40, 6)),
    "one-divides-never-meet": ((1, 60, 2), (0, 60, 4)),
    "offsets-never-meet": ((0, 60, 4), (1, 60, 6)),
    "disjoint-spans": ((0, 20, 1), (30, 60, 3)),
    "same": ((5, 55, 5), (5, 55, 5)),
    "run-and-strided": ((10, 40, 1), (0, 60, 7)),
    "single-date-on-grid": ((17, 18, 1), (2, 60, 5)),
    "single-date-off-grid": ((18, 19, 9), (2, 60, 5)),
    "single-dates": ((18, 19, 9), (18, 19, 4)),
    "empty": ((30, 30, 1), (0, 60, 2)),
    "both-empty": ((5, 5, 3), (9, 9, 2)),
}


@pytest.mark.parametrize("cap", [None, 1, 7])
@pytest.mark.parametrize("kind", list(RelationKind))
@pytest.mark.parametrize("pair", list(RANGE_PAIRS))
def test_monitors_of_ranges_match_oracle(pair, kind, cap):
    a, b = (range(*spec) for spec in RANGE_PAIRS[pair])
    for left, right in ((a, b), (b, a)):
        expected = oracle_relation(kind, list(left), list(right), RANGE_N, cap=cap)
        for operands in ((left, right), (list(left), right), (left, list(right))):
            assert _count(kind, *operands, cap) == expected


# a run of consecutive steps against scattered dates that are no
# progression: right[j] - left[j] is monotone in j, on either side;
# against a range of stride 3 it is not, and goes up and down
SCATTERED = [3, 4, 9, 10, 11, 30]
RUNS = {
    "whole": range(RANGE_N),
    "inside": range(5, 40),
    "empty": range(20, 20),
    "strided": range(0, RANGE_N, 3),
}


@pytest.mark.parametrize("cap", [None, 1, 7])
@pytest.mark.parametrize("kind", [RelationKind.CAUSALITY, RelationKind.PRECEDENCE])
@pytest.mark.parametrize("run", list(RUNS))
def test_a_run_against_scattered_dates_matches_oracle(run, kind, cap):
    for left, right in ((RUNS[run], SCATTERED), (SCATTERED, RUNS[run])):
        expected = oracle_relation(kind, list(left), list(right), RANGE_N, cap=cap)
        assert _count(kind, left, right, cap) == expected


def progression(start, step):
    """Every ``step``-th step from ``start`` on, as an expression over ms."""
    every = PeriodicOn(Ref("ms"), step)
    return DelayFor(every, start, Ref("ms")) if start else every


# (start, step) of the two operands, and whether inf and sup are one of
# them as it is, a range: the longer one (the left one if both are as
# long) must be at or before the other at each of the other's ticks
PROGRESSION_PAIRS = {
    "longer-first": ((0, 2), (0, 3), True),
    "longer-first-offset": ((1, 2), (6, 3), True),
    "equal": ((4, 3), (4, 3), True),
    "one-empty": ((0, 4), (RANGE_N + 1, 2), True),
    "shorter-first": ((0, 5), (33, 2), False),
    "crossing": ((12, 2), (0, 3), False),
    "crossing-back": ((0, 3), (5, 2), False),
    "crossing-at-the-end": ((2, 3), (20, 2), False),
}


@pytest.mark.parametrize("node", [Inf, Sup])
@pytest.mark.parametrize("pair", list(PROGRESSION_PAIRS))
def test_inf_sup_of_ranges_match_oracle(pair, node):
    trace = Trace.from_dates(("ms",), RANGE_N, {"ms": range(RANGE_N)})
    *specs, operand = PROGRESSION_PAIRS[pair]
    left, right = (progression(*spec) for spec in specs)
    assert all(type(eval_expr(side, trace)) is range for side in (left, right))
    for expr in (node(left, right), node(right, left)):
        out = eval_expr(expr, trace)
        assert list(out) == oracle_expr(expr, {"ms": range(RANGE_N)}, RANGE_N)
        assert (type(out) is range) == operand


@pytest.mark.parametrize("delay", [1, 2, 7])
@pytest.mark.parametrize("base", [(0, 1), (0, 2), (3, 5), (0, RANGE_N)])
@pytest.mark.parametrize("ref", [(0, 1), (1, 1), (5, 1), (RANGE_N - 7, 1), (0, 2)])
def test_delay_for_of_ranges_matches_oracle(ref, base, delay):
    # a range base on a range ref of stride 1 shifts to a range, unless
    # base dates before ref's first collapse onto one tick in front (ref's
    # last, when ref has delay dates)
    trace = Trace.from_dates(("ms",), RANGE_N, {"ms": range(RANGE_N)})
    expr = DelayFor(progression(*base), delay, progression(*ref))
    out = eval_expr(expr, trace)
    assert list(out) == oracle_expr(expr, {"ms": range(RANGE_N)}, RANGE_N)
    if ref[1] == 1 and base[0] >= ref[0]:
        assert type(out) is range


# the run from ``start`` on (a range), and whether it is first at each
# tick of the scattered dates
SCATTERED_INF_SUP = {
    "run-dominates": (0, True),
    "dates-dominate": (55, False),
    "crossing": (5, None),
}


@pytest.mark.parametrize("node", [Inf, Sup])
@pytest.mark.parametrize("case", list(SCATTERED_INF_SUP))
def test_inf_sup_of_a_run_and_scattered_dates_match_oracle(case, node):
    start, run_first = SCATTERED_INF_SUP[case]
    columns = {"ms": range(RANGE_N), "dots": SCATTERED}
    trace = Trace.from_dates(list(columns), RANGE_N, columns)
    run = progression(start, 1)
    assert eval_expr(run, trace) == range(start, RANGE_N)
    for expr in (node(run, Ref("dots")), node(Ref("dots"), run)):
        out = eval_expr(expr, trace)
        assert list(out) == oracle_expr(expr, columns, RANGE_N)
        if run_first is not None:  # the operand first at every tick is inf, the other sup
            assert (type(out) is range) == (run_first == (node is Inf))

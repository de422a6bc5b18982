"""Monitors and the expression engine against the brute-force oracle.

The oracle walks every step with literal per-step tick and history
definitions; the engine merges sorted date lists and never visits a
step on its own.  The two share no evaluation code, so agreement on
random inputs is strong evidence for both.
"""

from fractions import Fraction

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

CLOCKS = ("a", "b", "c")


@st.composite
def traces(draw, max_len=64):
    n = draw(st.integers(min_value=1, max_value=max_len))
    steps = st.integers(min_value=0, max_value=n)
    columns = {}
    for name in CLOCKS:
        # scattered ticks, a run of consecutive steps at any offset and of
        # any length (empty and single dates too), or the two mixed
        shape = draw(st.sampled_from(("ticks", "run", "mixed")))
        ticks = set() if shape == "run" else draw(st.sets(st.integers(0, n - 1)))
        if shape != "ticks":
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
    assert eval_expr(expr, trace) == expected


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

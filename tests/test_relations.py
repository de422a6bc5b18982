import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

from prccsl import (
    DelayFor,
    Inf,
    PeriodicOn,
    Ref,
    RelationError,
    RelationKind,
    RelationSpec,
    Sup,
    Trace,
    Verdict,
    check_relations,
)


def spec(kind, threshold="0.95", sample_size=None, left="a", right="b"):
    return RelationSpec("T", kind, Ref(left), Ref(right), Fraction(threshold), sample_size)


def run(kind, rows, **kw):
    dates = {c: [i for i, row in enumerate(rows) if row[col]] for col, c in enumerate("ab")}
    t = Trace.from_dates(["a", "b"], len(rows), dates)
    (result,) = check_relations([spec(kind, **kw)], t)
    return result


def test_subclock_counts():
    r = run(RelationKind.SUBCLOCK, [(1, 1), (1, 0), (0, 1), (0, 0), (1, 1)])
    assert (r.k, r.m) == (3, 2)


def test_coincidence_counts():
    r = run(RelationKind.COINCIDENCE, [(1, 1), (1, 0), (0, 1), (0, 0)])
    assert (r.k, r.m) == (3, 1)


def test_exclusion_counts():
    r = run(RelationKind.EXCLUSION, [(1, 1), (1, 0), (0, 1), (0, 0)])
    assert (r.k, r.m) == (3, 2)


def test_causality_uses_pre_tick_histories():
    # b catches a's history only strictly after a's tick
    r = run(RelationKind.CAUSALITY, [(1, 0), (1, 1), (0, 1), (1, 0)])
    assert (r.k, r.m) == (3, 3)
    # a behind b: second a tick sees h1=1 < h2=2
    r = run(RelationKind.CAUSALITY, [(1, 1), (0, 1), (1, 0)])
    assert (r.k, r.m) == (2, 1)


def test_precedence_rejects_coincident_catch_up():
    # at the second step h1=h2=... equal histories with b ticking now
    r = run(RelationKind.PRECEDENCE, [(1, 0), (1, 1), (1, 1)])
    assert (r.k, r.m) == (3, 3)
    r = run(RelationKind.PRECEDENCE, [(1, 1)])
    assert (r.k, r.m) == (1, 0)


def test_each_step_adds_its_own_observation():
    # (kind, earlier rows, final row): the final row is observed with
    # t1, t2 and pre-tick histories h1, h2 as in the comment
    cases = [
        (RelationKind.SUBCLOCK, [], (1, 1)),  # t1, t2
        (RelationKind.COINCIDENCE, [], (0, 0)),  # no tick: no observation
        (RelationKind.EXCLUSION, [], (1, 0)),
        (RelationKind.CAUSALITY, [], (0, 1)),  # h1 = h2 = 0, left silent
        (RelationKind.PRECEDENCE, [(1, 1), (1, 0)], (1, 0)),  # h1 = 2, h2 = 1
    ]
    k = m = 0
    for kind, rows, last in cases:
        before = run(kind, rows, threshold="0")
        after = run(kind, rows + [last], threshold="0")
        k += after.k - before.k
        m += after.m - before.m
    assert (k, m) == (3, 3)


def test_verdict_threshold_boundary_is_exact():
    # 19 of 20 at threshold 19/20 is valid; 18 of 20 is not
    v = run(RelationKind.SUBCLOCK, [(1, 1)] * 19 + [(1, 0)], threshold="0.95")
    assert (v.k, v.m) == (20, 19)
    assert v.outcome == "valid" and v.probability == Fraction(19, 20)
    v2 = run(RelationKind.SUBCLOCK, [(1, 1)] * 18 + [(1, 0)] * 2, threshold="0.95")
    assert (v2.k, v2.m) == (20, 18) and v2.outcome == "fail"


def test_borderline_counts_flip_with_threshold():
    rows = [(1, 1)] * 6 + [(1, 0)]
    strict = run(RelationKind.COINCIDENCE, rows, threshold="0.95")
    assert (strict.k, strict.m, strict.outcome) == (7, 6, "fail")
    loose = run(RelationKind.COINCIDENCE, rows, threshold="0.85")
    assert (loose.k, loose.m, loose.outcome) == (7, 6, "valid")


def test_vacuous_monitor():
    r = run(RelationKind.SUBCLOCK, [(0, 1), (0, 0)])
    assert r.outcome == "vacuous"
    assert r.k == 0 and r.probability is None
    empty = run(RelationKind.SUBCLOCK, [])
    assert (empty.k, empty.m, empty.outcome) == (0, 0, "vacuous")


def test_verdict_is_frozen_and_repeatable():
    rows = [(1, 1)] * 4
    first = run(RelationKind.SUBCLOCK, rows)
    assert (first.k, first.m, first.outcome) == (4, 4, "valid")
    with pytest.raises(AttributeError):
        first.k = 99  # type: ignore[misc]
    assert first.k == 4
    assert run(RelationKind.SUBCLOCK, rows) == first


def test_sample_cap_freezes_early():
    rows = [(1, 1)] * 5 + [(1, 0)] * 5
    r = run(RelationKind.SUBCLOCK, rows, sample_size=5)
    assert (r.k, r.m) == (5, 5)
    assert r.outcome == "valid"
    uncapped = run(RelationKind.SUBCLOCK, rows)
    assert (uncapped.k, uncapped.m) == (10, 5)
    assert uncapped.outcome == "fail"


def test_sample_cap_keeps_first_union_ticks_in_step_order():
    # union in step order: 0 (a), 1 (b), 2 (both), 3 (a), 4 (both)
    rows = [(1, 0), (0, 1), (1, 1), (1, 0), (1, 1)]
    coinc = run(RelationKind.COINCIDENCE, rows, sample_size=3)
    assert (coinc.k, coinc.m) == (3, 1)
    excl = run(RelationKind.EXCLUSION, rows, sample_size=4)
    assert (excl.k, excl.m) == (4, 3)
    assert (run(RelationKind.EXCLUSION, rows, sample_size=9).k) == 5


C, P = RelationKind.CAUSALITY, RelationKind.PRECEDENCE


@pytest.mark.parametrize(
    "a,b,cap,expected",
    [
        # right longer: at 1 h1 = h2 = 0 but b ticks too; at 4 and 6 h2 = 3
        ([1, 4, 6], [1, 2, 3, 7, 8], None, {C: (3, 1), P: (3, 0)}),
        # right shorter: at 3, 4, 5 h2 = 3 > h1; at 6 h1 = h2 = 3, b silent
        ([3, 4, 5, 6], [0, 1, 2], None, {C: (4, 1), P: (4, 1)}),
        # equal lengths: at 3 h1 = h2 = 1 with b ticking; at 5 h2 = 3 > 2
        ([1, 3, 5], [2, 3, 4], None, {C: (3, 2), P: (3, 1)}),
        # empty right: h2 = 0 at every left tick
        ([0, 4, 9], [], None, {C: (3, 3), P: (3, 3)}),
        # same dates: h1 = h2 at each tick and b ticks on it
        ([1, 4, 7], [1, 4, 7], None, {C: (3, 3), P: (3, 0)}),
        # cap 2 < len(right) = 3 keeps the failing ticks at 3 and 4 only
        ([3, 4, 5, 6], [0, 1, 2], 2, {C: (2, 0), P: (2, 0)}),
        # cap 4 > len(right) keeps all four left ticks
        ([3, 4, 5, 6], [0, 1, 2], 4, {C: (4, 1), P: (4, 1)}),
    ],
)
def test_causes_and_precedes_by_operand_lengths(a, b, cap, expected):
    t = Trace.from_dates(["a", "b"], 10, {"a": a, "b": b})
    for kind, counts in expected.items():
        (r,) = check_relations([spec(kind, sample_size=cap)], t)
        assert (r.k, r.m) == counts, kind


def test_set_relations_by_operand_lengths():
    # (a, b, subclock, coincides, excludes), counted from the table:
    # subclock over a's ticks, the other two over ticks of either
    cases = [
        ([1, 4, 6], [1, 2, 3, 7, 8], (3, 1), (7, 1), (7, 6)),
        ([1, 2, 3, 7, 8], [1, 4, 6], (5, 1), (7, 1), (7, 6)),
        ([0, 4, 9], [], (3, 0), (3, 0), (3, 3)),
        ([1, 4, 7], [1, 4, 7], (3, 3), (3, 3), (3, 0)),
    ]
    for a, b, *expected in cases:
        t = Trace.from_dates(["a", "b"], 10, {"a": a, "b": b})
        kinds = [RelationKind.SUBCLOCK, RelationKind.COINCIDENCE, RelationKind.EXCLUSION]
        results = check_relations([spec(kind) for kind in kinds], t)
        assert [(r.k, r.m) for r in results] == expected, (a, b)


@pytest.mark.parametrize(
    "a,b,uncapped,first",
    [
        # (k, m) in RelationKind order: subclock, coincides, excludes,
        # causes, precedes; uncapped and with a cap of 1
        # run on the right, b = 2..6: causes beats left at 1, 3, 4 but
        # not at 8 (h2 = 5 > 3); precedes only at 1, since b ticks on 3, 4
        ([1, 3, 4, 8], [2, 3, 4, 5, 6],
         [(4, 2), (7, 2), (7, 5), (4, 3), (4, 1)], [(1, 0), (1, 0), (1, 1), (1, 1), (1, 1)]),
        # run on the left, a = 2..5: b at 0 is ahead of a at 2; at 3
        # h1 = h2 = 1 with b ticking; at 5 b has run out of dates
        ([2, 3, 4, 5], [0, 3, 7],
         [(4, 1), (6, 1), (6, 5), (4, 3), (4, 2)], [(1, 0), (1, 0), (1, 1), (1, 0), (1, 0)]),
        # runs on both sides from the same step: h1 = h2 with b ticking
        # at 2, 3, 4, then b has run out of dates at 5 and 6
        ([2, 3, 4, 5, 6], [2, 3, 4],
         [(5, 3), (5, 3), (5, 2), (5, 5), (5, 2)], [(1, 1), (1, 1), (1, 0), (1, 1), (1, 0)]),
        # a single date is a run on both sides
        ([5], [5],
         [(1, 1), (1, 1), (1, 0), (1, 1), (1, 0)], [(1, 1), (1, 1), (1, 0), (1, 1), (1, 0)]),
        # an empty operand on either side of a run, and on both sides
        ([], [4, 5, 6],
         [(0, 0), (3, 0), (3, 3), (0, 0), (0, 0)], [(0, 0), (1, 0), (1, 1), (0, 0), (0, 0)]),
        ([4, 5, 6], [],
         [(3, 0), (3, 0), (3, 3), (3, 3), (3, 3)], [(1, 0), (1, 0), (1, 1), (1, 1), (1, 1)]),
        ([], [], [(0, 0)] * 5, [(0, 0)] * 5),
    ],
)
def test_runs_of_consecutive_dates_on_either_side(a, b, uncapped, first):
    t = Trace.from_dates(["a", "b"], 10, {"a": a, "b": b})
    for cap, expected in ((None, uncapped), (1, first), (20, uncapped)):
        results = check_relations([spec(kind, sample_size=cap) for kind in RelationKind], t)
        assert [(r.k, r.m) for r in results] == expected, cap


def test_missing_clock_becomes_relation_error():
    t = Trace.from_dates(["a"], 1, {"a": [0]})
    (r,) = check_relations([spec(RelationKind.SUBCLOCK, right="nope")], t)
    assert isinstance(r, RelationError)
    assert r.id == "T" and "nope" in r.message


def test_check_preserves_spec_order_and_isolation():
    t = Trace.from_dates(["a", "b"], 1, {"a": [0], "b": [0]})
    specs = [
        RelationSpec("ok", RelationKind.COINCIDENCE, Ref("a"), Ref("b"), Fraction(1)),
        RelationSpec("bad", RelationKind.COINCIDENCE, Ref("a"), Ref("zz"), Fraction(1)),
        RelationSpec("ok2", RelationKind.EXCLUSION, Ref("a"), Ref("b"), Fraction(1, 2)),
    ]
    results = check_relations(specs, t)
    assert [r.id for r in results] == ["ok", "bad", "ok2"]
    assert isinstance(results[0], Verdict) and results[0].outcome == "valid"
    assert isinstance(results[1], RelationError)
    assert isinstance(results[2], Verdict) and results[2].outcome == "fail"


def test_relation_spec_validation():
    with pytest.raises(ValueError):
        RelationSpec("x", RelationKind.SUBCLOCK, Ref("a"), Ref("b"), Fraction(3, 2))
    with pytest.raises(ValueError):
        RelationSpec("x", RelationKind.SUBCLOCK, Ref("a"), Ref("b"), Fraction(-1, 2))
    with pytest.raises(ValueError):
        RelationSpec("", RelationKind.SUBCLOCK, Ref("a"), Ref("b"), Fraction(1, 2))
    with pytest.raises(ValueError):
        RelationSpec("x", RelationKind.SUBCLOCK, Ref("a"), Ref("b"), Fraction(1, 2), 0)
    # a float threshold would fail later in the verdict, True would be
    # reported as threshold=True, sample_size=True would cap the sample
    # at 1 and 2.5 would fail as a slice bound
    for threshold in (0.5, Decimal("0.5"), "1/2", True, False):
        with pytest.raises(ValueError, match="threshold must be an int or a Fraction"):
            RelationSpec("x", RelationKind.SUBCLOCK, Ref("a"), Ref("b"), threshold)
    for sample_size in (True, False, 2.5, "3", Fraction(3)):
        with pytest.raises(ValueError, match="sample size must be an int or None"):
            RelationSpec("x", RelationKind.SUBCLOCK, Ref("a"), Ref("b"), Fraction(1, 2), sample_size)
    # any other kind would be counted as precedence
    for kind in ("subclock", None, RelationKind):
        with pytest.raises(ValueError, match="kind must be a RelationKind"):
            RelationSpec("x", kind, Ref("a"), Ref("b"), Fraction(1, 2))
    record = RelationSpec("x", RelationKind.SUBCLOCK, Ref("a"), Ref("b"), 1, 3)
    with pytest.raises(ValueError, match="kind must be a RelationKind, got 'subclock'"):
        record._replace(kind="subclock")
    with pytest.raises(ValueError, match="threshold must be an int or a Fraction"):
        record._replace(threshold=0.5)
    with pytest.raises(ValueError, match="sample size must be an int or None"):
        record._replace(sample_size=True)


def test_memory_grows_with_ticks_not_steps():
    n = 1_000_000
    dates = {"a": [3, 400_000, 999_999], "b": [10, 20, 500_000, 700_000], "c": [5, 600_000, 900_000]}
    left = PeriodicOn(Inf(Ref("a"), Ref("c")), 2)
    right = DelayFor(Sup(Ref("b"), Ref("c")), 2, Ref("b"))
    specs = [
        RelationSpec(kind.value, kind, left if i % 2 else Ref("a"), right if i % 2 else Ref("b"), Fraction(1, 2))
        for i, kind in enumerate(RelationKind)
    ]
    tracemalloc.start()
    try:
        trace = Trace.from_dates(["a", "b", "c"], n, dates)
        results = check_relations(specs, trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(isinstance(r, Verdict) for r in results)
    assert peak < 2**20

"""Monitors for the five probabilistic clock relations.

Each monitor reduces a trace to two counters: k, the number of
observation points, and m, the number of those that satisfy the
relation.  The counts are closed forms over the two operands' sorted
date lists, so no step is visited on its own.  At the j-th left date
(from 0) the left history is j; the right history h2 is at most j iff
fewer than j + 1 right dates lie before it, that is iff right[j] is at
or after left[j] or right has at most j dates.  So causes counts
sum(right[j] >= left[j]) + max(0, len(left) - len(right)), and precedes
the same with ">", since a right tick on the date counts against it.
Subclock, coincides and excludes count the shared dates of the lists.
Dates are a ``range`` for a clock that ticks on every step and for the
progressions derived from one, and a ``list`` otherwise.  Two ranges
share one progression of dates, whose stride is the lcm of theirs.  A
list shares with a range its dates inside the range's span that are on
its stride: all of them for stride 1, two bisects.  Two lists count
with a set.  When either operand is a range of stride 1, or both are
ranges, right[j] - left[j] is monotone in j, so the j that beat left[j]
are a prefix or a suffix of them: causes and precedes find its end with
one bisect, and count every other pair of operands pair by pair.

The verdict is a fixed-sample hypothesis test: the relation holds at
threshold p iff m/k >= p, compared in exact rational arithmetic.  A
monitor with a sample size N keeps only the first N observations in
step order, freezing its verdict once k reaches N.

RelationSpec, Verdict and RelationError are named tuples, so assigning
to a field raises AttributeError.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from enum import Enum, unique
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import ge, gt, mod
from typing import Sequence

from . import _EXPORTS
from .clocks import Trace
from .exprs import ClockExpr, _monotone, clocks_of, eval_expr

__all__ = _EXPORTS["relations"]


@unique
class RelationKind(Enum):
    SUBCLOCK = "subclock"
    COINCIDENCE = "coincidence"
    EXCLUSION = "exclusion"
    CAUSALITY = "causality"
    PRECEDENCE = "precedence"


class RelationSpec(namedtuple("RelationSpec", "id kind left right threshold sample_size",
                              defaults=(None,))):
    """One probabilistic relation to monitor (a named tuple).

    ``kind`` is a RelationKind member and ``threshold`` the probability
    bound p as an exact rational (an int or a Fraction) in [0, 1].
    ``sample_size`` of None means the whole trace is the sample; a
    positive int N freezes the verdict once k reaches N.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RelationSpec:
        self = super().__new__(cls, *args, **kwargs)
        if not self.id:
            raise ValueError("relation id must be nonempty")
        if not isinstance(self.kind, RelationKind):
            raise ValueError(f"kind must be a RelationKind, got {self.kind!r}")
        p, size = self.threshold, self.sample_size
        # a bool is an int, but True would be reported as threshold=True
        if isinstance(p, bool) or not isinstance(p, (int, Fraction)):
            raise ValueError(f"threshold must be an int or a Fraction, got {p!r}")
        if not 0 <= p <= 1:
            raise ValueError(f"threshold must be in [0, 1], got {p}")
        if size is not None and (isinstance(size, bool) or not isinstance(size, int)):
            raise ValueError(f"sample size must be an int or None, got {size!r}")
        if size is not None and size < 1:
            raise ValueError(f"sample size must be positive, got {size}")
        return self

    @classmethod
    def _make(cls, iterable) -> RelationSpec:  # so that _replace checks too
        return cls(*iterable)


class Verdict(namedtuple("Verdict", "id kind k m probability threshold outcome")):
    """Final judgement of one relation on one trace; outcome is "valid", "fail" or "vacuous"."""

    __slots__ = ()


class RelationError(namedtuple("RelationError", "id message")):
    """A relation that could not be evaluated (reported, not raised; a named tuple)."""

    __slots__ = ()


CheckResult = Verdict | RelationError


def check_relations(specs: Sequence[RelationSpec], trace: Trace) -> list[CheckResult]:
    """Monitor every relation over the trace.

    Returns one result per spec, in spec order.  A relation that cannot
    be evaluated (a referenced clock missing from the trace) yields a
    RelationError entry; the remaining relations are still checked.
    Identical sub-expressions across relations are evaluated once.
    """
    results: list[CheckResult] = []
    cache: dict[ClockExpr, Sequence[int]] = {}
    for spec in specs:
        missing = sorted(
            name
            for name in clocks_of(spec.left) | clocks_of(spec.right)
            if name not in trace
        )
        if missing:
            results.append(
                RelationError(spec.id, f"unknown clock(s) in trace: {', '.join(missing)}")
            )
            continue
        left = eval_expr(spec.left, trace, cache)
        right = eval_expr(spec.right, trace, cache)
        k, m = _count(spec.kind, left, right, spec.sample_size)
        results.append(_verdict(spec, k, m))
    return results


def _count(
    kind: RelationKind, left: Sequence[int], right: Sequence[int], cap: int | None
) -> tuple[int, int]:
    """(k, m) of one relation from its operands' date lists.

    Only the first ``cap`` observations in step order count when a cap
    is given.
    """
    if kind is RelationKind.COINCIDENCE or kind is RelationKind.EXCLUSION:
        # observations are the dates in the union of both lists
        both = _overlap(left, right)
        k = len(left) + len(right) - both
        if cap is not None and k > cap:
            last = sorted(set(left[:cap]).union(right[:cap]))[cap - 1]  # the cap-th union date
            left, right = left[:bisect_right(left, last)], right[:bisect_right(right, last)]
            both, k = _overlap(left, right), cap
        return k, both if kind is RelationKind.COINCIDENCE else k - both
    # observations are the left dates; at the j-th one h1 = j
    if cap is not None:
        left = left[:cap]
    if kind is RelationKind.SUBCLOCK:
        return len(left), _overlap(left, right)
    # h2 <= j iff right has at most j dates or right[j] is at or after
    # left[j]; precedes needs it strictly after, since a right tick on
    # the date counts against it
    beats = ge if kind is RelationKind.CAUSALITY else gt
    n = min(len(left), len(right))
    if _monotone(left, right):  # the j beaten are a prefix or a suffix of range(n)
        head = n > 0 and beats(right[0], left[0])
        edge = bisect_left(range(n), True, key=lambda j: beats(right[j], left[j]) is not head)
        beaten = edge if head else n - edge
    else:
        beaten = sum(map(beats, right, left))
    return len(left), beaten + max(0, len(left) - len(right))


def _overlap(left: Sequence[int], right: Sequence[int]) -> int:
    """The number of dates in both lists, without building their intersection."""
    if isinstance(left, range) and isinstance(right, range):
        # left's dates inside right's span, from date a at stride s, are
        # on right's grid (b, stride t) at the i with i * s = b - a (mod t):
        # none unless gcd(s, t) divides b - a, else every (t / gcd)-th i
        # from the i0 with (s / gcd) * i0 = (b - a) / gcd (mod t / gcd)
        span = left[bisect_left(left, right.start):bisect_left(left, right.stop)]
        shift, g = right.start - span.start, gcd(span.step, right.step)
        if shift % g:
            return 0
        cycle = right.step // g
        return len(range(shift // g * pow(span.step // g, -1, cycle) % cycle, len(span), cycle))
    for grid, other in ((left, right), (right, left)):
        if isinstance(grid, range):  # other's dates in grid's span that are on its stride
            low, high = bisect_left(other, grid.start), bisect_left(other, grid.stop)
            if grid.step == 1:
                return high - low
            return list(map(mod, other[low:high], repeat(grid.step))).count(grid.start % grid.step)
    few, many = sorted((left, right), key=len)
    rest = set(few)
    rest.difference_update(many)
    return len(few) - len(rest)


def _verdict(spec: RelationSpec, k: int, m: int) -> Verdict:
    """Decide the verdict of ``spec`` from its counts.

    valid iff m/k >= p, checked as m*den(p) >= num(p)*k so the
    comparison is exact for any k; k = 0 is vacuous.
    """
    p = spec.threshold
    if k == 0:
        outcome = "vacuous"
        probability = None
    else:
        probability = Fraction(m, k)
        outcome = "valid" if m * p.denominator >= p.numerator * k else "fail"
    return Verdict(
        id=spec.id,
        kind=spec.kind,
        k=k,
        m=m,
        probability=probability,
        threshold=p,
        outcome=outcome,
    )

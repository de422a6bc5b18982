"""Brute-force reference semantics used only by the test suite.

Everything here walks the trace step by step and applies the per-step
tick and history definitions literally: t_c(i) is membership of step i
in the clock's dates, and h_c(i+1) = h_c(i) + t_c(i).  It deliberately
shares no algorithmic code with the date-list engine in exprs.py and
relations.py, which never visits a step on its own: slow, obvious, and
independent is the point.  Not exported through the CLI.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .exprs import ClockExpr, DelayFor, Inf, PeriodicOn, Ref, Sup

__all__ = ["oracle_relation", "oracle_expr"]

DateList = list[int]


def oracle_relation(
    kind: object, c1: Sequence[int], c2: Sequence[int], n: int, *, cap: int | None = None
) -> tuple[int, int]:
    """Count (k, m) for one relation by literal per-step summation.

    ``kind`` may be a RelationKind member or its string value.  ``c1``
    and ``c2`` are sorted date lists with entries in [0, n).  With a
    ``cap``, counting stops at the step where k reaches it.
    """
    name = getattr(kind, "value", kind)
    s1 = set(c1)
    s2 = set(c2)
    k = m = h1 = h2 = 0
    for i in range(n):
        if cap is not None and k >= cap:
            break
        t1 = i in s1
        t2 = i in s2
        if name == "subclock":
            if t1:
                k += 1
                m += t1 and t2
        elif name == "coincidence":
            if t1 or t2:
                k += 1
                m += t1 and t2
        elif name == "exclusion":
            if t1 or t2:
                k += 1
                m += t1 != t2
        elif name == "causality":
            if t1:
                k += 1
                m += h1 >= h2
        elif name == "precedence":
            if t1:
                k += 1
                m += h1 >= h2 and not (h1 == h2 and t2)
        else:
            raise ValueError(f"unknown relation kind {kind!r}")
        h1 += t1
        h2 += t2
    return k, m


def oracle_expr(expr: ClockExpr, dates: Mapping[str, Sequence[int]], n: int) -> DateList:
    """Evaluate an expression to the date list of its derived clock.

    Walks steps 0..n-1 with the operands' ticks and histories and
    applies the per-step definitions: PeriodicOn ticks where base ticks
    and h_base is a multiple of p; a DelayFor base tick at step j falls
    due on the ref tick whose pre-tick history is h_ref(j+1) + d - 1;
    Inf ticks whenever its own history would fall behind
    max(h_left, h_right) after the step, Sup whenever it would fall
    behind min(h_left, h_right).
    """
    if isinstance(expr, Ref):
        out = sorted(dates[expr.clock])
        if out and not 0 <= out[0] <= out[-1] < n:
            raise ValueError(f"dates of {expr.clock!r} outside [0, {n})")
        return out
    out: DateList = []
    if isinstance(expr, PeriodicOn):
        base = set(oracle_expr(expr.base, dates, n))
        h_base = 0
        for i in range(n):
            t_base = i in base
            if t_base and h_base % expr.period == 0:
                out.append(i)
            h_base += t_base
        return out
    if isinstance(expr, DelayFor):
        base = set(oracle_expr(expr.base, dates, n))
        ref = set(oracle_expr(expr.ref, dates, n))
        due: set[int] = set()  # pre-tick ref histories at which a delay expires
        h_ref = 0
        for i in range(n):
            t_ref = i in ref
            if t_ref and h_ref in due:
                out.append(i)
            if i in base:
                due.add(h_ref + t_ref + expr.delay - 1)
            h_ref += t_ref
        return out
    if isinstance(expr, (Inf, Sup)):
        left = set(oracle_expr(expr.left, dates, n))
        right = set(oracle_expr(expr.right, dates, n))
        bound = max if isinstance(expr, Inf) else min
        h_left = h_right = h = 0
        for i in range(n):
            h_left += i in left
            h_right += i in right
            if h < bound(h_left, h_right):
                out.append(i)
                h += 1
        return out
    raise ValueError(f"not a clock expression: {expr!r}")

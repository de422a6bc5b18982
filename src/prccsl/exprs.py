"""Clock expressions and their evaluation over date lists.

Expressions derive new clocks from existing ones:

* ``Ref(c)``                 ticks exactly when clock c ticks
* ``PeriodicOn(base, p)``    every p-th tick of base, starting at the first
* ``DelayFor(base, d, ref)`` each base tick is re-emitted at the d-th ref
                             tick strictly after it
* ``Inf(a, b)``              the slowest clock faster than both operands
* ``Sup(a, b)``              the fastest clock slower than both operands

Each kind is a plain frozen class that only declares its fields; their
base class checks, hashes, compares, prints and pickles the nodes, and
the dataclasses API works on them, importing ``dataclasses`` when used.

A derived clock is computed as its date list, the sorted steps at which
it ticks, from the date lists of its operands; no step is visited on
its own.  Evaluation is a pure function of the input trace.  A trace
stores a clock that ticks on every step as a ``range``, and the
progressions derived from one stay ranges: ``PeriodicOn`` slices a
range to a range, ``DelayFor`` of a range on a range of stride 1 shifts
it, and ``Inf``/``Sup`` of two ranges that do not cross is one of them.
Every other result is a ``list``, so compare results with ``list(...)``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import le
from typing import Sequence

from . import _EXPORTS
from .clocks import Trace, validate_clock_name
from .errors import DeclarationError, ExpressionError

__all__ = _EXPORTS["exprs"]


class _Node:
    """The shared part of the node kinds, which only declare their fields.

    A field's annotation gives its role: an operand, a positive count or
    a clock name.  A node keeps its hash and its clock names, computed
    from its operands' kept ones, and equality compares operand tuples,
    which skip operands that are the same object: definitions that
    reuse one another make a DAG whose tree form is exponentially large.
    A kept hash holds only in its own process (str hashes are salted),
    so a node pickles as its constructor call.
    """

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = tuple(cls.__annotations__)
        # (field, role) pairs, operands first: DelayFor(Ref("a"), 0, "ms")
        # names its ref, not its delay
        cls._roles = sorted(cls.__annotations__.items(), key=lambda field: field[1] != "ClockExpr")
        cls.__dataclass_fields__ = _DataclassFields()

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args), **kwargs)
            if len(given) != len(args) + len(kwargs) or given.keys() != set(names):
                raise TypeError(f"{type(self).__name__}() takes each of the fields {', '.join(names)} once")
            args = tuple(map(given.__getitem__, names))
        fields = dict(zip(names, args))
        clocks: set[str] = set()
        for name, role in self._roles:
            value = fields[name]
            if role == "ClockExpr":
                if not isinstance(value, _Node):
                    raise ExpressionError(f"{name} operand is not a clock expression: {value!r}")
                clocks |= value._clocks
            # a bool is an int, but True would render as "period True"
            if role == "int" and (not isinstance(value, int) or isinstance(value, bool) or value < 1):
                raise ExpressionError(f"{name} must be a positive integer, got {value!r}")
            if role == "str":
                try:
                    validate_clock_name(value)
                except DeclarationError as exc:
                    raise ExpressionError(str(exc)) from None
                clocks.add(value)
        # the hash of __reduce__(), and set past the frozen __setattr__
        self.__dict__.update(fields, _hash=hash((type(self), args)), _clocks=frozenset(clocks))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __replace__(self, **changes: object) -> _Node:
        """``copy.replace`` (Python 3.13), which checks the new values as the constructor does."""
        return type(self)(**dict(zip(self.__match_args__, self.__reduce__()[1]), **changes))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and self.__reduce__() == other.__reduce__()

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), tuple(map(self.__getattribute__, self.__match_args__))


class _DataclassFields:
    """A kind's ``__dataclass_fields__``, made and kept when first read: only its users import ``dataclasses``."""

    def __get__(self, node: _Node | None, kind: type[_Node]) -> dict:
        from dataclasses import make_dataclass

        fields = make_dataclass(kind.__name__, kind.__annotations__.items()).__dataclass_fields__
        kind.__dataclass_fields__ = fields
        return fields


class Ref(_Node):
    clock: str


class PeriodicOn(_Node):
    base: ClockExpr
    period: int


class DelayFor(_Node):
    base: ClockExpr
    delay: int
    ref: ClockExpr


class Inf(_Node):
    left: ClockExpr
    right: ClockExpr


class Sup(_Node):
    left: ClockExpr
    right: ClockExpr


ClockExpr = Ref | PeriodicOn | DelayFor | Inf | Sup


def clocks_of(expr: ClockExpr) -> frozenset[str]:
    """All clock names referenced anywhere inside ``expr``, which each node keeps."""
    if not isinstance(expr, _Node):
        raise ExpressionError(f"not a clock expression: {expr!r}")
    return expr._clocks


def eval_expr(
    expr: ClockExpr,
    trace: Trace,
    cache: dict[ClockExpr, Sequence[int]] | None = None,
) -> Sequence[int]:
    """Evaluate ``expr`` to the sorted dates of its derived clock, a range or a list.

    Passing the same ``cache`` dict across calls on one trace lets
    identical sub-expressions be evaluated once and shared; evaluation
    is pure, so sharing never changes results.  Returned dates may be
    shared with the cache and the trace: read them, do not modify them.
    Referencing a clock the trace does not declare raises
    UnknownClockError.
    """
    clocks_of(expr)  # a non-node is an ExpressionError, even one that cannot be hashed
    if cache is None:
        cache = {}
    hit = cache.get(expr)
    if hit is not None:
        return hit
    match expr:
        case Ref(clock):
            dates = trace.dates(clock)
        case PeriodicOn(base, period):
            # the j-th base tick has history j: keep j = 0, p, 2p, ... (a range stays one)
            dates = eval_expr(base, trace, cache)[::period]
        case DelayFor(base, delay, ref):
            dates = _delay_for(eval_expr(base, trace, cache), delay, eval_expr(ref, trace, cache))
        case Inf(left, right) | Sup(left, right):
            a, b = eval_expr(left, trace, cache), eval_expr(right, trace, cache)
            if len(a) < len(b):
                a, b = b, a
            # inf's j-th tick comes with the operand that reaches it first
            # (past the shorter one the longer ticks alone), sup's waits for
            # the one that reaches it last.  When the longer operand is first
            # at every tick, each is an operand as is: when b[j] - a[j] is
            # monotone its ends tell, and else a C-level all() finds it
            # without building a list.  Otherwise merge (these
            # comprehensions run about 3x faster than map(min, ...))
            if _monotone(a, b):
                first = not b or (a[0] <= b[0] and a[len(b) - 1] <= b[-1])
            else:
                first = all(map(le, a, b))
            if first:
                dates = a if isinstance(expr, Inf) else b
            elif isinstance(expr, Inf):
                dates = [x if x < y else y for x, y in zip(a, b)]
                dates.extend(a[len(b):])
            else:
                dates = [x if x > y else y for x, y in zip(a, b)]
    cache[expr] = dates
    return dates


def _monotone(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether b[j] - a[j] is monotone in j, so that its sign changes at most once.

    It is linear for two ranges, and a range of stride 1 rises by
    exactly 1 per j where any date list rises by at least 1.
    """
    return isinstance(a, range) and (isinstance(b, range) or a.step == 1) or isinstance(b, range) and b.step == 1


def _delay_for(base: Sequence[int], delay: int, ref: Sequence[int]) -> Sequence[int]:
    """Map each base date to the ``delay``-th ref date strictly after it.

    Targets past the last ref date are dropped (pending at trace end),
    and base dates whose targets coincide give one output tick.  When
    ref is a range first..last of stride 1 (like ms), a base date d >=
    first is due at d + delay and every date before first at first +
    delay - 1, so the output is a shifted slice of base: a range when
    base is one and no date falls before first.
    """
    if isinstance(ref, range) and ref.step == 1:
        first = ref.start
        start = bisect_left(base, first)
        kept = base[start:bisect_right(base, ref.stop - 1 - delay)]
        if isinstance(kept, range):
            dates = range(kept.start + delay, kept.stop + delay, kept.step)
        else:
            dates = [date + delay for date in kept]
        if start and delay <= len(ref):  # the dates before first, due together
            dates = [first + delay - 1, *dates]
        return dates
    # due[p] is the delay-th ref date after the first p ref dates
    due = ref[delay - 1:]
    # p for each base date: the ref dates at or before it (nondecreasing)
    passed = list(map(bisect_right, repeat(ref), base))
    in_trace = passed[: bisect_left(passed, len(due))]
    return list(map(due.__getitem__, dict.fromkeys(in_trace)))

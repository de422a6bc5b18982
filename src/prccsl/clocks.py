"""Logical clocks, steps, and traces stored as date lists.

A logical clock is a named event source.  Time advances in discrete
steps of one millisecond; at each step a clock either ticks (t_c(i) = 1)
or stays silent.  The history h_c(i) counts the ticks of c at steps
strictly before i, so h_c(0) = 0 and h_c(i+1) = h_c(i) + t_c(i).

A trace stores each clock as its date list, the sorted steps at which
it ticks.  The history at a clock's j-th tick (counting from 0) is then
j, and h_c(i) is the number of dates below i, so expressions and
relations work on these lists without visiting every step.  A clock
that ticks on every step of a nonempty trace is stored as
``range(length)``, and every other clock as a ``list``; both are
read-only sequences of ints, so compare dates with ``list(...)``, since
``range(3) != [0, 1, 2]``.

The universal clock ``ms`` ticks at every step.  A trace carries it as
an ordinary column (the simulator writes one); nothing synthesizes it,
so a relation over ``ms`` on a trace without that column cannot be
evaluated.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Iterable, Mapping, Sequence

from . import _EXPORTS
from .errors import DeclarationError, UnknownClockError

__all__ = _EXPORTS["clocks"]

UNIVERSAL_CLOCK = "ms"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def validate_clock_name(name: str) -> str:
    """Return ``name`` if it is a valid clock identifier, else raise.

    Identifiers are nonempty strings of letters, digits, and
    underscores, not beginning with a digit.
    """
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise DeclarationError(f"invalid clock name {name!r}")
    return name


class Trace:
    """A finite tick record for a fixed, ordered clock alphabet.

    Storage is one sorted list of tick steps per clock plus the length,
    so memory grows with the number of ticks, not with steps x clocks.
    A trace is built complete, by ``from_dates`` (the simulator and the
    CSV reader, whose lists are already sorted, use ``_from_sorted``),
    and never mutated afterwards, so instances are safe to share.
    ``Trace(clocks)`` is the empty trace over a validated alphabet.
    """

    __slots__ = ("_dates", "_length")

    def __init__(self, clocks: Sequence[str]):
        dates: dict[str, Sequence[int]] = {}
        for name in clocks:
            validate_clock_name(name)
            if name in dates:
                raise DeclarationError(f"duplicate clock {name!r}")
            dates[name] = []
        self._dates = dates
        self._length = 0

    @classmethod
    def from_dates(
        cls, clocks: Sequence[str], length: int, dates: Mapping[str, Iterable[int]]
    ) -> "Trace":
        """Build a trace of ``length`` steps from per-clock tick-step lists.

        ``length`` must be an int >= 0 and every date an int; a bool, a
        float or anything else raises ValueError naming the length or
        the clock.  Dates outside [0, length) are ignored and repeated
        dates count once, so schedules may be generated in any order
        without worrying about the trace boundary.  Each input is read
        once into a new sorted list, so the trace never shares the
        caller's lists; one that then holds every step is stored as
        ``range(length)``.  A clock not in ``dates`` never ticks; a name
        in ``dates`` that is not in ``clocks`` raises UnknownClockError.
        """
        if isinstance(length, bool) or not isinstance(length, int) or length < 0:
            raise ValueError(f"trace length must be an int >= 0, got {length!r}")
        kept: dict[str, list[int]] = {}
        for name, steps in dates.items():
            ticks = list(steps)
            for date in ticks:
                if isinstance(date, bool) or not isinstance(date, int):
                    raise ValueError(f"clock {name!r}: date {date!r} is not an int")
            ticks = sorted(set(ticks))
            if ticks and (ticks[0] < 0 or ticks[-1] >= length):
                ticks = ticks[bisect_left(ticks, 0):bisect_left(ticks, length)]
            kept[name] = ticks
        return cls._from_sorted(clocks, length, kept)

    @classmethod
    def _from_sorted(
        cls, clocks: Sequence[str], length: int, dates: Mapping[str, Sequence[int]]
    ) -> "Trace":
        """The trace that stores the lists of ``dates`` themselves.

        Each list must already be strictly increasing inside [0, length);
        it is neither copied nor checked, and clocks given one list share
        it, so the caller hands the lists over and never changes them.
        One as long as the trace holds every step, so it is stored as
        ``range(length)`` (as ``[]`` in an empty trace), and the caller
        may hand over that range instead.
        """
        trace = cls(clocks)
        for name in dates:
            if name not in trace._dates:
                raise UnknownClockError(f"undeclared clock {name!r}")
        every = range(length) if length else []
        trace._dates.update((name, every if len(ticks) == length else ticks) for name, ticks in dates.items())
        trace._length = length
        return trace

    @property
    def clocks(self) -> tuple[str, ...]:
        return tuple(self._dates)

    def __len__(self) -> int:
        return self._length

    def __contains__(self, clock: str) -> bool:
        return clock in self._dates

    def dates(self, clock: str) -> Sequence[int]:
        """The sorted steps at which ``clock`` ticks.

        ``range(len(trace))`` for a clock that ticks on every step, else
        a list.  It is the trace's own storage: read it, do not modify it.
        """
        try:
            return self._dates[clock]
        except KeyError:
            raise UnknownClockError(f"undeclared clock {clock!r}") from None

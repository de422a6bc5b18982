"""Path guards: operands so large that only a closed form can finish.

Every date list here is a ``range`` of about 10**14 dates.  The closed
forms (``exprs._monotone`` deciding causes, precedes and inf/sup
dominance, the gcd congruence of ``relations._overlap`` and the shifted
slice of ``exprs._delay_for``) take microseconds; counting the dates one
by one would take days, so a lost closed form fails at the deadline
instead of passing slowly.  Expected values are integer arithmetic on
the ranges' bounds, not the engine's or the oracle's output.
"""

import faulthandler
import os
import signal

import pytest

from prccsl import DelayFor, Inf, Ref, RelationKind, Sup, Trace, eval_expr
from prccsl.relations import _count, _overlap

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")

DEADLINE = 1  # seconds

N = 10**15
SEVENS = range(0, N, 7)  # 7j
THREES = range(5, N, 3)  # 5 + 3j
LEN7 = (N + 6) // 7
LEN3 = (N - 5 + 2) // 3

CAUSALITY, PRECEDENCE = RelationKind.CAUSALITY, RelationKind.PRECEDENCE


@pytest.fixture(autouse=True)
def deadline(capfd):
    """Fail a test still running after ``DEADLINE`` seconds instead of letting it hang.

    SIGALRM interrupts Python code.  A loop inside one C call (``sum`` or
    ``all`` over a ``map``, where a lost ``_monotone`` leads) never looks
    at signals, so a second later faulthandler ends the whole run with
    exit status 1 and a traceback dump on the real stderr.
    """

    def expire(signum, frame):
        raise TimeoutError(f"still running after {DEADLINE} s: no closed form")

    with capfd.disabled():  # fd 2 is the real stderr only while capture is off
        stderr = os.dup(2)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE)
    faulthandler.dump_traceback_later(DEADLINE + 1, exit=True, file=stderr)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        os.close(stderr)


@pytest.mark.parametrize(
    "kind,left,right,expected",
    [
        # 5 + 3j is at or after 7j at j = 0 and 1 only: a prefix of two
        (CAUSALITY, SEVENS, THREES, (LEN7, 2)),
        (PRECEDENCE, SEVENS, THREES, (LEN7, 2)),
        # 7j is after 5 + 3j from j = 2 on, a suffix; past LEN7 the right
        # clock has no j-th date, so each of those observations holds
        (CAUSALITY, THREES, SEVENS, (LEN3, LEN3 - 2)),
        (PRECEDENCE, THREES, SEVENS, (LEN3, LEN3 - 2)),
        # 4 + 3j ties 7j at j = 1: causes counts the tie, precedes does not
        (CAUSALITY, SEVENS, range(4, N, 3), (LEN7, 2)),
        (PRECEDENCE, SEVENS, range(4, N, 3), (LEN7, 1)),
    ],
    ids=["causes-prefix", "precedes-prefix", "causes-suffix", "precedes-suffix", "causes-tie", "precedes-tie"],
)
def test_causes_and_precedes_of_huge_ranges(kind, left, right, expected):
    assert _count(kind, left, right, None) == expected


def test_overlap_of_huge_ranges():
    # 7i = 5 + 3j exactly for the dates 14 + 21i (x = 0 mod 7, x = 2 mod 3)
    expected = (N - 14 + 20) // 21
    assert _overlap(SEVENS, THREES) == _overlap(THREES, SEVENS) == expected


@pytest.fixture(scope="module")
def trace():
    dates = {"ms": range(N), "a": range(0, N, 3), "b": range(5, N, 7), "s": SEVENS, "t": THREES}
    return Trace._from_sorted(list(dates), N, dates)


@pytest.mark.parametrize("swap", [False, True])
def test_inf_and_sup_of_huge_ranges(trace, swap):
    # 3j <= 5 + 7j at every j both have, so inf is the longer "a" and sup is "b"
    a, b = (Ref("b"), Ref("a")) if swap else (Ref("a"), Ref("b"))
    assert eval_expr(Inf(a, b), trace) == range(0, N, 3)
    assert eval_expr(Sup(a, b), trace) == range(5, N, 7)


@pytest.mark.parametrize("delay", [1, 3, 10**14 + 1])
@pytest.mark.parametrize("base,start,step", [("s", 0, 7), ("t", 5, 3)])
def test_delay_for_of_a_huge_range_on_every_step(trace, base, start, step, delay):
    # each base date d is due at d + delay, kept while that is below N
    last = start + (N - 1 - delay - start) // step * step
    expected = range(start + delay, last + delay + 1, step)
    assert eval_expr(DelayFor(Ref(base), delay, Ref("ms")), trace) == expected

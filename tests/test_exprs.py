import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import prccsl
from prccsl import (
    DelayFor,
    ExpressionError,
    Inf,
    PeriodicOn,
    Ref,
    Sup,
    Trace,
    UnknownClockError,
    clocks_of,
    elaborate,
    eval_expr,
    format_expr,
    parse,
)


def build(columns: dict[str, list[int]], n: int) -> Trace:
    return Trace.from_dates(list(columns), n, columns)


_TRACE = build({"a": [0]}, 2)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: PeriodicOn(Ref("a"), 0), "period must be a positive integer, got 0"),
        (lambda: PeriodicOn(Ref("a"), 2.0), "period must be a positive integer, got 2.0"),
        # a bool is an int, but "period True" would not parse back
        (lambda: PeriodicOn(Ref("a"), True), "period must be a positive integer, got True"),
        (lambda: PeriodicOn(Ref("a"), False), "period must be a positive integer, got False"),
        (lambda: PeriodicOn("a", 0), "base operand is not a clock expression: 'a'"),
        (lambda: DelayFor(Ref("a"), 0, Ref("ms")), "delay must be a positive integer, got 0"),
        (lambda: DelayFor(Ref("a"), True, Ref("ms")), "delay must be a positive integer, got True"),
        # operands are checked before the integers
        (lambda: DelayFor(Ref("a"), 0, "ms"), "ref operand is not a clock expression: 'ms'"),
        (lambda: DelayFor("a", 1, "ms"), "base operand is not a clock expression: 'a'"),
        (lambda: Ref("not a name"), "invalid clock name 'not a name'"),
        (lambda: Ref(5), "invalid clock name 5"),
        (lambda: Ref(""), "invalid clock name ''"),
        (lambda: Inf(Ref("a"), "b"), "right operand is not a clock expression: 'b'"),
        (lambda: Sup("a", "b"), "left operand is not a clock expression: 'a'"),
        (lambda: clocks_of("x"), "not a clock expression: 'x'"),
        (lambda: eval_expr("x", _TRACE), "not a clock expression: 'x'"),
        # checked before the cache lookup, which would raise TypeError on a list
        (lambda: eval_expr(["x"], _TRACE), "not a clock expression: ['x']"),
        (lambda: format_expr("x"), "not a clock expression: 'x'"),
        (lambda: format_expr(["x"]), "not a clock expression: ['x']"),
    ],
    ids=[
        "period-0", "period-float", "period-true", "period-false", "periodic-base", "delay-0",
        "delay-true", "delay-ref-first", "delay-base",
        "ref-space", "ref-int", "ref-empty", "inf-right", "sup-left", "clocks_of", "eval_expr",
        "eval_expr-list", "format_expr", "format_expr-list",
    ],
)
def test_invalid_node_error_type_and_message(make, message):
    with pytest.raises(ExpressionError) as err:
        make()
    assert type(err.value) is ExpressionError
    assert str(err.value) == message


def test_clocks_of_collects_all_leaves():
    expr = Sup(DelayFor(Ref("a"), 2, Ref("ms")), Inf(Ref("b"), PeriodicOn(Ref("c"), 3)))
    assert clocks_of(expr) == {"a", "b", "c", "ms"}


def test_periodic_on_keeps_every_pth_tick():
    base = [0, 2, 5, 6, 9, 11]
    t = build({"b": base}, 12)
    assert eval_expr(PeriodicOn(Ref("b"), 3), t) == base[::3]


def test_periodic_on_period_one_is_identity():
    t = build({"b": [1, 4, 5]}, 6)
    assert eval_expr(PeriodicOn(Ref("b"), 1), t) == t.dates("b")


def test_delay_for_single_tick():
    t = build({"ms": list(range(8)), "b": [0]}, 8)
    assert eval_expr(DelayFor(Ref("b"), 3, Ref("ms")), t) == [3]


def test_delay_for_merges_simultaneous_expiries():
    t = build({"ms": list(range(8)), "b": [0, 1]}, 8)
    assert eval_expr(DelayFor(Ref("b"), 2, Ref("ms")), t) == [2, 3]
    # both pending targets expire on the same ref tick: one output tick
    t2 = build({"ms": list(range(8)), "b": [0, 1], "r": [4]}, 8)
    assert eval_expr(DelayFor(Ref("b"), 1, Ref("r")), t2) == [4]


def test_delay_for_coincident_ref_tick_does_not_count():
    # the ref tick at the base tick's own step must not advance the delay
    t = build({"b": [0], "r": [0, 1, 2]}, 4)
    assert eval_expr(DelayFor(Ref("b"), 2, Ref("r")), t) == [2]


def test_delay_for_pending_discarded_at_trace_end():
    t = build({"ms": list(range(4)), "b": [2]}, 4)
    assert eval_expr(DelayFor(Ref("b"), 5, Ref("ms")), t) == []


def test_delay_for_on_a_ref_run_inside_the_trace():
    # r ticks on steps 4..8 of 12: a base date d >= 4 is due at d + delay
    r = list(range(4, 9))
    t = build({"b": [0, 2, 5, 6, 7, 10], "r": r}, 12)
    # 0 and 2 both fall due at 4 + 2 - 1 = 5; 7 -> 9 and 10 pass the last r tick
    assert eval_expr(DelayFor(Ref("b"), 2, Ref("r")), t) == [5, 7, 8]
    # a date before the run needs delay <= len(r) ref ticks
    t1 = build({"b": [1], "r": r}, 12)
    assert eval_expr(DelayFor(Ref("b"), 5, Ref("r")), t1) == [8]
    assert eval_expr(DelayFor(Ref("b"), 6, Ref("r")), t1) == []
    # base dates 4..6 map to the run 5..7, after the tick at 4 for 1 and 2
    run = build({"b": [1, 2, 4, 5, 6], "r": r}, 12)
    assert eval_expr(DelayFor(Ref("b"), 1, Ref("r")), run) == [4, 5, 6, 7]


def test_delay_for_output_is_subclock_of_ref():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 40)
        b = sorted(rng.sample(range(n), rng.randrange(0, n)))
        r = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
        t = build({"b": b, "r": r}, n)
        out = eval_expr(DelayFor(Ref("b"), rng.randrange(1, 5), Ref("r")), t)
        assert all(i in t.dates("r") for i in out)


def test_inf_sup_worked_example():
    t = build({"c1": [1, 5], "c2": [2, 3]}, 8)
    assert eval_expr(Inf(Ref("c1"), Ref("c2")), t) == [1, 3]
    assert eval_expr(Sup(Ref("c1"), Ref("c2")), t) == [2, 5]


def test_inf_sup_on_unbalanced_clocks():
    t = build({"c1": [0, 1, 2, 3], "c2": [2]}, 6)
    # inf follows the faster clock, keeping its surplus ticks
    assert eval_expr(Inf(Ref("c1"), Ref("c2")), t) == [0, 1, 2, 3]
    # sup follows the slower one and stops with it
    assert eval_expr(Sup(Ref("c1"), Ref("c2")), t) == [2]


def test_inf_sup_history_laws():
    rng = random.Random(21)
    for _ in range(50):
        n = rng.randrange(1, 50)
        cols = {
            "c1": sorted(rng.sample(range(n), rng.randrange(0, n + 1))),
            "c2": sorted(rng.sample(range(n), rng.randrange(0, n + 1))),
        }
        t = build(cols, n)
        inf_ticks = set(eval_expr(Inf(Ref("c1"), Ref("c2")), t))
        sup_ticks = set(eval_expr(Sup(Ref("c1"), Ref("c2")), t))
        h1 = h2 = hi = hs = 0
        for i in range(n):
            assert hi == max(h1, h2)
            assert hs == min(h1, h2)
            h1 += i in t.dates("c1")
            h2 += i in t.dates("c2")
            hi += i in inf_ticks
            hs += i in sup_ticks
        assert hi == max(h1, h2) and hs == min(h1, h2)


def test_eval_expr_unknown_clock():
    t = build({"a": [0]}, 2)
    with pytest.raises(UnknownClockError):
        eval_expr(Ref("missing"), t)


def test_eval_expr_shared_cache_reused():
    t = build({"a": [0, 2], "b": [1]}, 4)
    cache: dict = {}
    first = eval_expr(Inf(Ref("a"), Ref("b")), t, cache)
    again = eval_expr(Inf(Ref("a"), Ref("b")), t, cache)
    assert first is again


def test_inf_and_sup_of_the_same_operands_stay_apart():
    a, b = Ref("a"), Ref("b")
    assert Inf(a, b) != Sup(a, b)
    assert len({Inf(a, b), Sup(a, b)}) == 2
    t = build({"a": [0, 3], "b": [1, 5]}, 6)
    cache: dict = {}
    assert eval_expr(Inf(a, b), t, cache) == [0, 3]
    assert eval_expr(Sup(a, b), t, cache) == [1, 5]
    assert eval_expr(Inf(a, b), t, cache) == [0, 3]


@pytest.mark.parametrize(
    "node, fields",
    [
        (Ref("a"), ("clock",)),
        (PeriodicOn(Ref("a"), 2), ("base", "period")),
        (DelayFor(Ref("a"), 1, Ref("ms")), ("base", "delay", "ref")),
        (Inf(Ref("a"), Ref("b")), ("left", "right")),
        (Sup(Ref("a"), Ref("b")), ("left", "right")),
    ],
    ids=["Ref", "PeriodicOn", "DelayFor", "Inf", "Sup"],
)
def test_nodes_are_frozen_dataclasses(node, fields):
    assert dataclasses.is_dataclass(node)
    assert tuple(field.name for field in dataclasses.fields(node)) == fields
    assert type(node).__match_args__ == fields
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(node, fields[0], Ref("c"))
    assert dataclasses.replace(node) == node
    assert eval(repr(node)) == node


# The contract that @dataclass used to supply, which the plain node classes keep
_DELAY = DelayFor(Ref("a"), 3, Ref("ms"))


def test_nodes_take_their_fields_by_position_or_keyword():
    assert DelayFor(base=Ref("a"), delay=3, ref=Ref("ms")) == _DELAY
    assert DelayFor(Ref("a"), ref=Ref("ms"), delay=3) == _DELAY
    assert Ref(clock="a") == Ref("a")


@pytest.mark.parametrize(
    "make",
    [
        lambda: DelayFor(Ref("a"), 3),  # missing
        lambda: DelayFor(Ref("a"), 3, Ref("ms"), Ref("b")),  # extra
        lambda: DelayFor(Ref("a"), 3, rf=Ref("ms")),  # unknown keyword
        lambda: DelayFor(Ref("a"), 3, Ref("ms"), delay=3),  # given twice
    ],
    ids=["missing", "extra", "unknown", "twice"],
)
def test_a_wrong_field_set_is_a_type_error_naming_the_kind(make):
    with pytest.raises(TypeError, match=r"^DelayFor\(\) takes each of the fields base, delay, ref once$"):
        make()


def test_assigning_or_deleting_a_field_is_a_frozen_instance_error():
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'delay'$"):
        _DELAY.delay = 4
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot delete field 'delay'$"):
        del _DELAY.delay
    assert _DELAY.delay == 3


@pytest.mark.parametrize(
    "node, text",
    [
        (Ref("a"), "Ref(clock='a')"),
        (PeriodicOn(Ref("a"), 2), "PeriodicOn(base=Ref(clock='a'), period=2)"),
        (_DELAY, "DelayFor(base=Ref(clock='a'), delay=3, ref=Ref(clock='ms'))"),
        (Inf(Ref("a"), Ref("b")), "Inf(left=Ref(clock='a'), right=Ref(clock='b'))"),
        (Sup(Ref("a"), Ref("b")), "Sup(left=Ref(clock='a'), right=Ref(clock='b'))"),
    ],
    ids=["Ref", "PeriodicOn", "DelayFor", "Inf", "Sup"],
)
def test_node_repr_is_the_dataclass_text(node, text):
    assert repr(node) == text


def test_the_dataclasses_api_works_on_kinds_and_nodes():
    assert [field.name for field in dataclasses.fields(DelayFor)] == ["base", "delay", "ref"]
    assert [field.name for field in dataclasses.fields(_DELAY)] == ["base", "delay", "ref"]
    assert dataclasses.is_dataclass(Sup) and not dataclasses.is_dataclass(prccsl.exprs._Node)
    assert dataclasses.asdict(_DELAY) == {"base": {"clock": "a"}, "delay": 3, "ref": {"clock": "ms"}}
    assert dataclasses.replace(_DELAY, delay=4) == DelayFor(Ref("a"), 4, Ref("ms"))
    with pytest.raises(ExpressionError, match="delay must be a positive integer, got 0"):
        dataclasses.replace(_DELAY, delay=0)


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace_revalidates():
    assert copy.replace(_DELAY, delay=4) == DelayFor(Ref("a"), 4, Ref("ms"))  # type: ignore[attr-defined]
    with pytest.raises(ExpressionError, match="delay must be a positive integer, got 0"):
        copy.replace(_DELAY, delay=0)  # type: ignore[attr-defined]


def test_nodes_round_trip_through_pickle_and_deepcopy():
    node = Sup(_DELAY, Inf(PeriodicOn(Ref("a"), 2), Ref("b")))
    assert pickle.loads(pickle.dumps(node)) == node
    assert copy.deepcopy(node) == node


def _post_order(exprs):
    """Distinct sub-expressions, every child before its parent, found with dataclasses.fields."""
    seen, order = set(), []

    def visit(expr):
        if expr in seen:
            return
        for field in dataclasses.fields(expr):
            child = getattr(expr, field.name)
            if dataclasses.is_dataclass(child):
                visit(child)
        seen.add(expr)
        order.append(expr)

    for expr in exprs:
        visit(expr)
    return order


@pytest.mark.parametrize(
    "path, count",
    [
        (Path(__file__).resolve().parents[1] / "perfbench" / "dense.prccsl", 17),
        (Path(prccsl.__file__).parent / "data" / "av_requirements.prccsl", 85),
    ],
    ids=["dense", "corpus"],
)
def test_a_dataclasses_walk_finds_every_distinct_node(path, count):
    _, relations = elaborate(parse(path.read_bytes()))
    nodes = _post_order([expr for rel in relations for expr in (rel.left, rel.right)])
    assert len(nodes) == len(set(nodes)) == count


SRC = Path(prccsl.__file__).resolve().parents[1]
_NODE = 'Sup(DelayFor(PeriodicOn(Ref("a"), 2), 1, Ref("ms")), Inf(Ref("a"), Ref("b")))'
_IMPORTS = "import copy, pickle, sys\nfrom prccsl import DelayFor, Inf, PeriodicOn, Ref, Sup\n"


def _python(hash_seed: str, code: str, data: bytes = b"") -> bytes:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
    return subprocess.run(
        [sys.executable, "-c", _IMPORTS + code], input=data, capture_output=True, env=env, check=True
    ).stdout


def test_unpickled_node_hashes_in_its_own_process():
    # str hashes differ between the two seeds, and so do the nodes' kept hashes
    dumped = _python("1", f"e = {_NODE}\nhash(e)\nsys.stdout.buffer.write(pickle.dumps(e))")
    checks = _python(
        "2",
        f"e = pickle.loads(sys.stdin.buffer.read())\nf = {_NODE}\n"
        "print(e == f, hash(e) == hash(f), e in {f}, f in {e}, copy.deepcopy(e) in {f})",
        dumped,
    )
    assert checks.split() == [b"True"] * 5

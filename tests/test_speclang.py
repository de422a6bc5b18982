import sys
from fractions import Fraction

import pytest

from prccsl import (
    DelayFor,
    Definition,
    Inf,
    PeriodicOn,
    Ref,
    RelationError,
    RelationKind,
    RelationSpec,
    SpecFile,
    SpecSyntaxError,
    SpecValidationError,
    Sup,
    Trace,
    check_relations,
    clocks_of,
    elaborate,
    format_expr,
    format_threshold,
    parse,
    pretty_print,
)

SAMPLE = """\
# demo
set steps 100
set samples 50
clock a
clock b
def fast = periodicon ms period 2
def lag = a delayfor 3 on ms
rel r1: fast coincides b prob >= 0.95
rel r2: lag causes inf(a, b) prob >= 1
"""


def test_parse_sample():
    spec = parse(SAMPLE)
    assert (spec.steps, spec.samples) == (100, 50)
    assert spec.clocks == ("a", "b")
    assert [d.name for d in spec.definitions] == ["fast", "lag"]
    assert spec.definitions[0].expr == PeriodicOn(Ref("ms"), 2)
    assert spec.definitions[1].expr == DelayFor(Ref("a"), 3, Ref("ms"))
    r1, r2 = spec.relations
    assert (r1.id, r1.kind, r1.threshold) == ("r1", RelationKind.COINCIDENCE, Fraction(19, 20))
    assert r2.kind == RelationKind.CAUSALITY
    assert r2.right == Inf(Ref("a"), Ref("b"))
    assert r2.threshold == 1


def test_keywords_are_case_insensitive():
    spec = parse("CLOCK a\nReL r: a SUBCLOCKOF ms PROB >= 0.5\n")
    assert spec.relations[0].kind == RelationKind.SUBCLOCK
    assert spec.relations[0].right == Ref("ms")


def test_identifiers_are_case_sensitive():
    with pytest.raises(SpecValidationError):
        parse("clock a\nrel r: A coincides ms prob >= 0.5\n")


def test_all_relops():
    text = "clock a\nclock b\n" + "\n".join(
        f"rel r{i}: a {op} b prob >= 0.5"
        for i, op in enumerate(["subclockof", "coincides", "excludes", "causes", "precedes"])
    )
    kinds = [r.kind for r in parse(text).relations]
    assert kinds == [
        RelationKind.SUBCLOCK,
        RelationKind.COINCIDENCE,
        RelationKind.EXCLUSION,
        RelationKind.CAUSALITY,
        RelationKind.PRECEDENCE,
    ]


def test_delayfor_chains_left_associative():
    spec = parse("clock a\nclock b\ndef d = a delayfor 1 on ms delayfor 2 on b\n")
    assert spec.definitions[0].expr == DelayFor(DelayFor(Ref("a"), 1, Ref("ms")), 2, Ref("b"))


def test_comments_and_blank_lines_ignored():
    spec = parse("\n# note\n\nclock a # trailing\n")
    assert spec.clocks == ("a",)


# one digit past the interpreter's limit on int() of a decimal string
_TOO_LONG = "1" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("clock ms\n", "duplicate"),
        ("clock a\nclock a\n", "duplicate"),
        ("clock a\ndef a = ms\n", "duplicate"),
        ("rel r: nope coincides ms prob >= 0.5\n", "unknown"),
        ("def d = later\nclock later\n", "unknown"),
        ("clock a\nrel r: a coincides a prob >= 1.5\n", "threshold"),
        ("set steps 10\nset steps 20\n", "duplicate"),
        ("set samples 0\n", "at least 1"),
        ("clock a\ndef p = periodicon a period 0\n", "at least 1"),
        ("clock a\ndef p = periodicon a period 1.5\n", "integer"),
        ("clock a\nrel r: a coincides ms prob >= 0.5\nrel q: r excludes ms prob >= 0.5\n", "not a clock"),
        pytest.param(
            "clock a\ndef d = " + "(" * 3000 + "a" + ")" * 3000 + "\n",
            "nested deeper",
            id="3000-parentheses",
        ),
        pytest.param(
            "clock a\ndef d0 = a\n"
            + "".join(f"def d{i} = periodicon d{i - 1} period 1\n" for i in range(1, 3001)),
            "nested deeper",
            id="3000-definition-chain",
        ),
        pytest.param(f"set steps {_TOO_LONG}\n", "too many digits", id="long-steps"),
        pytest.param(f"def p = periodicon ms period {_TOO_LONG}\n", "too many digits", id="long-period"),
        pytest.param(f"def d = ms delayfor {_TOO_LONG} on ms\n", "too many digits", id="long-delay"),
        pytest.param(
            f"rel r: ms coincides ms prob >= 0.{_TOO_LONG}\n", "too many digits", id="long-threshold"
        ),
    ],
)
def test_validation_errors(text, fragment):
    with pytest.raises(SpecValidationError) as err:
        parse(text)
    assert fragment in str(err.value)
    assert err.value.line >= 1


@pytest.mark.parametrize(
    "text",
    [
        "clock\n",
        "clock 9a\n",
        "def d periodicon ms period 2\n",
        "rel r: ms coincides prob >= 0.5\n",
        "rel r: ms coincides ms prob > 0.5\n",
        "def d = inf(ms ms)\n",
        "def d = (ms\n",
        "clock a $\n",
        "set speed 3\n",
        "clock a\ndef p = periodicon a 3\n",
        "def d = ms delayfor x on ms\n",
        "rel r: ms ms prob >= 0.5\n",
        "rel r: ms coincides ms prob >= x\n",
    ],
)
def test_syntax_errors(text):
    with pytest.raises(SpecSyntaxError) as err:
        parse(text)
    assert err.value.line >= 1 and err.value.column >= 1


def test_error_positions_are_precise():
    with pytest.raises(SpecValidationError) as err:
        parse("clock a\nrel r: a coincides nope prob >= 0.5\n")
    assert (err.value.line, err.value.column) == (2, 20)


def test_pretty_print_canonical_forms():
    assert format_expr(Ref("a")) == "a"
    assert format_expr(PeriodicOn(Ref("ms"), 50)) == "(periodicon ms period 50)"
    assert format_expr(DelayFor(Ref("a"), 3, Ref("ms"))) == "(a delayfor 3 on ms)"
    assert format_expr(Inf(Ref("a"), Sup(Ref("b"), Ref("c")))) == "inf(a, sup(b, c))"
    nested = DelayFor(PeriodicOn(Ref("a"), 2), 1, Inf(Ref("a"), Ref("b")))
    assert format_expr(nested) == "((periodicon a period 2) delayfor 1 on inf(a, b))"


def test_pretty_print_groups_statements():
    text = "clock a\nset steps 9\nrel r: a coincides ms prob >= 0.5\ndef d = periodicon a period 2\n"
    printed = pretty_print(parse(text))
    assert printed == (
        "set steps 9\n"
        "clock a\n"
        "def d = (periodicon a period 2)\n"
        "rel r: a coincides ms prob >= 0.5\n"
    )


def test_parse_pretty_print_identity():
    spec = parse(SAMPLE)
    assert parse(pretty_print(spec)) == spec
    assert pretty_print(parse(pretty_print(spec))) == pretty_print(spec)


def test_programmatic_spec_round_trips():
    spec = SpecFile(
        clocks=("x", "y"),
        definitions=(Definition("d", Sup(Ref("x"), Ref("y"))),),
        relations=(
            RelationSpec("r", RelationKind.PRECEDENCE, Ref("d"), Ref("ms"), Fraction(4, 5)),
        ),
        steps=None,
        samples=7,
    )
    assert parse(pretty_print(spec)) == spec


@pytest.mark.parametrize(
    "value,text",
    [
        (Fraction(19, 20), "0.95"),
        (Fraction(1), "1"),
        (Fraction(0), "0"),
        (Fraction(1, 2), "0.5"),
        (Fraction(3, 4), "0.75"),
        (Fraction(1, 8), "0.125"),
        (Fraction(7, 10), "0.7"),
        (Fraction(1, 64), "0.015625"),
    ],
)
def test_format_threshold_minimal_decimal(value, text):
    assert format_threshold(value) == text
    assert Fraction(text) == value


def test_format_threshold_rejects_non_decimal():
    with pytest.raises(ValueError):
        format_threshold(Fraction(1, 3))


def test_elaborate_inlines_definitions():
    clocks, relations = elaborate(parse(SAMPLE))
    assert clocks == ("ms", "a", "b")
    r1, r2 = relations
    assert r1.left == PeriodicOn(Ref("ms"), 2)
    assert r2.left == DelayFor(Ref("a"), 3, Ref("ms"))
    assert r2.right == Inf(Ref("a"), Ref("b"))
    assert r1.sample_size == 50 and r2.sample_size == 50


def test_elaborate_inlines_nested_definitions():
    text = (
        "clock a\n"
        "def one = periodicon a period 2\n"
        "def two = one delayfor 1 on ms\n"
        "rel r: two causes a prob >= 0.5\n"
    )
    _, (r,) = elaborate(parse(text))
    assert r.left == DelayFor(PeriodicOn(Ref("a"), 2), 1, Ref("ms"))
    assert r.sample_size is None


def test_shared_definition_chain_is_checked():
    # each level uses the one below twice: 60 nodes whose tree form has
    # 2**60 leaves; e builds the same structure from its own definitions
    lines = ["clock a", "def d0 = a", "def e0 = a"]
    for i in range(1, 61):
        lines += [f"def d{i} = inf(d{i - 1}, d{i - 1})", f"def e{i} = inf(e{i - 1}, e{i - 1})"]
    lines += ["rel same: d60 coincides e60 prob >= 1", "rel sub: d60 subclockof a prob >= 1"]
    alphabet, relations = elaborate(parse("\n".join(lines)))
    trace = Trace.from_dates(alphabet, 10, {"a": [1, 4, 7]})
    same, sub = check_relations(relations, trace)
    assert (same.k, same.m, same.outcome) == (3, 3, "valid")
    assert (sub.k, sub.m, sub.outcome) == (3, 3, "valid")
    assert clocks_of(relations[0].left) == {"a"}


def test_only_elaborated_relations_are_monitorable():
    spec = parse("clock a\ndef half = periodicon a period 2\nrel r: half subclockof a prob >= 1\n")
    trace = Trace.from_dates(("ms", "a"), 10, {"a": [0, 3, 5, 8]})
    (raw,) = check_relations(spec.relations, trace)
    assert isinstance(raw, RelationError)
    assert (raw.id, raw.message) == ("r", "unknown clock(s) in trace: half")
    (verdict,) = check_relations(elaborate(spec)[1], trace)
    assert (verdict.k, verdict.m, verdict.outcome) == (2, 2, "valid")

import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    Verdict,
    check_relations,
    clocks_of,
    elaborate,
    format_expr,
    format_threshold,
    parse,
    pretty_print,
)
from prccsl.speclang import _decode

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
        "set steps \u0663\n",  # Arabic-Indic digits are not spec numbers
        "rel r: ms coincides ms prob >= \u0660.\u0665\n",
    ],
)
def test_syntax_errors(text):
    with pytest.raises(SpecSyntaxError) as err:
        parse(text)
    assert err.value.line >= 1 and err.value.column >= 1


@pytest.mark.parametrize(
    "text,line,column",
    [
        ("set steps \u0663\n", 1, 11),
        ("clock a\nrel r: a coincides a prob >= \u0660.\u0665\n", 2, 30),
    ],
)
def test_non_ascii_digit_is_an_unexpected_character(text, line, column):
    with pytest.raises(SpecSyntaxError) as err:
        parse(text)
    digit = text.splitlines()[line - 1][column - 1]
    assert digit.isdigit() and not digit.isascii()
    assert (err.value.message, err.value.line, err.value.column) == (
        f"unexpected character {digit!r}",
        line,
        column,
    )


def test_error_positions_are_precise():
    with pytest.raises(SpecValidationError) as err:
        parse("clock a\nrel r: a coincides nope prob >= 0.5\n")
    assert (err.value.line, err.value.column) == (2, 20)


def _walk(text):
    """The (line, column) just past ``text``, one character at a time."""
    line, column, after_cr = 1, 1, False
    for char in text:
        if char == "\n" and after_cr:
            pass  # the end of a "\r\n", counted at its "\r"
        elif char in "\r\n":
            line, column = line + 1, 1
        else:
            column += 1
        after_cr = char == "\r"
    return line, column


_PIECES = [b"a", "\u03b4".encode("utf-8"), b"\r", b"\n", b"\r\n", b"\xff"]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bom=st.booleans(), pieces=st.lists(st.sampled_from(_PIECES), max_size=12))
def test_decode_reads_spec_bytes_as_text_mode_does(tmp_path, bom, pieces):
    data = b"\xef\xbb\xbf" * bom + b"".join(pieces)
    if b"\xff" not in pieces:
        path = tmp_path / "s.prccsl"
        path.write_bytes(data)
        assert _decode(data) == path.read_text(encoding="utf-8-sig")
        return
    head = b"".join(pieces[: pieces.index(b"\xff")]).decode("utf-8")
    with pytest.raises(SpecSyntaxError) as err:
        _decode(data)
    assert (err.value.message, err.value.line, err.value.column) == ("not valid UTF-8", *_walk(head))


def test_a_lone_cr_ends_a_line_where_an_error_is_placed():
    with pytest.raises(SpecValidationError) as err:
        parse("clock a\rclock a\r")
    assert (err.value.message, err.value.line, err.value.column) == ("duplicate name 'a'", 2, 7)


@pytest.mark.parametrize("text", ["\ufeffclock a\n", "# c\rclock a\n", b"clock a\n", b"\xef\xbb\xbfclock a\r\n"])
def test_parse_reads_a_byte_order_mark_a_lone_cr_and_bytes_as_the_cli_does(text):
    assert parse(text) == parse("clock a\n") == SpecFile(clocks=("a",))


@pytest.mark.parametrize("data", [None, 3, ["clock a\n"]])
def test_parse_refuses_what_is_neither_text_nor_bytes(data):
    with pytest.raises(TypeError):
        parse(data)


def _outcome(data):
    """The SpecFile parsed from ``data``, or its error as (type, message, line, column)."""
    try:
        return parse(data)
    except (SpecSyntaxError, SpecValidationError) as exc:
        return type(exc), exc.message, exc.line, exc.column


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    bom=st.booleans(),
    lines=st.lists(st.tuples(st.sampled_from(["clock a", "clock b", "# c"]), st.sampled_from(["\n", "\r", "\r\n"]))),
)
def test_spec_bytes_and_spec_text_parse_alike(tmp_path, bom, lines):
    data = ("\ufeff" * bom + "".join(line + end for line, end in lines)).encode("utf-8")
    path = tmp_path / "s.prccsl"
    path.write_bytes(data)
    expected = _outcome(path.read_text(encoding="utf-8-sig"))
    assert _outcome(data) == expected
    assert _outcome(data.decode("utf-8")) == expected


_SYN, _VAL = SpecSyntaxError, SpecValidationError


# one input per place the parser raises: (text, type, message, line, column)
_ERROR_TABLE = [
    ("clock a $\n", _SYN, "unexpected character '$'", 1, 9),
    ("rel r: ms coincides ms >= 0.5\n", _SYN, "expected 'prob', found '>='", 1, 24),
    ("def d periodicon ms period 2\n", _SYN, "expected '=', found keyword 'periodicon'", 1, 7),
    ("clock on\n", _SYN, "keyword 'on' cannot be used as a clock name", 1, 7),
    ("clock 9a\n", _SYN, "expected a clock name, found '9'", 1, 7),
    ("def d = ms delayfor x on ms\n", _SYN, "expected the delay, found 'x'", 1, 21),
    ("clock a\nms\n", _SYN, "expected a statement, found 'ms'", 2, 1),
    ("rel r: ms ms prob >= 0.5\n", _SYN, "expected a relation operator, found 'ms'", 1, 11),
    ("rel r: ms coincides ms prob >= x\n", _SYN, "expected a probability, found 'x'", 1, 32),
    ("set speed 3\n", _SYN, "expected 'steps' or 'samples', found 'speed'", 1, 5),
    ("clock a\ndef d = \n", _SYN, "expected an expression, found end of file", 3, 1),
    ("clock a\ndef p = periodicon a period 1.5\n", _VAL, "the period must be an integer, got 1.5", 2, 29),
    (f"set steps {_TOO_LONG}\n", _VAL, "the steps value has too many digits", 1, 11),
    ("set samples 0\n", _VAL, "the samples value must be at least 1, got 0", 1, 13),
    ("clock a\nclock a\n", _VAL, "duplicate name 'a'", 2, 7),
    ("clock a\nrel r: a coincides nope prob >= 0.5\n", _VAL, "unknown name 'nope'", 2, 20),
    (
        "clock a\nrel r: a coincides ms prob >= 0.5\nrel q: r excludes ms prob >= 0.5\n",
        _VAL,
        "'r' is a relation id, not a clock or definition",
        3,
        8,
    ),
    ("def d = " + "(" * 101 + "ms" + ")" * 101 + "\n", _VAL, "expression nested deeper than 100 levels", 1, 109),
    (f"rel r: ms coincides ms prob >= 0.{_TOO_LONG}\n", _VAL, "threshold has too many digits", 1, 32),
    ("rel r: ms coincides ms prob >= 1.5\n", _VAL, "threshold out of range: 1.5", 1, 32),
    ("set steps 10\nset steps 20\n", _VAL, "duplicate 'set steps'", 2, 1),
]


@pytest.mark.parametrize(
    "text,error,message,line,column", _ERROR_TABLE, ids=[row[2] for row in _ERROR_TABLE]
)
def test_every_parser_error_is_exact(text, error, message, line, column):
    with pytest.raises(error) as err:
        parse(text)
    assert type(err.value) is error
    assert (err.value.message, err.value.line, err.value.column) == (message, line, column)
    # no chained exception shows through, not even int()'s digit-limit ValueError
    assert err.value.__cause__ is None
    assert err.value.__context__ is None or err.value.__suppress_context__


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


def test_inf_and_sup_definitions_elaborate_to_distinct_operands():
    spec = parse(
        "clock a\nclock b\ndef i = inf(a, b)\ndef s = sup(a, b)\n"
        "rel ri: i subclockof a prob >= 0\nrel rs: s subclockof a prob >= 0\n"
    )
    _, (ri, rs) = elaborate(spec)
    assert (ri.left, rs.left) == (Inf(Ref("a"), Ref("b")), Sup(Ref("a"), Ref("b")))
    assert ri.left != rs.left
    # inf ticks at 0 and 3, both on a; sup ticks at 1 and 5, neither on a
    trace = Trace.from_dates(("ms", "a", "b"), 6, {"a": [0, 3], "b": [1, 5]})
    verdicts = check_relations([ri, rs], trace)
    assert [(v.k, v.m) for v in verdicts] == [(2, 2), (2, 0)]


def test_only_elaborated_relations_are_monitorable():
    spec = parse("clock a\ndef half = periodicon a period 2\nrel r: half subclockof a prob >= 1\n")
    trace = Trace.from_dates(("ms", "a"), 10, {"a": [0, 3, 5, 8]})
    (raw,) = check_relations(spec.relations, trace)
    assert isinstance(raw, RelationError)
    assert (raw.id, raw.message) == ("r", "unknown clock(s) in trace: half")
    (verdict,) = check_relations(elaborate(spec)[1], trace)
    assert (verdict.k, verdict.m, verdict.outcome) == (2, 2, "valid")


# record kind -> a field, a record and its repr
_RECORDS = {
    "RelationSpec": (
        "threshold",
        RelationSpec("R1", RelationKind.CAUSALITY, Ref("a"), Ref("ms"), Fraction(1, 2), 5),
        "RelationSpec(id='R1', kind=<RelationKind.CAUSALITY: 'causality'>, left=Ref(clock='a'), "
        "right=Ref(clock='ms'), threshold=Fraction(1, 2), sample_size=5)",
    ),
    "Verdict": (
        "k",
        Verdict("R1", RelationKind.CAUSALITY, 4, 3, Fraction(3, 4), Fraction(1, 2), "valid"),
        "Verdict(id='R1', kind=<RelationKind.CAUSALITY: 'causality'>, k=4, m=3, "
        "probability=Fraction(3, 4), threshold=Fraction(1, 2), outcome='valid')",
    ),
    "RelationError": (
        "message",
        RelationError("R2", "unknown clock(s) in trace: b"),
        "RelationError(id='R2', message='unknown clock(s) in trace: b')",
    ),
    "Definition": (
        "expr",
        Definition("d", PeriodicOn(Ref("ms"), 2)),
        "Definition(name='d', expr=PeriodicOn(base=Ref(clock='ms'), period=2))",
    ),
    "SpecFile": (
        "clocks",
        SpecFile(("a",), (Definition("d", Ref("a")),), (), 10, None),
        "SpecFile(clocks=('a',), definitions=(Definition(name='d', expr=Ref(clock='a')),), "
        "relations=(), steps=10, samples=None)",
    ),
}


@pytest.mark.parametrize("field, record, text", _RECORDS.values(), ids=_RECORDS)
def test_records_are_frozen_and_keep_their_repr(field, record, text):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert repr(record) == text
    restored = pickle.loads(pickle.dumps(record))
    assert (type(restored), restored) == (type(record), record)


def test_spec_file_defaults():
    assert repr(SpecFile()) == "SpecFile(clocks=(), definitions=(), relations=(), steps=None, samples=None)"


def test_relation_spec_replace_checks_the_new_values():
    record = _RECORDS["RelationSpec"][1]
    with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\], got 3/2"):
        record._replace(threshold=Fraction(3, 2))
    assert record._replace(sample_size=None).sample_size is None

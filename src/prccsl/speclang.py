"""Textual specification language: parser, pretty-printer, elaborator.

A spec file is a sequence of statements:

    set steps 60000          # file-level settings
    clock cmrTrig            # declare an event clock
    def prd50 = periodicon ms period 50
    rel R1: cmrTrig coincides prd50 prob >= 0.95

Keywords are case-insensitive and reserved; `#` starts a line comment;
the universal clock ``ms`` is predeclared.  Clock names, definition
names, and relation ids share one flat namespace and every name must
be introduced before use (no forward references).

Relation operators: subclockof, coincides, excludes, causes (weak
ordering: coincident ticks count), precedes (strict ordering).
Expression forms: a bare name, ``periodicon <expr> period N``,
``<expr> delayfor N on <atom>`` (left-associative), ``inf(e, e)``,
``sup(e, e)``, and parentheses.  Thresholds are decimal literals kept
as exact rationals.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, replace
from fractions import Fraction

from .clocks import UNIVERSAL_CLOCK
from .errors import SpecSyntaxError, SpecValidationError
from .exprs import ClockExpr, DelayFor, Inf, PeriodicOn, Ref, Sup
from .relations import RelationKind, RelationSpec

__all__ = [
    "Definition",
    "SpecFile",
    "parse",
    "pretty_print",
    "elaborate",
]

# Bound on expression nesting, so that the recursive parser, elaborator
# and evaluator stay far inside Python's recursion limit.  It applies
# separately to open parentheses and to the nodes on the path down to a
# leaf with definitions inlined; the bundled corpus reaches about 4.
_MAX_DEPTH = 100

KEYWORDS = frozenset(
    {
        "clock",
        "def",
        "rel",
        "set",
        "steps",
        "samples",
        "prob",
        "subclockof",
        "coincides",
        "excludes",
        "causes",
        "precedes",
        "periodicon",
        "period",
        "delayfor",
        "on",
        "inf",
        "sup",
    }
)

_RELOPS = {
    "subclockof": RelationKind.SUBCLOCK,
    "coincides": RelationKind.COINCIDENCE,
    "excludes": RelationKind.EXCLUSION,
    "causes": RelationKind.CAUSALITY,
    "precedes": RelationKind.PRECEDENCE,
}

_KIND_TO_RELOP = {kind: word for word, kind in _RELOPS.items()}


# -- AST ----------------------------------------------------------------


@dataclass(frozen=True)
class Definition:
    name: str
    expr: ClockExpr


@dataclass(frozen=True)
class SpecFile:
    """A parsed spec: its statements grouped by kind, in text order.

    ``clocks`` are the declared clock names and ``steps``/``samples``
    the ``set`` values (None when not set).  A relation's operands may
    still name definitions: only the relations that ``elaborate``
    returns are monitorable.  Given to ``check_relations`` on a trace
    with no clock of that name, a relation that names a definition
    yields a RelationError naming it, never a verdict.
    """

    clocks: tuple[str, ...] = ()
    definitions: tuple[Definition, ...] = ()
    relations: tuple[RelationSpec, ...] = ()
    steps: int | None = None
    samples: int | None = None


# -- tokenizer ----------------------------------------------------------


# type is "kw" | "ident" | "number" | "sym" | "eof"
_Token = namedtuple("_Token", "type text line column")


_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<ge>>=)
      | (?P<sym>[(),:=])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise SpecSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = match.lastgroup
        column = match.start() - line_start + 1
        value = match.group()
        if kind == "nl":
            line += 1
            line_start = match.end()
        elif kind == "number":
            tokens.append(_Token("number", value, line, column))
        elif kind == "word":
            lowered = value.lower()
            if lowered in KEYWORDS:
                tokens.append(_Token("kw", lowered, line, column))
            else:
                tokens.append(_Token("ident", value, line, column))
        elif kind in ("ge", "sym"):
            tokens.append(_Token("sym", value, line, column))
        pos = match.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# -- parser -------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        # flat namespace: name -> node depth of its deepest leaf once
        # inlined (0 for a clock), or None for a relation id
        self.names: dict[str, int | None] = {UNIVERSAL_CLOCK: 0}
        self.open_parens = 0
        self.clocks: list[str] = []
        self.definitions: list[Definition] = []
        self.relations: list[RelationSpec] = []
        self.settings: dict[str, int] = {}  # "steps" / "samples" -> value

    # token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, message: str, token: _Token):
        raise SpecSyntaxError(message, token.line, token.column)

    def expect_kw(self, word: str) -> _Token:
        token = self.peek()
        if token.type == "kw" and token.text == word:
            return self.advance()
        self.fail(f"expected '{word}', found {_describe(token)}", token)

    def expect_sym(self, sym: str) -> _Token:
        token = self.peek()
        if token.type == "sym" and token.text == sym:
            return self.advance()
        self.fail(f"expected '{sym}', found {_describe(token)}", token)

    def expect_ident(self, role: str) -> _Token:
        token = self.peek()
        if token.type == "ident":
            return self.advance()
        if token.type == "kw":
            self.fail(f"keyword '{token.text}' cannot be used as {role}", token)
        self.fail(f"expected {role}, found {_describe(token)}", token)

    def expect_nat(self, role: str, minimum: int = 1) -> int:
        token = self.peek()
        if token.type != "number":
            self.fail(f"expected {role}, found {_describe(token)}", token)
        self.advance()
        if "." in token.text:
            raise SpecValidationError(
                f"{role} must be an integer, got {token.text}", token.line, token.column
            )
        try:
            value = int(token.text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise SpecValidationError(
                f"{role} has too many digits", token.line, token.column
            ) from None
        if value < minimum:
            raise SpecValidationError(
                f"{role} must be at least {minimum}, got {value}",
                token.line,
                token.column,
            )
        return value

    # namespace ---------------------------------------------------------

    def declare(self, token: _Token, depth: int | None) -> None:
        name = token.text
        if name in self.names:
            raise SpecValidationError(
                f"duplicate name {name!r}", token.line, token.column
            )
        self.names[name] = depth

    def resolve(self, token: _Token) -> int:
        """Return the inlined depth of the clock or definition ``token`` names."""
        name = token.text
        if name not in self.names:
            raise SpecValidationError(f"unknown name {name!r}", token.line, token.column)
        depth = self.names[name]
        if depth is None:
            raise SpecValidationError(
                f"{name!r} is a relation id, not a clock or definition",
                token.line,
                token.column,
            )
        return depth

    def within_limit(self, depth: int, token: _Token) -> int:
        """Return ``depth`` if it is within _MAX_DEPTH, else raise at ``token``."""
        if depth > _MAX_DEPTH:
            raise SpecValidationError(
                f"expression nested deeper than {_MAX_DEPTH} levels",
                token.line,
                token.column,
            )
        return depth

    # grammar -----------------------------------------------------------

    def parse_file(self) -> SpecFile:
        while True:
            token = self.peek()
            if token.type == "eof":
                break
            if token.type != "kw" or token.text not in ("clock", "def", "rel", "set"):
                self.fail(f"expected a statement, found {_describe(token)}", token)
            if token.text == "clock":
                self.parse_clock()
            elif token.text == "def":
                self.parse_def()
            elif token.text == "rel":
                self.parse_rel()
            else:
                self.parse_set()
        return SpecFile(
            clocks=tuple(self.clocks),
            definitions=tuple(self.definitions),
            relations=tuple(self.relations),
            **self.settings,
        )

    def parse_clock(self) -> None:
        self.advance()
        token = self.expect_ident("a clock name")
        self.declare(token, 0)
        self.clocks.append(token.text)

    def parse_def(self) -> None:
        self.advance()
        token = self.expect_ident("a definition name")
        self.expect_sym("=")
        expr, depth = self.parse_expr(0)
        self.declare(token, depth)
        self.definitions.append(Definition(token.text, expr))

    def parse_rel(self) -> None:
        self.advance()
        token = self.expect_ident("a relation id")
        self.expect_sym(":")
        left, _ = self.parse_expr(0)
        op = self.peek()
        if op.type != "kw" or op.text not in _RELOPS:
            self.fail(f"expected a relation operator, found {_describe(op)}", op)
        self.advance()
        right, _ = self.parse_expr(0)
        self.expect_kw("prob")
        self.expect_sym(">=")
        number = self.peek()
        if number.type != "number":
            self.fail(f"expected a probability, found {_describe(number)}", number)
        self.advance()
        try:
            threshold = Fraction(number.text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise SpecValidationError(
                "threshold has too many digits", number.line, number.column
            ) from None
        if not 0 <= threshold <= 1:
            raise SpecValidationError(
                f"threshold out of range: {number.text}", number.line, number.column
            )
        self.declare(token, None)
        self.relations.append(
            RelationSpec(token.text, _RELOPS[op.text], left, right, threshold)
        )

    def parse_set(self) -> None:
        keyword = self.advance()
        token = self.peek()
        if token.type != "kw" or token.text not in ("steps", "samples"):
            self.fail(f"expected 'steps' or 'samples', found {_describe(token)}", token)
        self.advance()
        value = self.expect_nat(f"the {token.text} value", minimum=0 if token.text == "steps" else 1)
        if token.text in self.settings:
            raise SpecValidationError(
                f"duplicate 'set {token.text}'", keyword.line, keyword.column
            )
        self.settings[token.text] = value

    def parse_expr(self, depth: int) -> tuple[ClockExpr, int]:
        """Parse an expression whose root node sits ``depth`` nodes deep.

        Returns the expression and the depth of its deepest leaf with
        definitions inlined.
        """
        expr, reach = self.parse_atom(depth)
        while True:
            token = self.peek()
            if token.type == "kw" and token.text == "delayfor":
                self.advance()
                delay = self.expect_nat("the delay")
                self.expect_kw("on")
                ref, ref_reach = self.parse_atom(depth + 1)
                expr = DelayFor(expr, delay, ref)
                # the new root pushes everything parsed so far one node down
                reach = self.within_limit(max(reach + 1, ref_reach), token)
            else:
                return expr, reach

    def parse_atom(self, depth: int) -> tuple[ClockExpr, int]:
        token = self.peek()
        self.within_limit(depth, token)
        if token.type == "ident":
            self.advance()
            return Ref(token.text), self.within_limit(depth + self.resolve(token), token)
        if token.type == "sym" and token.text == "(":
            self.advance()
            self.open_parens = self.within_limit(self.open_parens + 1, token)
            result = self.parse_expr(depth)
            self.expect_sym(")")
            self.open_parens -= 1
            return result
        if token.type == "kw" and token.text == "periodicon":
            self.advance()
            base, reach = self.parse_expr(depth + 1)
            self.expect_kw("period")
            period = self.expect_nat("the period")
            return PeriodicOn(base, period), reach
        if token.type == "kw" and token.text in ("inf", "sup"):
            self.advance()
            self.expect_sym("(")
            left, left_reach = self.parse_expr(depth + 1)
            self.expect_sym(",")
            right, right_reach = self.parse_expr(depth + 1)
            self.expect_sym(")")
            node = Inf(left, right) if token.text == "inf" else Sup(left, right)
            return node, max(left_reach, right_reach)
        self.fail(f"expected an expression, found {_describe(token)}", token)


def _describe(token: _Token) -> str:
    if token.type == "eof":
        return "end of file"
    if token.type == "kw":
        return f"keyword '{token.text}'"
    return repr(token.text)


def parse(text: str) -> SpecFile:
    """Parse and validate a complete specification text."""
    return _Parser(text).parse_file()


# -- pretty printer -----------------------------------------------------


def pretty_print(spec: SpecFile) -> str:
    """Render a SpecFile in canonical form.

    Statements are grouped (settings, clocks, definitions, relations)
    preserving the order within each group, compound expressions are
    fully parenthesized, and thresholds are re-rendered as exact
    decimals.  parse(pretty_print(s)) == s.
    """
    lines: list[str] = []
    if spec.steps is not None:
        lines.append(f"set steps {spec.steps}")
    if spec.samples is not None:
        lines.append(f"set samples {spec.samples}")
    for name in spec.clocks:
        lines.append(f"clock {name}")
    for definition in spec.definitions:
        lines.append(f"def {definition.name} = {format_expr(definition.expr)}")
    for rel in spec.relations:
        lines.append(
            f"rel {rel.id}: {format_expr(rel.left)} {_KIND_TO_RELOP[rel.kind]} "
            f"{format_expr(rel.right)} prob >= {format_threshold(rel.threshold)}"
        )
    return "".join(line + "\n" for line in lines)


def format_expr(expr: ClockExpr) -> str:
    """Canonical concrete syntax of one expression."""
    if isinstance(expr, Ref):
        return expr.clock
    if isinstance(expr, PeriodicOn):
        return f"(periodicon {format_expr(expr.base)} period {expr.period})"
    if isinstance(expr, DelayFor):
        return f"({format_expr(expr.base)} delayfor {expr.delay} on {format_expr(expr.ref)})"
    if isinstance(expr, Inf):
        return f"inf({format_expr(expr.left)}, {format_expr(expr.right)})"
    if isinstance(expr, Sup):
        return f"sup({format_expr(expr.left)}, {format_expr(expr.right)})"
    raise ValueError(f"not a clock expression: {expr!r}")


def format_threshold(value: Fraction) -> str:
    """Exact decimal rendering of a rational whose denominator is 2^a 5^b."""
    denominator = value.denominator
    if denominator == 1:
        return str(value.numerator)
    twos = fives = 0
    rest = denominator
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        raise ValueError(f"{value} has no finite decimal form")
    digits = max(twos, fives)
    scaled = value.numerator * 10**digits // denominator
    text = str(scaled).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


# -- elaborator ---------------------------------------------------------


def elaborate(spec: SpecFile) -> tuple[tuple[str, ...], list[RelationSpec]]:
    """Inline definitions and produce monitorable relation specs.

    Returns the clock alphabet (the universal clock first, then the
    declarations in order) and one RelationSpec per relation statement
    with every definition reference replaced by its expression.  The
    file-level sample size, if set, applies to every relation.
    """
    defs = {definition.name: definition.expr for definition in spec.definitions}
    memo: dict[str, ClockExpr] = {}
    # one object per distinct sub-expression: equal operands are then the
    # same object, so comparing two nodes never walks a shared subtree
    interned: dict[ClockExpr, ClockExpr] = {}

    def inline(expr: ClockExpr) -> ClockExpr:
        if isinstance(expr, Ref):
            if expr.clock in defs:
                if expr.clock not in memo:
                    memo[expr.clock] = inline(defs[expr.clock])
                return memo[expr.clock]
            node = expr
        elif isinstance(expr, PeriodicOn):
            node = PeriodicOn(inline(expr.base), expr.period)
        elif isinstance(expr, DelayFor):
            node = DelayFor(inline(expr.base), expr.delay, inline(expr.ref))
        elif isinstance(expr, Inf):
            node = Inf(inline(expr.left), inline(expr.right))
        else:
            node = Sup(inline(expr.left), inline(expr.right))
        return interned.setdefault(node, node)

    alphabet = (UNIVERSAL_CLOCK, *spec.clocks)
    relations = [
        replace(rel, left=inline(rel.left), right=inline(rel.right), sample_size=spec.samples)
        for rel in spec.relations
    ]
    return alphabet, relations

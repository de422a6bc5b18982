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

A parsed file is a SpecFile of Definition and RelationSpec records, all
named tuples, so assigning to a field raises AttributeError; ``elaborate``
builds its relations with ``_replace``.

``parse`` reads a spec file's bytes and its text alike: UTF-8 with an
optional byte order mark and any line end, a byte that is not UTF-8
reported at its line and column.  The CLI hands it the bytes it reads.
"""

from __future__ import annotations

import re
from collections import namedtuple
from decimal import Decimal, Inexact, localcontext
from fractions import Fraction

from . import _EXPORTS
from .clocks import UNIVERSAL_CLOCK
from .errors import SpecSyntaxError, SpecValidationError
from .exprs import ClockExpr, DelayFor, Inf, PeriodicOn, Ref, Sup, clocks_of
from .relations import RelationKind, RelationSpec

__all__ = _EXPORTS["speclang"]

# Bound on expression nesting, so that the recursive parser, elaborator
# and evaluator stay far inside Python's recursion limit.  It applies
# separately to open parentheses and to the nodes on the path down to a
# leaf with definitions inlined; the bundled corpus reaches about 4.
_MAX_DEPTH = 100

_RELOPS = {
    "subclockof": RelationKind.SUBCLOCK,
    "coincides": RelationKind.COINCIDENCE,
    "excludes": RelationKind.EXCLUSION,
    "causes": RelationKind.CAUSALITY,
    "precedes": RelationKind.PRECEDENCE,
}

KEYWORDS = frozenset(
    {
        "clock",
        "def",
        "rel",
        "set",
        "steps",
        "samples",
        "prob",
        "periodicon",
        "period",
        "delayfor",
        "on",
        "inf",
        "sup",
        *_RELOPS,
    }
)

_KIND_TO_RELOP = {kind: word for word, kind in _RELOPS.items()}


# -- AST ----------------------------------------------------------------


class Definition(namedtuple("Definition", "name expr")):
    """A named clock expression, ``def name = expr`` (a named tuple)."""

    __slots__ = ()


class SpecFile(namedtuple("SpecFile", "clocks definitions relations steps samples",
                          defaults=((), (), (), None, None))):
    """A parsed spec: its statements grouped by kind, in text order (a named tuple).

    ``clocks`` are the declared clock names and ``steps``/``samples``
    the ``set`` values (None when not set).  A relation's operands may
    still name definitions: only the relations that ``elaborate``
    returns are monitorable.  Given to ``check_relations`` on a trace
    with no clock of that name, a relation that names a definition
    yields a RelationError naming it, never a verdict.
    """

    __slots__ = ()


# -- tokenizer ----------------------------------------------------------


# type is "kw" | "ident" | "number" | "sym" | "eof".  Keywords are stored
# lower-cased and reserved, so no identifier, number or eof token has the
# text of a keyword or symbol: the text alone identifies those tokens.
# start is the token's offset in the text; only an error needs its line.
_Token = namedtuple("_Token", "type text start")

_NUMBER = r"[0-9]+(?:\.[0-9]+)?"  # a decimal literal: no sign, no exponent

# blanks and comments go before each token; the scan ends at an eof token
_TOKEN_RE = re.compile(
    rf"""(?:[ \t\n]+|\#[^\n]*)*
      (?: (?P<number>{_NUMBER})
        | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
        | (?P<sym>>=|[(),:=])
        | (?P<eof>\Z)
        | (?P<bad>.)
      )
    """,
    re.VERBOSE,
)


def _position(text: str, start: int) -> tuple[int, int]:
    """The 1-based (line, column) of offset ``start``; columns count characters."""
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


def _decode(data: str | bytes) -> str:
    """The text of spec ``data``, its file's bytes or its text, as a text-mode read gives it.

    Bytes are UTF-8: a byte that is not raises SpecSyntaxError at its line
    and column in that text.  Of either, one leading byte order mark is
    dropped, and "\r\n" and a lone "\r" are read as "\n".
    """
    if not isinstance(data, str):
        try:
            data = str(data, "utf-8")  # a TypeError for what is not bytes either
        except UnicodeDecodeError as exc:
            head = _decode(data[: exc.start])  # the offset counts a byte order mark
            raise SpecSyntaxError("not valid UTF-8", *_position(head, len(head))) from None
    return data.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value, start = match[kind], match.start(kind)
        if kind == "bad":
            raise SpecSyntaxError(f"unexpected character {value!r}", *_position(text, start))
        if kind == "word":
            lowered = value.lower()
            kind, value = ("kw", lowered) if lowered in KEYWORDS else ("ident", value)
        tokens.append(_Token(kind, value, start))
    return tokens


# -- parser -------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
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

    def fail(self, message: str, token: _Token, error: type = SpecSyntaxError):
        # from None: an error raised while handling a ValueError hides it
        raise error(message, *_position(self.text, token.start)) from None

    def expect(self, text: str) -> _Token:
        """Consume the keyword or symbol ``text``."""
        token = self.peek()
        if token.text == text:
            return self.advance()
        self.fail(f"expected '{text}', found {_describe(token)}", token)

    def expect_type(self, kind: str, role: str) -> _Token:
        """Consume an "ident" or "number" token, described as ``role``."""
        token = self.peek()
        if token.type == kind:
            return self.advance()
        if token.type == "kw" and kind == "ident":
            self.fail(f"keyword '{token.text}' cannot be used as {role}", token)
        self.fail(f"expected {role}, found {_describe(token)}", token)

    def expect_nat(self, role: str, minimum: int = 1) -> int:
        token = self.expect_type("number", role)
        if "." in token.text:
            self.fail(f"{role} must be an integer, got {token.text}", token, SpecValidationError)
        try:
            value = int(token.text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            self.fail(f"{role} has too many digits", token, SpecValidationError)
        if value < minimum:
            self.fail(f"{role} must be at least {minimum}, got {value}", token, SpecValidationError)
        return value

    # namespace ---------------------------------------------------------

    def declare(self, token: _Token, depth: int | None) -> None:
        name = token.text
        if name in self.names:
            self.fail(f"duplicate name {name!r}", token, SpecValidationError)
        self.names[name] = depth

    def resolve(self, token: _Token) -> int:
        """Return the inlined depth of the clock or definition ``token`` names."""
        name = token.text
        if name not in self.names:
            self.fail(f"unknown name {name!r}", token, SpecValidationError)
        depth = self.names[name]
        if depth is None:
            message = f"{name!r} is a relation id, not a clock or definition"
            self.fail(message, token, SpecValidationError)
        return depth

    def within_limit(self, depth: int, token: _Token) -> int:
        """Return ``depth`` if it is within _MAX_DEPTH, else raise at ``token``."""
        if depth > _MAX_DEPTH:
            message = f"expression nested deeper than {_MAX_DEPTH} levels"
            self.fail(message, token, SpecValidationError)
        return depth

    # grammar -----------------------------------------------------------

    def parse_file(self) -> SpecFile:
        while (token := self.peek()).type != "eof":
            if token.text not in ("clock", "def", "rel", "set"):
                self.fail(f"expected a statement, found {_describe(token)}", token)
            getattr(self, f"parse_{token.text}")()
        return SpecFile(
            clocks=tuple(self.clocks),
            definitions=tuple(self.definitions),
            relations=tuple(self.relations),
            **self.settings,
        )

    def parse_clock(self) -> None:
        self.advance()
        token = self.expect_type("ident", "a clock name")
        self.declare(token, 0)
        self.clocks.append(token.text)

    def parse_def(self) -> None:
        self.advance()
        token = self.expect_type("ident", "a definition name")
        self.expect("=")
        expr, depth = self.parse_expr(0)
        self.declare(token, depth)
        self.definitions.append(Definition(token.text, expr))

    def parse_rel(self) -> None:
        self.advance()
        token = self.expect_type("ident", "a relation id")
        self.expect(":")
        left, _ = self.parse_expr(0)
        op = self.peek()
        if op.text not in _RELOPS:
            self.fail(f"expected a relation operator, found {_describe(op)}", op)
        self.advance()
        right, _ = self.parse_expr(0)
        self.expect("prob")
        self.expect(">=")
        number = self.expect_type("number", "a probability")
        try:
            threshold = _threshold(number.text)
        except ValueError as exc:
            self.fail(str(exc), number, SpecValidationError)
        self.declare(token, None)
        self.relations.append(
            RelationSpec(token.text, _RELOPS[op.text], left, right, threshold)
        )

    def parse_set(self) -> None:
        keyword = self.advance()
        token = self.peek()
        if token.text not in ("steps", "samples"):
            self.fail(f"expected 'steps' or 'samples', found {_describe(token)}", token)
        self.advance()
        value = self.expect_nat(f"the {token.text} value", minimum=0 if token.text == "steps" else 1)
        if token.text in self.settings:
            self.fail(f"duplicate 'set {token.text}'", keyword, SpecValidationError)
        self.settings[token.text] = value

    def parse_expr(self, depth: int) -> tuple[ClockExpr, int]:
        """Parse an expression whose root node sits ``depth`` nodes deep.

        Returns the expression and the depth of its deepest leaf with
        definitions inlined.
        """
        expr, reach = self.parse_atom(depth)
        while True:
            token = self.peek()
            if token.text == "delayfor":
                self.advance()
                delay = self.expect_nat("the delay")
                self.expect("on")
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
        if token.text == "(":
            self.advance()
            self.open_parens = self.within_limit(self.open_parens + 1, token)
            result = self.parse_expr(depth)
            self.expect(")")
            self.open_parens -= 1
            return result
        if token.text == "periodicon":
            self.advance()
            base, reach = self.parse_expr(depth + 1)
            self.expect("period")
            period = self.expect_nat("the period")
            return PeriodicOn(base, period), reach
        if token.text in ("inf", "sup"):
            self.advance()
            self.expect("(")
            left, left_reach = self.parse_expr(depth + 1)
            self.expect(",")
            right, right_reach = self.parse_expr(depth + 1)
            self.expect(")")
            node = Inf(left, right) if token.text == "inf" else Sup(left, right)
            return node, max(left_reach, right_reach)
        self.fail(f"expected an expression, found {_describe(token)}", token)


def _threshold(text: str) -> Fraction:
    """The exact value of the literal ``text`` of ``prob >= X`` and of ``--threshold X``.

    Raises ValueError with the message to report.  The pattern goes first:
    ``Fraction`` alone would take "1e-5", and spend seconds on "1e-10000000".
    """
    if not re.fullmatch(_NUMBER, text):
        raise ValueError(f"bad threshold {text!r}")
    try:
        value = Fraction(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ValueError("threshold has too many digits") from None
    if not 0 <= value <= 1:
        raise ValueError(f"threshold out of range: {text}")
    return value


def _describe(token: _Token) -> str:
    if token.type == "eof":
        return "end of file"
    if token.type == "kw":
        return f"keyword '{token.text}'"
    return repr(token.text)


def parse(text: str | bytes) -> SpecFile:
    """Parse and validate a spec, its file's bytes or its text, read as the CLI reads a file."""
    return _Parser(_decode(text)).parse_file()


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
    clocks_of(expr)  # a non-node is an ExpressionError
    if isinstance(expr, Ref):
        return expr.clock
    if isinstance(expr, PeriodicOn):
        return f"(periodicon {format_expr(expr.base)} period {expr.period})"
    if isinstance(expr, DelayFor):
        return f"({format_expr(expr.base)} delayfor {expr.delay} on {format_expr(expr.ref)})"
    if isinstance(expr, Inf):
        return f"inf({format_expr(expr.left)}, {format_expr(expr.right)})"
    return f"sup({format_expr(expr.left)}, {format_expr(expr.right)})"


def format_threshold(value: Fraction) -> str:
    """Exact decimal rendering of a rational whose denominator is 2^a 5^b."""
    numerator, denominator = value.numerator, value.denominator
    with localcontext() as context:
        # n / (2^a 5^b) = n 2^(k-a) 5^(k-b) / 10^k with k = max(a, b), which
        # has at most digits(n) + k significant digits; both are bounded by
        # bit lengths, so the quotient is inexact only without a finite form
        context.prec = numerator.bit_length() + denominator.bit_length()
        context.traps[Inexact] = True
        try:
            quotient = Decimal(numerator) / denominator
        except Inexact:
            raise ValueError(f"{value} has no finite decimal form") from None
    return f"{quotient:f}"


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
        kind, values = expr.__reduce__()
        if kind is Ref and expr.clock in defs:
            if expr.clock not in memo:
                memo[expr.clock] = inline(defs[expr.clock])
            return memo[expr.clock]
        node = kind(*(inline(value) if isinstance(value, ClockExpr) else value for value in values))
        return interned.setdefault(node, node)

    alphabet = (UNIVERSAL_CLOCK, *spec.clocks)
    relations = [
        rel._replace(left=inline(rel.left), right=inline(rel.right), sample_size=spec.samples)
        for rel in spec.relations
    ]
    return alphabet, relations

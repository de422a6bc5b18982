"""The exception hierarchy shared by all prccsl modules, and nothing else."""

from . import _EXPORTS

__all__ = _EXPORTS["errors"]


class PrccslError(Exception):
    """Base class for every error raised by this package."""


class DeclarationError(PrccslError):
    """Invalid or duplicate clock/definition/relation name."""


class UnknownClockError(PrccslError):
    """A clock was referenced that is not declared in the relevant scope."""


class ExpressionError(PrccslError):
    """Structurally invalid clock expression (bad period, delay, or arity)."""


class SpecError(PrccslError):
    """Problem in a textual specification, with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class SpecSyntaxError(SpecError):
    """Tokenization or grammar violation."""


class SpecValidationError(SpecError):
    """Well-formed syntax with bad semantics (unknown name, range error...)."""


class TraceFormatError(PrccslError):
    """Malformed trace CSV, with the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.message = message
        self.line = line


class FaultTargetError(PrccslError):
    """Unknown fault-injection target or invalid rate."""


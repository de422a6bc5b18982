"""Probabilistic clock-constraint checking over discrete tick traces."""

from .clocks import UNIVERSAL_CLOCK, Trace
from .errors import (
    DeclarationError,
    ExpressionError,
    FaultTargetError,
    PrccslError,
    SpecSyntaxError,
    SpecValidationError,
    TraceFormatError,
    UnknownClockError,
)
from .exprs import DelayFor, Inf, PeriodicOn, Ref, Sup, clocks_of, eval_expr
from .relations import (
    CheckResult,
    RelationError,
    RelationKind,
    RelationSpec,
    Verdict,
    check_relations,
)
from .report import build_report, render_text
from .simulator import ALPHABET, FAULT_TARGETS, AVParams, FaultSpec, simulate, simulate_faulty
from .speclang import (
    ClockDecl,
    Definition,
    RelationStmt,
    Settings,
    SpecFile,
    elaborate,
    format_expr,
    format_threshold,
    parse,
    pretty_print,
)
from .traceio import read_trace, trace_to_string, write_trace

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "UNIVERSAL_CLOCK",
    "Trace",
    "PrccslError",
    "DeclarationError",
    "UnknownClockError",
    "ExpressionError",
    "SpecSyntaxError",
    "SpecValidationError",
    "TraceFormatError",
    "FaultTargetError",
    "Ref",
    "PeriodicOn",
    "DelayFor",
    "Inf",
    "Sup",
    "clocks_of",
    "eval_expr",
    "RelationKind",
    "RelationSpec",
    "Verdict",
    "RelationError",
    "CheckResult",
    "check_relations",
    "build_report",
    "render_text",
    "ALPHABET",
    "AVParams",
    "FaultSpec",
    "FAULT_TARGETS",
    "simulate",
    "simulate_faulty",
    "ClockDecl",
    "Definition",
    "RelationStmt",
    "Settings",
    "SpecFile",
    "parse",
    "pretty_print",
    "format_expr",
    "format_threshold",
    "elaborate",
    "read_trace",
    "write_trace",
    "trace_to_string",
]

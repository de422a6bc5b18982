"""Probabilistic clock-constraint checking over discrete tick traces.

``import prccsl`` imports no submodule.  The first use of an exported
name imports the module that defines it (a PEP 562 module
``__getattr__``), so a caller pays only for the modules it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names it exports through the package, which are its __all__
_EXPORTS = {
    "clocks": ("UNIVERSAL_CLOCK", "Trace"),
    "errors": (
        "PrccslError",
        "DeclarationError",
        "UnknownClockError",
        "ExpressionError",
        "SpecSyntaxError",
        "SpecValidationError",
        "TraceFormatError",
        "FaultTargetError",
    ),
    "exprs": ("Ref", "PeriodicOn", "DelayFor", "Inf", "Sup", "clocks_of", "eval_expr"),
    "relations": (
        "RelationKind",
        "RelationSpec",
        "Verdict",
        "RelationError",
        "CheckResult",
        "check_relations",
    ),
    "report": ("build_report", "render_text"),
    "simulator": ("AVParams", "FaultSpec", "FAULT_TARGETS", "simulate"),
    "speclang": (
        "Definition",
        "SpecFile",
        "parse",
        "pretty_print",
        "format_expr",
        "format_threshold",
        "elaborate",
    ),
    "traceio": ("read_trace", "write_trace"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value

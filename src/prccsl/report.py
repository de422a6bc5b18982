"""Check-report construction and rendering.

A report is a plain JSON-serializable dict; the text rendering is
derived from that dict alone so the two output formats can never
disagree.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Any

from . import _EXPORTS
from .relations import CheckResult, RelationError
from .speclang import format_threshold

__all__ = _EXPORTS["report"]

_PRECISION = 15  # significant digits for decimal renderings


def _decimal_str(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = _PRECISION
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _ratio_payload(value: Fraction | None, fraction: str | None = None) -> dict[str, str] | None:
    if value is None:
        return None
    return {
        "decimal": _decimal_str(value),
        "fraction": fraction if fraction is not None else f"{value.numerator}/{value.denominator}",
    }


def _threshold_payload(value: Fraction) -> dict[str, str]:
    """A threshold's payload, its decimal exact: every spec literal and ``--threshold`` value has one."""
    try:
        return {"decimal": format_threshold(value), "fraction": f"{value.numerator}/{value.denominator}"}
    except ValueError:  # no finite decimal form, such as a library Fraction(1, 3): rounded as a probability is
        return _ratio_payload(value)


def _record(result: CheckResult) -> dict[str, Any]:
    if isinstance(result, RelationError):
        return {
            "id": result.id,
            "kind": None,
            "k": None,
            "m": None,
            "probability": None,
            "threshold": None,
            "outcome": "error",
            "error": result.message,
        }
    return {
        "id": result.id,
        "kind": result.kind.value,
        "k": result.k,
        "m": result.m,
        # the fraction keeps the raw counts even though m/k may reduce
        "probability": _ratio_payload(result.probability, f"{result.m}/{result.k}"),
        "threshold": _threshold_payload(result.threshold),
        "outcome": result.outcome,
    }


def build_report(
    *,
    spec: str,
    trace: dict[str, Any],
    settings: dict[str, Any],
    results: list[CheckResult],
    duration_seconds: float,
) -> dict[str, Any]:
    """Assemble the JSON report for one check run."""
    from . import __version__

    records = [_record(result) for result in results]
    summary = {"total": len(records), "valid": 0, "fail": 0, "vacuous": 0, "error": 0}
    for record in records:
        summary[record["outcome"]] += 1
    return {
        "tool": {"name": "prccsl", "version": __version__},
        "spec": spec,
        "trace": trace,
        "settings": settings,
        "relations": records,
        "summary": summary,
        "duration_seconds": round(duration_seconds, 3),
    }


def render_text(report: dict[str, Any]) -> str:
    """Human-oriented rendering of a report dict."""
    lines = []
    trace = report["trace"]
    fault = f", fault={trace['fault']}" if trace.get("fault") else ""
    source = trace.get("path") or f"simulated(seed={trace.get('seed')}, steps={trace.get('steps')}{fault})"
    lines.append(f"spec:  {report['spec']}")
    lines.append(f"trace: {source}")
    header = f"{'id':<10} {'kind':<12} {'k':>8} {'m':>8} {'probability':>14}  {'threshold':>10}  outcome"
    lines.append(header)
    lines.append("-" * len(header))
    for record in report["relations"]:
        if record["outcome"] == "error":
            lines.append(f"{record['id']:<10} error: {record['error']}")
            continue
        probability = record["probability"]
        shown = probability["decimal"] if probability is not None else "-"
        lines.append(
            f"{record['id']:<10} {record['kind']:<12} {record['k']:>8} {record['m']:>8} "
            f"{shown:>14}  {record['threshold']['decimal']:>10}  {record['outcome']}"
        )
    summary = report["summary"]
    lines.append(
        f"{summary['total']} relations: {summary['valid']} valid, {summary['fail']} fail, "
        f"{summary['vacuous']} vacuous, {summary['error']} error"
    )
    if summary["vacuous"]:
        lines.append(
            f"warning: {summary['vacuous']} relation(s) had no observations (vacuous)"
        )
    lines.append(f"elapsed: {report['duration_seconds']}s")
    return "\n".join(lines) + "\n"

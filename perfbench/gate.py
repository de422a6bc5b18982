"""Correctness gate: reference verdicts from the oracle, and CSV checks.

Everything the benchmark compares the CLI against is computed here from
``prccsl.oracle`` (for verdicts) or from the benchmark's own stdlib CSV
reader (for written traces), never from the engine under test.  A
reference is built once per workload and seed, outside the timed region.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Iterable, Mapping, Sequence

Dates = dict[str, list[int]]
Reference = dict[str, tuple[int, int, str]]  # relation id -> (k, m, outcome)


def dates_of(trace: Any) -> Dates:
    """Per-clock sorted tick steps of an in-process ``Trace``."""
    return {clock: list(trace.dates(clock)) for clock in trace.clocks}


def outcome_of(k: int, m: int, threshold: Fraction) -> str:
    """Verdict rule of the paper: valid iff m/k >= p, vacuous when k = 0."""
    if k == 0:
        return "vacuous"
    return "valid" if Fraction(m, k) >= threshold else "fail"


def reference_verdicts(relations: Sequence[Any], dates: Mapping[str, Sequence[int]], n: int) -> Reference:
    """``(k, m, outcome)`` of every relation, by ``oracle_expr`` + ``oracle_relation``."""
    from prccsl.oracle import oracle_expr, oracle_relation

    reference: Reference = {}
    memo: dict[Any, list[int]] = {}

    def expr_dates(expr: Any) -> list[int]:
        if expr not in memo:
            memo[expr] = oracle_expr(expr, dates, n)
        return memo[expr]

    for spec in relations:
        if spec.sample_size is not None:
            raise ValueError(f"{spec.id}: the oracle reference does not model sample caps")
        k, m = oracle_relation(spec.kind, expr_dates(spec.left), expr_dates(spec.right), n)
        reference[spec.id] = (k, m, outcome_of(k, m, spec.threshold))
    return reference


def expected_exit(reference: Reference) -> int:
    """The CLI's exit code for a run whose verdicts match ``reference``."""
    return 1 if any(outcome == "fail" for _, _, outcome in reference.values()) else 0


def failed_verdicts(report: Mapping[str, Any], reference: Reference) -> int:
    """Count reference relations the report gets wrong.

    A verdict is wrong when it is missing, is an ``error`` record, or
    differs from the reference in ``k``, ``m`` or ``outcome``.
    """
    records = {record.get("id"): record for record in report.get("relations", ())}
    failed = 0
    for rid, (k, m, outcome) in reference.items():
        record = records.get(rid)
        if record is None or record.get("outcome") == "error":
            failed += 1
        elif (record.get("k"), record.get("m"), record.get("outcome")) != (k, m, outcome):
            failed += 1
    return failed


def failed_cli_verdicts(exit_code: int, stdout: str, stderr: str, reference: Reference) -> int:
    """Failed operations of one ``--format json`` CLI call.

    An unexpected exit code, a traceback or unreadable output fails
    every verdict of the call.
    """
    if exit_code != expected_exit(reference) or "Traceback" in stderr:
        return len(reference)
    try:
        report = json.loads(stdout)
    except ValueError:
        return len(reference)
    if not isinstance(report, dict):
        return len(reference)
    return failed_verdicts(report, reference)


def write_csv(path: str, clocks: Sequence[str], n: int, dates: Mapping[str, Iterable[int]]) -> None:
    """Write a trace in the CLI's dense 0/1 CSV format."""
    columns = []
    for clock in clocks:
        column = ["0"] * n
        for step in dates[clock]:
            column[step] = "1"
        columns.append(column)
    with open(path, "w", encoding="utf-8", newline="") as out:
        out.write(",".join(("step", *clocks)) + "\n")
        for step, row in enumerate(zip(*columns)):
            out.write(f"{step},{','.join(row)}\n")


def read_csv(path: str) -> tuple[tuple[str, ...], int, Dates]:
    """Parse a trace CSV into ``(clocks, steps, dates)``.

    Raises ValueError on a bad header, a ragged row, a cell other than
    0/1, or a step column that does not count up from 0.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        header = handle.readline().rstrip("\n").split(",")
        if header[0] != "step":
            raise ValueError("header must start with 'step'")
        clocks = tuple(header[1:])
        dates: Dates = {clock: [] for clock in clocks}
        columns = [dates[clock] for clock in clocks]
        step = -1
        for step, line in enumerate(handle):
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(header) or cells[0] != str(step):
                raise ValueError(f"line {step + 2}: malformed row")
            for column, cell in zip(columns, cells[1:]):
                if cell == "1":
                    column.append(step)
                elif cell != "0":
                    raise ValueError(f"line {step + 2}: cell must be 0 or 1")
        return clocks, step + 1, dates


def csv_matches(path: str, clocks: Sequence[str], n: int, dates: Mapping[str, Sequence[int]]) -> bool:
    """Whether the CSV at ``path`` holds exactly the given ticks."""
    try:
        got_clocks, got_n, got_dates = read_csv(path)
    except (OSError, ValueError):
        return False
    return got_clocks == tuple(clocks) and got_n == n and all(
        got_dates[clock] == list(dates[clock]) for clock in clocks
    )

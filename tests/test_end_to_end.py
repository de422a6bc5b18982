"""The CLI's check reports against the oracle, from spec text and CSV text.

The test draws a trace as date lists and a spec as text, together with
the expression nodes that the text denotes, built here and not by the
spec language.  ``prccsl check`` then reads both files and writes a JSON
report.  The expected ``k``, ``m`` and outcome of each relation come
from ``oracle_expr`` and ``oracle_relation``, applied to the dates that
the test's own ``csv``-module parse finds in the written file.  So the
parser, the elaborator's inlining and interning, the projected CSV read,
the engine and the report are all checked against the oracle at once.

``prccsl verify-av`` is checked the same way: its JSON report on the
bundled corpus must give the ``k``, ``m`` and outcome that the oracle
finds on the dates of the same simulator run, made here in process.
"""

import csv
import json
from fractions import Fraction
from importlib import resources

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prccsl import (
    AVParams, DelayFor, FaultSpec, Inf, PeriodicOn, Ref, Sup, Trace, elaborate, parse, simulate, simulate_faulty,
    trace_to_string,
)
from prccsl.cli import main
from prccsl.oracle import oracle_expr, oracle_relation

CLOCKS = ("ms", "a", "b", "c")
WORDS = {
    "subclockof": "subclock",
    "coincides": "coincidence",
    "excludes": "exclusion",
    "causes": "causality",
    "precedes": "precedence",
}
THRESHOLDS = ("0", "0.5", "0.95", "1")


@st.composite
def traces(draw):
    """(dates, n): ms ticks on every step, a, b and c in drawn shapes."""
    # lengths around 10, 100 and 1000 change the step column's width
    n = draw(st.integers(1, 130) | st.integers(995, 1010))
    steps = st.integers(0, n)
    dates = {"ms": list(range(n))}
    for name in CLOCKS[1:]:
        shape = draw(st.sampled_from(("every", "strided", "run", "scattered")))
        if shape == "every":
            dates[name] = list(range(n))
        elif shape == "strided":  # like periodicon ms, from some offset on
            dates[name] = list(range(draw(steps), n, draw(st.integers(2, 7))))
        elif shape == "run":
            start, stop = sorted((draw(steps), draw(steps)))
            dates[name] = list(range(start, stop))
        else:
            dates[name] = sorted(draw(st.sets(st.integers(0, n - 1), max_size=40)))
    return dates, n


@st.composite
def expressions(draw, names, depth=2):
    """A (text, node) pair over the (text, node) leaves ``names``, each compound in parentheses."""
    kind = draw(st.sampled_from(("leaf", "periodicon", "delayfor", "inf", "sup"))) if depth else "leaf"
    if kind == "leaf":
        return draw(st.sampled_from(names))
    text, node = draw(expressions(names, depth - 1))
    if kind == "periodicon":
        period = draw(st.integers(1, 3))
        return f"(periodicon {text} period {period})", PeriodicOn(node, period)
    other_text, other = draw(expressions(names, depth - 1))
    if kind == "delayfor":
        delay = draw(st.integers(1, 4))
        return f"({text} delayfor {delay} on {other_text})", DelayFor(node, delay, other)
    return f"{kind}({text}, {other_text})", (Inf if kind == "inf" else Sup)(node, other)


@st.composite
def specs(draw):
    """(text, samples, relations): one relation per relation word, in a drawn order.

    Each relation is (id, word, left node, right node, threshold text);
    definitions may name the clocks and every earlier definition.
    """
    names = [(name, Ref(name)) for name in CLOCKS]
    samples = draw(st.none() | st.integers(1, 12))
    lines = [f"set samples {samples}"] if samples is not None else []
    lines += [f"clock {name}" for name in CLOCKS[1:]]
    for i in range(draw(st.integers(0, 3))):
        text, node = draw(expressions(names))
        lines.append(f"def d{i} = {text}")
        names.append((f"d{i}", node))
    relations = []
    for i, word in enumerate(draw(st.permutations(list(WORDS)))):
        (left_text, left), (right_text, right) = draw(expressions(names)), draw(expressions(names))
        threshold = draw(st.sampled_from(THRESHOLDS))
        lines.append(f"rel r{i}: {left_text} {word} {right_text} prob >= {threshold}")
        relations.append((f"r{i}", word, left, right, threshold))
    return "\n".join(lines) + "\n", samples, relations


def render(dates, n, order, form, draw_row):
    """The trace's CSV text: canonical, with CRLF line ends, or with one quoted cell."""
    text = trace_to_string(Trace.from_dates(order, n, dates))
    if form == "crlf":
        return text.replace("\n", "\r\n")
    if form == "quoted":
        lines = text.split("\n")
        row = 1 + draw_row(n)
        cells = lines[row].split(",")
        column = 1 + row % len(order)
        cells[column] = f'"{cells[column]}"'
        lines[row] = ",".join(cells)
        return "\n".join(lines)
    return text


def parsed_dates(path):
    """Each clock's dates, as the stdlib csv module reads the file."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    return {name: [int(row[0]) for row in rows if row[i] == "1"] for i, name in enumerate(header) if i}, len(rows)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    trace=traces(),
    spec=specs(),
    order=st.permutations(CLOCKS),
    form=st.sampled_from(("canonical", "crlf", "quoted")),
    data=st.data(),
)
def test_check_reports_match_the_oracle(tmp_path, trace, spec, order, form, data):
    dates, n = trace
    text, samples, relations = spec
    spec_path, trace_path, out = tmp_path / "s.prccsl", tmp_path / "t.csv", tmp_path / "r.json"
    spec_path.write_text(text, encoding="utf-8")
    csv_text = render(dates, n, list(order), form, lambda n: data.draw(st.integers(0, n - 1)))
    trace_path.write_bytes(csv_text.encode("utf-8"))

    code = main(["check", "--spec", str(spec_path), "--trace", str(trace_path), "--format", "json", "--out", str(out)])

    read, steps = parsed_dates(trace_path)
    assert (read, steps) == (dates, n)
    relations = [(rid, WORDS[word], left, right, threshold) for rid, word, left, right, threshold in relations]
    assert_report_matches_the_oracle(code, out, relations, read, steps, samples)


def assert_report_matches_the_oracle(code, out, relations, dates, steps, cap):
    """The exit status and the report at ``out`` of (id, kind, left, right, threshold) relations."""
    memo = {}

    def oracle(node):
        if node not in memo:
            memo[node] = oracle_expr(node, dates, steps)
        return memo[node]

    expected = []
    for rid, kind, left, right, threshold in relations:
        k, m = oracle_relation(kind, oracle(left), oracle(right), steps, cap=cap)
        outcome = "vacuous" if k == 0 else "valid" if Fraction(m, k) >= Fraction(threshold) else "fail"
        expected.append({"id": rid, "kind": kind, "k": k, "m": m, "outcome": outcome})
    report = json.loads(out.read_text(encoding="utf-8"))
    got = [{key: record[key] for key in ("id", "kind", "k", "m", "outcome")} for record in report["relations"]]
    assert got == expected
    assert code == (1 if any(record["outcome"] == "fail" for record in expected) else 0)


@pytest.mark.parametrize(
    "seed, steps, extra",
    [
        (0, 3000, []),
        (7, 300, []),
        (3, 2000, ["--threshold", "0.5"]),
        (11, 1000, ["--threshold", "0.5"]),
        (5, 3000, ["--fault", "exec-R7:0.2"]),
        (9, 700, ["--fault", "exec-R7:0.2"]),
    ],
)
def test_verify_av_reports_match_the_oracle(tmp_path, seed, steps, extra):
    out = tmp_path / "r.json"
    argv = ["verify-av", "--seed", str(seed), "--steps", str(steps), *extra]
    code = main([*argv, "--format", "json", "--out", str(out)])

    params = AVParams(seed, steps)
    trace = simulate(params) if "--fault" not in extra else simulate_faulty(params, FaultSpec("exec-R7", 0.2))
    dates = {clock: list(trace.dates(clock)) for clock in trace.clocks}
    spec = parse(resources.files("prccsl").joinpath("data", "av_requirements.prccsl").read_text("utf-8"))
    _, relations = elaborate(spec)
    assert len(relations) == 36
    threshold = "0.5" if "--threshold" in extra else None
    relations = [(rel.id, rel.kind.value, rel.left, rel.right, threshold or rel.threshold) for rel in relations]
    assert_report_matches_the_oracle(code, out, relations, dates, steps, spec.samples)

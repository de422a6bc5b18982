"""Self-tests of the benchmark: the correctness gate, its CSV reader, the
dense spec's declared outcomes, and a smoke run of every workload.

Run from the repository root with ``python3 -m pytest perfbench``.
No test here depends on how long anything takes.
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
from prccsl.relations import check_relations  # noqa: E402
from prccsl.report import build_report  # noqa: E402
from prccsl.simulator import AVParams, simulate  # noqa: E402
from prccsl.speclang import elaborate, parse  # noqa: E402
from prccsl.traceio import write_trace  # noqa: E402

DENSE = (HERE / "dense.prccsl").read_text("utf-8")
STEPS = 3000


@pytest.fixture(scope="module")
def checked():
    trace = simulate(AVParams(seed=7, steps=STEPS))
    relations = elaborate(parse(DENSE))[1]
    reference = gate.reference_verdicts(relations, gate.dates_of(trace), STEPS)
    report = build_report(spec="dense", trace={}, settings={}, results=check_relations(relations, trace),
                          duration_seconds=0.0)
    return reference, report


def test_gate_accepts_the_engine_report(checked):
    reference, report = checked
    assert gate.failed_verdicts(report, reference) == 0
    exit_code = gate.expected_exit(reference)
    assert gate.failed_cli_verdicts(exit_code, json.dumps(report), "", reference) == 0


def test_gate_flags_one_altered_k(checked):
    reference, report = checked
    altered = json.loads(json.dumps(report))
    altered["relations"][0]["k"] += 1
    failed = gate.failed_cli_verdicts(gate.expected_exit(reference), json.dumps(altered), "", reference)
    assert failed == 1
    assert failed / len(reference) > 0  # error_rate


def test_gate_flags_missing_and_error_records(checked):
    reference, report = checked
    altered = json.loads(json.dumps(report))
    altered["relations"].pop()
    altered["relations"][0]["outcome"] = "error"
    assert gate.failed_verdicts(altered, reference) == 2


def test_gate_fails_every_verdict_of_a_bad_call(checked):
    reference, report = checked
    text = json.dumps(report)
    assert gate.failed_cli_verdicts(2, text, "", reference) == len(reference)
    assert gate.failed_cli_verdicts(gate.expected_exit(reference), text, "Traceback (most recent call last)", reference) == len(reference)
    assert gate.failed_cli_verdicts(gate.expected_exit(reference), "not json", "", reference) == len(reference)


def test_csv_writer_matches_the_cli_format_and_reader_round_trips(tmp_path):
    trace = simulate(AVParams(seed=3, steps=500))
    dates = gate.dates_of(trace)
    path = tmp_path / "t.csv"
    gate.write_csv(str(path), trace.clocks, 500, dates)
    expected = io.StringIO()
    write_trace(trace, expected)
    assert path.read_text("utf-8") == expected.getvalue()
    assert gate.read_csv(str(path)) == (tuple(trace.clocks), 500, dates)
    assert gate.csv_matches(str(path), trace.clocks, 500, dates)


def test_csv_check_rejects_a_moved_tick(tmp_path):
    trace = simulate(AVParams(seed=3, steps=500))
    dates = gate.dates_of(trace)
    path = tmp_path / "t.csv"
    moved = {**dates, "cmrTrig": [d + 1 for d in dates["cmrTrig"]]}
    gate.write_csv(str(path), trace.clocks, 500, moved)
    assert not gate.csv_matches(str(path), trace.clocks, 500, dates)


@pytest.mark.parametrize("seed", [0, 1])
def test_dense_spec_outcomes_match_the_oracle(seed):
    steps = 60_000
    expected = dict(re.findall(r"^rel (\w+):.*# expect (\w+)$", DENSE, re.MULTILINE))
    relations = elaborate(parse(DENSE))[1]
    assert set(expected) == {spec.id for spec in relations}
    assert "fail" in expected.values()
    assert {spec.kind.value for spec in relations} == {
        "subclock", "coincidence", "exclusion", "causality", "precedence"}
    reference = gate.reference_verdicts(relations, gate.dates_of(simulate(AVParams(seed=seed, steps=steps))), steps)
    assert {rid: outcome for rid, (_, _, outcome) in reference.items()} == expected


def test_smoke_run_reports_every_metric_and_no_failure():
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], capture_output=True, text=True,
                          cwd=ROOT, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            key = f"{workload['name']}.{metric['name']}"
            assert result["metrics"][key]["unit"] == metric["unit"], key


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "verify-av", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True, cwd=tmp_path,
                          timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

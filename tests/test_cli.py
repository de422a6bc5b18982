import hashlib
import json
import os
import subprocess
import sys
import sysconfig
from importlib import metadata
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import prccsl
from prccsl import (
    FAULT_TARGETS, AVParams, SpecSyntaxError, SpecValidationError, Trace, parse, simulate, write_trace,
)
from prccsl.cli import _build_parser, main

# the package under test: the source tree or an installed copy, whichever was imported
SRC = Path(prccsl.__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
DENSE_SPEC = Path(__file__).resolve().parents[1] / "perfbench" / "dense.prccsl"

PASSING_SPEC = """\
clock a
clock b
rel both: a coincides b prob >= 0.9
rel sub: a subclockof ms prob >= 1
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def passing_trace(path):
    evens = range(0, 10, 2)
    t = Trace.from_dates(["ms", "a", "b"], 10, {"ms": range(10), "a": evens, "b": evens})
    write_trace(t, path)
    return str(path)


def test_check_valid_spec_exits_zero(tmp_path, capsys):
    spec = write(tmp_path / "s.prccsl", PASSING_SPEC)
    trace = passing_trace(tmp_path / "t.csv")
    out = tmp_path / "report.json"
    code = main(["check", "--spec", spec, "--trace", trace, "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "both" in text and "valid" in text
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["summary"] == {"total": 2, "valid": 2, "fail": 0, "vacuous": 0, "error": 0}
    assert report["tool"]["name"] == "prccsl"
    record = report["relations"][0]
    assert record["id"] == "both" and record["outcome"] == "valid"
    assert record["probability"] == {"decimal": "1", "fraction": "5/5"}
    assert record["threshold"]["fraction"] == "9/10"
    assert report["trace"]["steps"] == 10
    # with --format json, --out holds the very text printed
    json_out = tmp_path / "report-json.json"
    code = main(["check", "--spec", spec, "--trace", trace, "--format", "json", "--out", str(json_out)])
    assert code == 0
    assert json_out.read_text(encoding="utf-8") == capsys.readouterr().out


def test_check_accepts_spec_with_byte_order_mark(tmp_path, capsys):
    trace = passing_trace(tmp_path / "t.csv")
    reports = []
    for name, prefix in (("plain.prccsl", ""), ("bom.prccsl", "\ufeff")):
        spec = write(tmp_path / name, prefix + PASSING_SPEC)
        assert main(["check", "--spec", spec, "--trace", trace, "--format", "json"]) == 0
        reports.append(json.loads(capsys.readouterr().out)["relations"])
    assert reports[0] == reports[1]


def test_check_failing_relation_exits_one(tmp_path, capsys):
    spec = write(
        tmp_path / "s.prccsl",
        "clock a\nclock b\nrel never: a coincides b prob >= 0.9\n",
    )
    t = Trace.from_dates(["ms", "a", "b"], 2, {"ms": [0, 1], "a": [0], "b": [1]})
    path = tmp_path / "t.csv"
    write_trace(t, path)
    code = main(["check", "--spec", spec, "--trace", str(path), "--format", "json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["relations"][0]["outcome"] == "fail"
    assert report["relations"][0]["probability"]["fraction"] == "0/2"


def test_check_vacuous_exits_zero(tmp_path, capsys):
    spec = write(tmp_path / "s.prccsl", "clock a\nclock b\nrel v: a subclockof b prob >= 1\n")
    t = Trace.from_dates(["ms", "a", "b"], 1, {"ms": [0]})
    path = tmp_path / "t.csv"
    write_trace(t, path)
    assert main(["check", "--spec", spec, "--trace", str(path)]) == 0
    assert "vacuous" in capsys.readouterr().out


def test_check_missing_clock_exits_two(tmp_path, capsys):
    spec = write(tmp_path / "s.prccsl", "clock zz\nrel r: zz coincides ms prob >= 0.5\n")
    trace = passing_trace(tmp_path / "t.csv")
    code = main(["check", "--spec", spec, "--trace", trace, "--format", "json"])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    record = report["relations"][0]
    assert record["outcome"] == "error" and "zz" in record["error"]
    assert report["summary"]["error"] == 1


def test_check_missing_clock_text_report_exits_two(tmp_path, capsys):
    spec = write(tmp_path / "s.prccsl", "clock zz\nrel r: zz coincides ms prob >= 0.5\n")
    trace = passing_trace(tmp_path / "t.csv")
    assert main(["check", "--spec", spec, "--trace", trace]) == 2
    out = capsys.readouterr().out
    assert "r          error: unknown clock(s) in trace: zz\n" in out
    assert "1 error" in out


def test_check_spec_error_exits_two(tmp_path, capsys):
    spec = write(tmp_path / "bad.prccsl", "clock clock\n")
    trace = passing_trace(tmp_path / "t.csv")
    assert main(["check", "--spec", spec, "--trace", trace]) == 2
    assert "error" in capsys.readouterr().err


def test_check_bad_trace_exits_two(tmp_path, capsys):
    spec = write(tmp_path / "s.prccsl", PASSING_SPEC)
    trace = tmp_path / "t.csv"
    for data, line in [
        (b"step,a\n0,7\n", 2),
        (b"step,ms,a,b,z\n0,1,1,1,0\n1,1,0,0,7\n", 3),  # in a column the spec does not name
        (b"step,ms,a\n0,1,0\n1,1,2\n2,1,0\n3,1,\xff\n", 3),  # the first bad line, not the byte on line 5
    ]:
        trace.write_bytes(data)
        assert main(["check", "--spec", spec, "--trace", str(trace)]) == 2
        assert f"(line {line})" in capsys.readouterr().err


def test_check_invalid_utf8_exits_two_with_its_location(tmp_path, capsys):
    spec = tmp_path / "s.prccsl"
    spec.write_bytes(b"\xef\xbb\xbfclock a\r\n# caf\xe9\nclock b\n")
    trace = tmp_path / "t.csv"
    trace.write_bytes(b"step,ms,a\n0,1,0\n1,1,1\n2,1,\xff\n")
    assert main(["check", "--spec", str(spec), "--trace", passing_trace(tmp_path / "ok.csv")]) == 2
    assert "not valid UTF-8 (line 2, column 6)" in capsys.readouterr().err
    assert main(["check", "--spec", write(tmp_path / "ok.prccsl", PASSING_SPEC), "--trace", str(trace)]) == 2
    assert "not valid UTF-8 (line 4)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, at",
    # the byte order mark is not counted; "\r\n" and a lone "\r" each end a
    # line, and columns count characters
    [(b"\xff", "(line 1, column 1)"), ("\ufeffclock a\r\nrel\r\u03b4x".encode("utf-8") + b"\xff", "(line 3, column 3)")],
    ids=["first-byte", "bom-crlf-cr"],
)
def test_check_places_a_byte_that_is_not_utf8(tmp_path, capsys, data, at):
    spec = tmp_path / "s.prccsl"
    spec.write_bytes(data)
    assert main(["check", "--spec", str(spec), "--trace", passing_trace(tmp_path / "ok.csv")]) == 2
    assert f"not valid UTF-8 {at}" in capsys.readouterr().err


def test_check_missing_file_exits_two(tmp_path, capsys):
    spec = write(tmp_path / "s.prccsl", PASSING_SPEC)
    assert main(["check", "--spec", spec, "--trace", str(tmp_path / "no.csv")]) == 2
    assert "error" in capsys.readouterr().err


def test_check_samples_cap(tmp_path, capsys):
    spec = write(tmp_path / "s.prccsl", "clock a\nrel r: a subclockof ms prob >= 1\n")
    t = Trace.from_dates(["ms", "a"], 6, {"ms": range(3), "a": range(6)})
    path = tmp_path / "t.csv"
    write_trace(t, path)
    code = main(["check", "--spec", spec, "--trace", str(path), "--samples", "3", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["relations"][0]["k"] == 3
    assert report["settings"]["samples"] == 3


def test_simulate_writes_csv_and_digest(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["simulate", "--steps", "500", "--seed", "3", "--out", str(out)]) == 0
    digest = capsys.readouterr().out
    assert "500 steps" in digest and "ms: 500 ticks" in digest
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("step,ms,cmrTrig,")
    # the written files carry the locked digests of tests/test_golden.py
    digests = json.loads((DATA / "trace_digests.json").read_text(encoding="utf-8"))
    faulty = ["--steps", str(digests["fault_steps"]), "--seed", str(digests["fault_seed"]), "--fault"]
    for argv, digest in [
        (["--steps", "999", "--seed", "2"], digests["short"]["999"]["2"]),
        ([*faulty, "exec-R7:0.2"], digests["faults"]["exec-R7"]["0.2"]),
        ([*faulty, "periodic-R1:0.2"], digests["faults"]["periodic-R1"]["0.2"]),
    ]:
        assert main(["simulate", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_simulate_then_check_round_trip(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["simulate", "--steps", "6000", "--out", str(out)]) == 0
    from importlib import resources

    spec = tmp_path / "av.prccsl"
    spec.write_text(
        resources.files("prccsl").joinpath("data/av_requirements.prccsl").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    assert main(["check", "--spec", str(spec), "--trace", str(out)]) == 0


def test_check_catches_faulted_trace(tmp_path, capsys):
    trace = tmp_path / "faulty.csv"
    assert main(
        ["simulate", "--steps", "20000", "--seed", "42",
         "--fault", "periodic-R1:0.10", "--out", str(trace)]
    ) == 0
    capsys.readouterr()
    from importlib import resources

    spec = tmp_path / "av.prccsl"
    spec.write_text(
        resources.files("prccsl").joinpath("data/av_requirements.prccsl").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    code = main(["check", "--spec", str(spec), "--trace", str(trace), "--format", "json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    by_id = {r["id"]: r for r in report["relations"]}
    assert by_id["R1"]["outcome"] == "fail"
    assert by_id["R2"]["outcome"] == "valid"


def test_simulate_fault_argument(tmp_path):
    out = tmp_path / "t.csv"
    code = main(["simulate", "--steps", "500", "--fault", "periodic-R1:0.5", "--out", str(out)])
    assert code == 0
    assert main(["simulate", "--steps", "500", "--fault", "nope:0.5", "--out", str(out)]) == 2
    with pytest.raises(SystemExit):
        main(["simulate", "--steps", "500", "--fault", "periodic-R1", "--out", str(out)])
    with pytest.raises(SystemExit):
        main(["simulate", "--steps", "500", "--fault", "periodic-R1:x", "--out", str(out)])


def test_verify_av_small_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify-av", "--steps", "6000", "--out", str(out), "--format", "json"])
    assert code == 0
    stdout = capsys.readouterr().out
    report = json.loads(stdout)
    assert report["summary"]["total"] == 36
    assert report["summary"]["fail"] == 0 and report["summary"]["error"] == 0
    assert report["trace"] == {"seed": 42, "steps": 6000, "fault": None}
    assert json.loads(out.read_text(encoding="utf-8")) == report
    # --out holds the very text --format json prints
    assert out.read_text(encoding="utf-8") == stdout


def test_verify_av_threshold_one_flips_jittered_relations(capsys):
    # ratio-1 relations stay valid at threshold 1; any tolerated miss flips
    code = main(
        ["verify-av", "--steps", "60000", "--threshold", "1", "--seed", "42",
         "--format", "json"]
    )
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    by_id = {r["id"]: r for r in report["relations"]}
    assert by_id["R18"]["outcome"] == "fail"
    assert by_id["R18"]["m"] < by_id["R18"]["k"]
    assert by_id["R1"]["outcome"] == "valid"
    assert by_id["R27"]["outcome"] == "valid"


def test_verify_av_fault_fails_its_golden_relations(capsys):
    golden = json.loads((DATA / "golden_verdicts.json").read_text(encoding="utf-8"))
    code = main(["verify-av", "--seed", "42", "--fault", "exec-R7:1.0", "--format", "json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["trace"] == {"seed": 42, "steps": golden["steps"], "fault": "exec-R7:1.0"}
    not_valid = [r["id"] for r in report["relations"] if r["outcome"] != "valid"]
    assert not_valid == golden["faults"]["exec-R7"]["1.0"]


def test_verify_av_text_report_names_the_fault(capsys):
    assert main(["verify-av", "--steps", "2000", "--fault", "exec-R7:1"]) == 1
    assert "\ntrace: simulated(seed=42, steps=2000, fault=exec-R7:1.0)\n" in capsys.readouterr().out


def test_verify_av_short_run_reports_vacuous(capsys):
    code = main(["verify-av", "--steps", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert "\ntrace: simulated(seed=42, steps=100)\n" in out
    assert "vacuous" in out and "warning" in out
    assert ", 0 fail," in out


def test_simulate_zero_steps_header_only(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["simulate", "--steps", "0", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 and lines[0].startswith("step,ms,")


def test_verify_av_bad_threshold():
    with pytest.raises(SystemExit):
        main(["verify-av", "--threshold", "1.5"])
    with pytest.raises(SystemExit):
        main(["verify-av", "--threshold", "abc"])
    # only the spec's "prob >=" literal: no exponent (Fraction alone would
    # take this one, check the whole trace, then fail to print it), no ratio
    for text in ("1e-5000", "1/2"):
        with pytest.raises(SystemExit):
            main(["verify-av", "--steps", "100", "--threshold", text])


@pytest.mark.parametrize("text, shown", [("0.95", "0.95"), ("0.950", "0.95"), ("1", "1"), ("0.0625", "0.0625")])
def test_verify_av_reports_the_threshold_as_its_exact_decimal(text, shown, capsys):
    code = main(["verify-av", "--steps", "200", "--threshold", text, "--format", "json"])
    assert code in (0, 1)
    assert json.loads(capsys.readouterr().out)["settings"]["threshold"] == shown


@pytest.mark.parametrize(
    "literal, shown, fraction",
    [
        ("0.9999999999999999", "0.9999999999999999", "9999999999999999/10000000000000000"),
        ("0.0000000000000001", "0.0000000000000001", "1/10000000000000000"),
    ],
)
def test_the_report_shows_a_threshold_as_its_exact_decimal(tmp_path, capsys, literal, shown, fraction):
    # not rounded to 15 digits ("1.00000000000000"), nor in exponent form ("1E-16")
    spec = write(tmp_path / "s.prccsl", f"clock a\nrel r: a coincides a prob >= {literal}\n")
    trace = passing_trace(tmp_path / "t.csv")
    assert main(["check", "--spec", spec, "--trace", trace]) == 0
    row = capsys.readouterr().out.splitlines()[4].split()
    assert row[0] == "r" and row[-2:] == [shown, "valid"]
    assert main(["check", "--spec", spec, "--trace", trace, "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)["relations"][0]
    assert record["threshold"] == {"decimal": shown, "fraction": fraction}
    assert record["probability"] == {"decimal": "1", "fraction": "5/5"}
    code = main(["verify-av", "--steps", "200", "--threshold", literal, "--format", "json"])
    assert code in (0, 1)
    report = json.loads(capsys.readouterr().out)
    assert report["settings"]["threshold"] == shown
    assert {record["threshold"]["decimal"] for record in report["relations"]} == {shown}


def test_a_threshold_without_a_finite_decimal_keeps_its_rounded_decimal():
    from fractions import Fraction

    from prccsl import Ref, RelationKind, RelationSpec, build_report, check_relations, render_text

    trace = Trace.from_dates(["ms", "a"], 3, {"ms": range(3), "a": [0, 1, 2]})
    relation = RelationSpec("r", RelationKind.COINCIDENCE, Ref("a"), Ref("ms"), Fraction(1, 3))
    report = build_report(spec="library", trace={"steps": 3}, settings={},
                          results=check_relations([relation], trace), duration_seconds=0)
    assert report["relations"][0]["threshold"] == {"decimal": "0.333333333333333", "fraction": "1/3"}
    assert "0.333333333333333  valid" in render_text(report)


@pytest.mark.parametrize(
    "text",
    ["1.", ".5", "1e-5", "01.50", "0." + "5" * 5000, "1/2", "+0.5", "0.5", "01.0", "0", "1.000", "0." + "5" * 4000],
    ids=lambda text: text if len(text) < 10 else f"{len(text)}-chars",
)
def test_threshold_flag_and_spec_literal_accept_the_same_text(text, capsys):
    try:
        in_spec = parse(f"rel r: ms coincides ms prob >= {text}\n").relations[0].threshold
    except (SpecSyntaxError, SpecValidationError):
        in_spec = None
    try:
        in_flag = _build_parser().parse_args(["verify-av", "--threshold", text]).threshold
    except SystemExit:
        in_flag = None
    assert in_flag == in_spec
    assert (in_flag is None) == (text in ("1.", ".5", "1e-5", "01.50", "1/2", "+0.5") or len(text) > 5000)


def test_bad_parameter_values_exit_two(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["simulate", "--steps", "-1", "--out", str(out)]) == 2
    spec = write(tmp_path / "s.prccsl", PASSING_SPEC)
    trace = passing_trace(tmp_path / "t2.csv")
    assert main(["check", "--spec", spec, "--trace", trace, "--samples", "0"]) == 2
    assert "error" in capsys.readouterr().err



@pytest.mark.parametrize("command", ["simulate", "verify-av"])
def test_oversized_steps_exit_two_without_traceback(tmp_path, capsys, command):
    out = tmp_path / "t.csv"
    argv = [command, "--steps", str(10**20)] + (["--out", str(out)] if command == "simulate" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("prccsl: error: ") and "Traceback" not in err
    assert not out.exists()


def test_out_of_memory_exits_two_with_a_message(tmp_path, capsys, monkeypatch):
    def exhausted(params, fault):
        raise MemoryError

    monkeypatch.setattr("prccsl.simulator.simulate", exhausted)
    assert main(["simulate", "--steps", "10", "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == "prccsl: error: MemoryError\n"


def test_check_rejects_samples_below_one_without_relations(tmp_path, capsys):
    spec = write(tmp_path / "s.prccsl", "clock a\n")
    trace = passing_trace(tmp_path / "t.csv")
    assert main(["check", "--spec", spec, "--trace", trace, "--samples", "0"]) == 2
    assert "--samples must be positive, got 0" in capsys.readouterr().err


# Runs main() on its arguments (none: import only) in a fresh interpreter
# and prints the exit code and the sorted names in sys.modules.
_PROBE = """\
import sys
from prccsl.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *sorted(sys.modules))
"""


def run_fresh(*argv, stdin=None):
    """``argv`` run in a fresh process that imports the package under test."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(argv, input=stdin, capture_output=True, env=env, timeout=120)


def loaded_modules(argv, *options):
    run = run_fresh(sys.executable, *options, "-c", _PROBE, *argv)
    assert run.returncode == 0, run.stderr
    code, *modules = run.stdout.decode().splitlines()[-1].split()
    return int(code), set(modules)


def test_the_cli_module_runs_as_a_script():
    # python -m runs the __main__ guard, which the console script skips
    run = run_fresh(sys.executable, "-m", "prccsl.cli", "verify-av", "--steps", "2000")
    assert run.returncode in (0, 1), run.stderr


def test_the_installed_console_script_runs():
    try:
        dist = metadata.distribution("prccsl")
    except metadata.PackageNotFoundError:
        pytest.skip("no prccsl distribution is installed (a source-tree run)")
    scripts = dist.entry_points.select(group="console_scripts", name="prccsl")
    assert [script.value for script in scripts] == ["prccsl.cli:main"]
    run = run_fresh(str(Path(sysconfig.get_path("scripts")) / "prccsl"), "verify-av", "--steps", "2000")
    assert run.returncode == 0, run.stderr


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_check_reads_a_trace_through_a_pipe(tmp_path, capsys):
    # 10001 steps cross every reader segment boundary up to 10**4, and the
    # dense spec runs all five relation kinds and all four operators
    trace = tmp_path / "t.csv"
    assert main(["simulate", "--steps", "10001", "--seed", "3", "--out", str(trace)]) == 0
    capsys.readouterr()
    argv = ["check", "--spec", str(DENSE_SPEC), "--format", "json", "--trace"]
    code = main([*argv, str(trace)])
    assert code in (0, 1)
    piped = run_fresh(sys.executable, "-m", "prccsl.cli", *argv, "/dev/stdin", stdin=trace.read_bytes())
    assert piped.returncode == code, piped.stderr
    assert json.loads(piped.stdout)["relations"] == json.loads(capsys.readouterr().out)["relations"]


def test_importing_cli_loads_no_subcommand_module():
    _, modules = loaded_modules([])
    assert {m for m in modules if m.startswith("prccsl")} == {"prccsl", "prccsl.cli", "prccsl.errors"}


@pytest.mark.parametrize(
    "command, needed, not_loaded",
    [
        ("simulate", {"prccsl.simulator", "prccsl.traceio"},
         {"prccsl.speclang", "prccsl.exprs", "prccsl.relations", "prccsl.report",
          "dataclasses", "json", "fractions", "csv"}),
        ("check", {"prccsl.speclang", "prccsl.traceio", "prccsl.relations"},
         {"prccsl.simulator", "csv", "dataclasses", "inspect"}),
        ("verify-av", {"prccsl.speclang", "prccsl.simulator", "prccsl.relations"},
         {"prccsl.traceio", "csv", "dataclasses", "inspect"}),
    ],
)
def test_each_subcommand_imports_only_its_own_modules(tmp_path, command, needed, not_loaded):
    steps = 200
    csv_path = tmp_path / "t.csv"
    write_trace(simulate(AVParams(seed=1, steps=steps)), csv_path)
    argv = {
        "simulate": ["simulate", "--steps", str(steps), "--fault", "exec-R7:0.2",
                     "--out", str(tmp_path / "out.csv")],
        "check": ["check", "--spec", str(SRC / "prccsl" / "data" / "av_requirements.prccsl"),
                  "--trace", str(csv_path), "--format", "json"],
        "verify-av": ["verify-av", "--steps", str(steps), "--threshold", "0.5"],
    }[command]
    code, modules = loaded_modules(argv)
    assert code in (0, 1)
    assert needed <= modules
    assert not_loaded.isdisjoint(modules), sorted(not_loaded & modules)


def test_verify_av_reads_the_bundled_corpus_without_importlib_resources():
    # it costs about 22 ms on a clean interpreter; -S, since a .pth file
    # that site runs may import it anyway
    code, modules = loaded_modules(["verify-av", "--steps", "200"], "-S")
    assert code in (0, 1)
    assert "importlib.resources" not in modules and "prccsl.simulator" in modules


def test_verify_av_on_a_clean_interpreter_loads_no_dataclasses():
    # the nodes import it only for a caller of the dataclasses API, and
    # with inspect it costs 7-9 ms of each call
    code, modules = loaded_modules(["verify-av", "--steps", "200"], "-S")
    assert code in (0, 1)
    assert {"dataclasses", "inspect"}.isdisjoint(modules) and "prccsl.exprs" in modules


# Calls main() N times on the other arguments in a fresh interpreter.  Its
# atexit probe, registered first, runs last (atexit is last in, first
# out), and prints how often gc.freeze ran and whether anything is frozen.
_EXIT_PROBE = """\
import atexit, gc, sys
freeze, calls = gc.freeze, []
gc.freeze = lambda: (calls.append(1), freeze())[-1]
atexit.register(lambda: print(len(calls), gc.get_freeze_count() > 0))
from prccsl.cli import main
for _ in range(int(sys.argv[1])):
    main(sys.argv[2:])
"""


@pytest.mark.parametrize("calls, freezes", [(0, "0 False"), (1, "1 True"), (2, "1 True")])
def test_a_cli_process_freezes_the_collector_once_at_exit(calls, freezes):
    # frozen objects are skipped by the interpreter's final collections;
    # importing the CLI alone changes nothing
    run = run_fresh(sys.executable, "-c", _EXIT_PROBE, str(calls), "verify-av", "--steps", "200")
    assert run.returncode == 0, run.stderr
    assert run.stdout.decode().splitlines()[-1] == freezes


@pytest.mark.parametrize("command", ["check", "verify-av"])
def test_the_report_file_is_complete_at_exit(tmp_path, command):
    trace = tmp_path / "t.csv"
    write_trace(simulate(AVParams(seed=2, steps=2000)), trace)
    argv = {"check": ["check", "--spec", str(DENSE_SPEC), "--trace", str(trace)],
            "verify-av": ["verify-av", "--steps", "2000"]}[command]
    out = tmp_path / "report.json"
    run = run_fresh(sys.executable, "-m", "prccsl.cli", *argv, "--format", "json", "--out", str(out))
    assert run.returncode in (0, 1), run.stderr
    assert run.stdout and out.read_bytes() == run.stdout


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["check"])
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# Fuzzing strategies: well-formed statements and traces mixed with
# token and cell noise, so that drawn inputs reach past the first check.
_SPEC_WORDS = (
    "clock", "def", "rel", "set", "steps", "samples", "prob", ">=", "subclockof",
    "coincides", "excludes", "causes", "precedes", "periodicon", "period", "delayfor",
    "on", "inf", "sup", "(", ")", ",", ":", "=", "a", "b", "d", "r", "ms", "0", "1", "2",
    "0.5", "1.5", "#", "$", "\n",
)
_number = st.sampled_from(("1", "2", "3"))
_expr = st.recursive(
    st.sampled_from(("a", "b", "ms")),
    lambda inner: st.one_of(
        st.tuples(inner, _number).map(lambda t: f"periodicon {t[0]} period {t[1]}"),
        st.tuples(inner, _number, inner).map(lambda t: f"({t[0]} delayfor {t[1]} on {t[2]})"),
        st.tuples(st.sampled_from(("inf", "sup")), inner, inner).map(lambda t: f"{t[0]}({t[1]}, {t[2]})"),
    ),
    max_leaves=4,
)
_statement = st.one_of(
    st.sampled_from(("clock c", "set steps 5", "set samples 2")),
    _expr.map(lambda e: f"def d = {e}"),
    st.tuples(
        st.integers(0, 9),
        _expr,
        st.sampled_from(("subclockof", "coincides", "excludes", "causes", "precedes")),
        _expr,
        st.sampled_from(("0", "0.5", "1")),
    ).map(lambda t: f"rel r{t[0]}: {t[1]} {t[2]} {t[3]} prob >= {t[4]}"),
)
_noise = st.lists(st.sampled_from(_SPEC_WORDS), max_size=6).map(" ".join)
_spec_text = st.one_of(
    st.lists(_statement, max_size=4).map(lambda lines: "clock a\nclock b\n" + "\n".join(lines)),
    st.lists(_statement | _noise, max_size=6).map(lambda lines: "".join(line + "\n" for line in lines)),
    st.text(max_size=60),
)
_csv_text = st.one_of(
    st.lists(st.lists(st.sampled_from("01"), min_size=3, max_size=3), max_size=20).map(
        lambda rows: "step,ms,a,b\n" + "".join(f"{i},{','.join(row)}\n" for i, row in enumerate(rows))
    ),
    st.lists(
        st.lists(st.sampled_from(("step", "ms", "a", "b", "0", "1", "2", "x", "", '"')), max_size=5),
        max_size=8,
    ).map(lambda rows: "".join(",".join(row) + "\n" for row in rows)),
    st.text(max_size=60),
)
_fault = st.tuples(
    st.sampled_from(sorted(FAULT_TARGETS) + ["bogus", ""]),
    st.sampled_from(("0", "0.2", "1", "1.5", "-1", "x", "")),
).map(":".join)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    spec=_spec_text,
    trace=_csv_text,
    check_opts=st.lists(
        st.sampled_from((["--samples", "3"], ["--samples", "0"], ["--format", "json"], ["--format", "xml"])),
        max_size=2,
    ),
    simulate=st.booleans(),
    steps=st.integers(-3, 2000),
    seed=st.integers(-5, 5),
    fault=st.none() | _fault,
)
def test_fuzzed_cli_inputs_exit_zero_one_or_two(tmp_path, spec, trace, check_opts, simulate, steps, seed, fault):
    if simulate:
        argv = ["simulate", "--out", str(tmp_path / "sim.csv"), "--steps", str(steps), "--seed", str(seed)]
        if fault is not None:
            argv += ["--fault", fault]
    else:
        argv = [
            "check",
            "--spec", write(tmp_path / "s.prccsl", spec),
            "--trace", write(tmp_path / "t.csv", trace),
            *[arg for opt in check_opts for arg in opt],
        ]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects usage errors this way
        code = exc.code
    assert code in (0, 1, 2)

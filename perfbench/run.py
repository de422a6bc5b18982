"""End-to-end benchmark of the prccsl CLI, with a traced per-layer run.

Each timed run launches the real CLI once, in a fresh interpreter, in a
closed loop with one client: the next call starts when the previous one
has exited.  Wall time is taken from spawn to exit, CPU time and peak
RSS from ``os.wait4``.  Every call's output is checked against a
reference built outside the timed region (see gate.py).

Workloads (seeded; the program only sees the generated inputs):

* ``verify-av``        simulate + check the bundled 36-relation corpus;
                       sparse clocks, no trace I/O.
* ``check-csv-dense``  check dense.prccsl against a simulator trace CSV;
                       dense clocks, the only trace-reading workload.
* ``simulate-csv``     simulate with fault exec-R7:0.2 and write the CSV;
                       no expression or relation work.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-av --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both runs
    python3 perfbench/run.py --smoke               # every workload at 3000 steps

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced in-process run (traced.py); without
``--trace`` both are reported.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import gate
import traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
DENSE_SPEC = HERE / "dense.prccsl"

STEPS = 60_000  # ROADMAP small size; a 600k-step verify-av call takes ~13 s on 2 CPUs
SMOKE_STEPS = 3_000
FAULT = ("exec-R7", 0.2)
WORKLOADS = ("verify-av", "check-csv-dense", "simulate-csv")
MIN_CALLS = 3
MIN_SETUP_SAMPLES = 9

CLI_MAIN = "import sys; from prccsl.cli import main; sys.exit(main())"
IMPORT_CLI = "import prccsl.cli"

END_TO_END_UNITS = {
    "wall_s": "s",
    "steps_per_s": "steps/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# Which end-to-end metric, on which workload, each layer should move.
LAYER_MOVES = {
    "speclang": "wall_s on verify-av and check-csv-dense, share under 1%: expect no move",
    "simulator": "wall_s on verify-av and simulate-csv; not check-csv-dense",
    "clocks": "peak_rss_mb on all three workloads",
    "traceio": "read_s: wall_s on check-csv-dense only; write_s: wall_s on simulate-csv only",
    "exprs": "wall_s and cpu_s on verify-av (sparse) and check-csv-dense (dense); not simulate-csv",
    "relations": "wall_s and cpu_s on verify-av (sparse) and check-csv-dense (dense); not simulate-csv",
    "report": "wall_s on verify-av and check-csv-dense: expect no move",
    "trace": "nothing: tracing cost of the per-layer run",
}


@dataclasses.dataclass
class Prepared:
    """One workload's generated inputs and the reference to check against."""

    name: str
    seed: int
    steps: int
    argv: list[str]
    ops_per_call: int
    dates: dict[str, list[int]]
    clocks: tuple[str, ...]
    fault: tuple[str, float] | None = None
    spec_text: str | None = None
    relations: list[Any] | None = None
    reference: dict[str, tuple[int, int, str]] | None = None
    csv_path: str | None = None
    out_path: str | None = None
    csv_bytes: int = 0
    _verified_digest: bytes | None = None

    def failed_ops(self, exit_code: int, stdout: str, stderr: str) -> int:
        """Failed operations of one CLI call of this workload."""
        if self.reference is not None:
            return gate.failed_cli_verdicts(exit_code, stdout, stderr, self.reference)
        ok = exit_code == 0 and "Traceback" not in stderr and self.verify_csv()
        return 0 if ok else self.ops_per_call

    def verify_csv(self) -> bool:
        """Check, then remove, the CSV the simulate workload wrote."""
        try:
            with open(self.out_path, "rb") as handle:
                data = handle.read()
        except OSError:
            return False
        self.csv_bytes = len(data)
        digest = hashlib.sha256(data).digest()
        # a file byte-identical to one already parsed and matched needs no reparse
        ok = digest == self._verified_digest or gate.csv_matches(
            self.out_path, self.clocks, self.steps, self.dates
        )
        if ok:
            self._verified_digest = digest
        os.remove(self.out_path)
        return ok


def prepare(name: str, seed: int, steps: int, workdir: str) -> Prepared:
    """Generate a workload's inputs from ``seed`` and its reference."""
    from prccsl.simulator import AVParams, FaultSpec, simulate, simulate_faulty
    from prccsl.speclang import elaborate, parse

    params = AVParams(seed=seed, steps=steps)
    if name == "simulate-csv":
        trace = simulate_faulty(params, FaultSpec(*FAULT))
        out_path = os.path.join(workdir, "simulated.csv")
        fault = f"{FAULT[0]}:{FAULT[1]}"
        argv = ["simulate", "--steps", str(steps), "--seed", str(seed), "--fault", fault, "--out", out_path]
        return Prepared(name, seed, steps, argv, 1, gate.dates_of(trace), tuple(trace.clocks),
                        fault=FAULT, out_path=out_path)

    trace = simulate(params)
    dates = gate.dates_of(trace)
    if name == "verify-av":
        spec_text = (SRC / "prccsl" / "data" / "av_requirements.prccsl").read_text("utf-8")
        argv = ["verify-av", "--steps", str(steps), "--seed", str(seed), "--format", "json"]
        csv_path = None
    else:
        spec_text = DENSE_SPEC.read_text("utf-8")
        csv_path = os.path.join(workdir, "dense.csv")
        gate.write_csv(csv_path, trace.clocks, steps, dates)
        argv = ["check", "--spec", str(DENSE_SPEC), "--trace", csv_path, "--format", "json"]
    relations = elaborate(parse(spec_text))[1]
    reference = gate.reference_verdicts(relations, dates, steps)
    return Prepared(name, seed, steps, argv, len(reference), dates, tuple(trace.clocks),
                    spec_text=spec_text, relations=relations, reference=reference, csv_path=csv_path)


@dataclasses.dataclass
class Call:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def spawn(argv: list[str], workdir: str) -> Call:
    """Run one process to exit; time it from spawn to exit."""
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as out, open(err_path, encoding="utf-8", errors="replace") as err:
        stdout, stderr = out.read(), err.read()
    # ru_maxrss is in KiB on Linux
    return Call(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode, stdout, stderr)


def measure(prepared: Prepared, seconds: float, min_calls: int, workdir: str) -> tuple[list[Call], list[float], int]:
    """Closed loop of CLI calls for ``seconds``; returns calls, setup times, failed ops.

    One warm-up call and one warm-up import run first and are checked
    but not timed.  A fresh-interpreter import of ``prccsl.cli`` is timed
    after every call, so set-up samples spread over the whole run.
    """
    cli = [sys.executable, "-c", CLI_MAIN, *prepared.argv]
    setup = [sys.executable, "-c", IMPORT_CLI]
    spawn(setup, workdir)
    warm = spawn(cli, workdir)
    failed = prepared.failed_ops(warm.exit_code, warm.stdout, warm.stderr)
    calls: list[Call] = []
    setups: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(calls) < min_calls or time.perf_counter() < deadline:
        call = spawn(cli, workdir)
        failed += prepared.failed_ops(call.exit_code, call.stdout, call.stderr)
        calls.append(call)
        setups.append(spawn(setup, workdir).wall_s)
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn(setup, workdir).wall_s)
    return calls, setups, failed


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile above the median with at least ten samples beyond it."""
    ordered = sorted(values)
    for pct in (99, 95, 90, 75):
        rank = -(-pct * len(ordered) // 100)  # nearest rank
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def end_to_end(prepared: Prepared, calls: list[Call], setups: list[float]) -> dict[str, float]:
    samples = {
        "wall_s": [c.wall_s for c in calls],
        "steps_per_s": [prepared.steps / c.wall_s for c in calls],
        "cpu_s": [c.cpu_s for c in calls],
        "peak_rss_mb": [c.peak_rss_mb for c in calls],
        "setup_s": setups,
    }
    for name, values in samples.items():
        tail = tail_percentile(values)
        shown = f"p{tail[0]} {tail[1]:.6g}" if tail else "no percentile above p50 has 10 samples beyond it"
        print(f"# {name}: median of n={len(values)}; {shown}")
    return {name: statistics.median(values) for name, values in samples.items()}


def run_workload(
    name: str, seed: int, steps: int, seconds: float, trace: int | None
) -> tuple[dict[str, tuple[float, str]], int, int]:
    """Prepare, measure and print one workload; returns (metrics, attempted, failed).

    ``seconds`` of 0 (smoke mode) makes one timed call per measurement.
    """
    phases = (0, 1) if trace is None else (trace,)
    min_calls = MIN_CALLS if seconds > 0 else 1
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        started = time.perf_counter()
        prepared = prepare(name, seed, steps, workdir)
        print(f"# workload {name}: seed {seed}, steps {steps}, "
              f"fault {':'.join(map(str, prepared.fault)) if prepared.fault else 'none'}, "
              f"prepared in {time.perf_counter() - started:.2f} s")
        metrics: dict[str, tuple[float, str]] = {}
        attempted = failed = 0
        for phase in phases:
            if phase == 0:
                calls, setups, bad = measure(prepared, seconds, min_calls, workdir)
                attempted += (len(calls) + 1) * prepared.ops_per_call
                failed += bad
                print(f"# calls {len(calls)} timed + 1 warm-up, setup samples {len(setups)}")
                for metric, value in end_to_end(prepared, calls, setups).items():
                    metrics[metric] = (value, END_TO_END_UNITS[metric])
            else:
                calls, setups, bad = measure(prepared, 0, min_calls, workdir)
                attempted += (len(calls) + 1) * prepared.ops_per_call
                failed += bad
                wall_s = statistics.median(c.wall_s for c in calls)
                setup_s = statistics.median(setups)
                print(f"# untraced CLI: wall_s {wall_s:.6g} s, setup_s {setup_s:.6g} s "
                      f"(medians of {len(calls)} and {len(setups)})")
                layer_metrics, absent, tried, bad, repeats = traced.traced_run(
                    prepared, seconds, wall_s, setup_s, str(OUT_DIR))
                attempted += tried
                failed += bad
                print(f"# traced pipeline repeats {repeats}; absent layers: {', '.join(absent) or 'none'}")
                for metric, value in layer_metrics.items():
                    metrics[metric] = (value, layer_unit(metric))
    return metrics, attempted, failed


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MiB"
    if metric.endswith(("density", "obs_per_step")):
        return "ratio"
    return "count"


def print_metrics(metrics: dict[str, tuple[float, str]], attempted: int, failed: int) -> None:
    for name, (value, unit) in metrics.items():
        layer = name.split(".", 1)[0]
        note = f"  # moves {LAYER_MOVES[layer]}" if layer in LAYER_MOVES else ""
        print(f"{name} {value!r} {unit}{note}")
    print(f"error_rate {failed / attempted if attempted else 0.0!r} ratio  # {failed} failed of {attempted} attempted")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help=f"one call per run at {SMOKE_STEPS} steps")
    args = parser.parse_args(argv)
    steps = SMOKE_STEPS if args.smoke else STEPS
    if args.smoke:
        args.seconds = 0

    if not (SRC / "prccsl" / "__init__.py").is_file():
        print(f"perfbench: no prccsl sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import prccsl

    if not Path(prccsl.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported prccsl from {prccsl.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"seed {args.seed}, steps {steps}, seconds {args.seconds:g}, trace {args.trace}")
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    merged: dict[str, tuple[float, str]] = {}
    attempted = failed = 0
    for name in names:
        metrics, tried, bad = run_workload(name, args.seed, steps, args.seconds, args.trace)
        print_metrics(metrics, tried, bad)
        attempted += tried
        failed += bad
        prefix = f"{name}." if len(names) > 1 else ""
        merged.update({prefix + metric: value for metric, value in metrics.items()})
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in merged.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Three subcommands: check a spec against a trace CSV, simulate the
vehicle model to a trace CSV, and verify-av which simulates and checks
the bundled requirement corpus in one go.  check and verify-av report
through one function, ``_check``, which serializes the JSON report once,
so ``--out`` holds the very text that ``--format json`` prints.

Exit codes: 0 when every checked relation is valid or vacuous, 1 when
any relation fails its threshold, 2 on usage, parse, trace-format, or
per-relation evaluation errors.

Each subcommand imports only the modules it runs: ``simulate`` loads
the simulator and the CSV writer but not the spec language, the
engine or the report; ``check`` does not load the simulator and
``verify-av`` does not load the CSV reader.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
import time
from typing import TYPE_CHECKING, Any, Sequence

from .errors import PrccslError

if TYPE_CHECKING:
    from fractions import Fraction

    from .clocks import Trace
    from .relations import RelationSpec
    from .simulator import FaultSpec

__all__ = ["main"]

_BUNDLED_SPEC = "av_requirements.prccsl"
_DEFAULT_STEPS = 60000


def _fault_arg(text: str) -> FaultSpec:
    from .simulator import FaultSpec

    target, sep, rate = text.rpartition(":")
    if not sep or not target:
        raise argparse.ArgumentTypeError("expected TARGET:RATE")
    try:
        return FaultSpec(target, float(rate))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad fault rate {rate!r}")


def _threshold_arg(text: str) -> Fraction:
    from .speclang import _threshold  # loaded anyway: verify-av parses the bundled corpus

    try:
        return _threshold(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prccsl",
        description="Probabilistic clock-constraint checking over tick traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="check a spec against a trace CSV")
    check.set_defaults(run=_cmd_check)
    check.add_argument("--spec", required=True, help="path to a .prccsl file")
    check.add_argument("--trace", required=True, help="path to a trace CSV")
    check.add_argument("--samples", type=int, help="sample cap overriding the spec")

    sim = sub.add_parser("simulate", help="simulate the vehicle model")
    sim.set_defaults(run=_cmd_simulate)
    sim.add_argument("--steps", type=int, default=_DEFAULT_STEPS)

    verify = sub.add_parser("verify-av", help="simulate and check the bundled corpus")
    verify.set_defaults(run=_cmd_verify_av)
    verify.add_argument("--steps", type=int, help="override the corpus step count")
    verify.add_argument("--threshold", type=_threshold_arg, help="replace every relation threshold")

    # shared options, each declared once; simulate's own --out between the loops
    # keeps its --help order
    for command in (sim, verify):
        command.add_argument("--seed", type=int, default=42)
        command.add_argument("--fault", type=_fault_arg, metavar="TARGET:RATE")
    sim.add_argument("--out", required=True, help="trace CSV output path")
    for command in (check, verify):
        command.add_argument("--out", help="write the JSON report to this path")
        command.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _check(
    args: argparse.Namespace, started: float, spec_label: str, relations: Sequence[RelationSpec],
    trace: Trace, trace_info: dict[str, Any], settings: dict[str, Any],
) -> int:
    """Check ``relations`` on ``trace``, report as ``args`` ask, and return the exit status."""
    from .relations import check_relations
    from .report import build_report, render_text

    results = check_relations(relations, trace)
    report = build_report(spec=spec_label, trace=trace_info, settings=settings, results=results,
                          duration_seconds=time.perf_counter() - started)
    if args.out or args.format == "json":  # serialized once for both
        import json

        text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    print(render_text(report) if args.format == "text" else text, end="")
    summary = report["summary"]
    return 2 if summary["error"] else 1 if summary["fail"] else 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .exprs import clocks_of
    from .speclang import elaborate, parse
    from .traceio import read_trace

    if args.samples is not None and args.samples < 1:
        raise ValueError(f"--samples must be positive, got {args.samples}")
    started = time.perf_counter()
    with open(args.spec, "rb") as handle:
        spec = parse(handle.read())
    if args.samples is not None:
        spec = spec._replace(samples=args.samples)
    _, relations = elaborate(spec)
    # every cell is still validated; only the clocks the relations name get date lists
    named = set().union(*(clocks_of(rel.left) | clocks_of(rel.right) for rel in relations))
    trace = read_trace(args.trace, clocks=named)
    trace_info = {"path": args.trace, "steps": len(trace)}
    settings = {"steps": spec.steps, "samples": spec.samples}
    return _check(args, started, args.spec, relations, trace, trace_info, settings)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulator import AVParams, simulate
    from .traceio import write_trace

    trace = simulate(AVParams(seed=args.seed, steps=args.steps), args.fault)
    write_trace(trace, args.out)
    print(f"wrote {len(trace)} steps x {len(trace.clocks)} clocks to {args.out}")
    for clock in trace.clocks:
        print(f"  {clock}: {len(trace.dates(clock))} ticks")
    return 0


def _cmd_verify_av(args: argparse.Namespace) -> int:
    from .simulator import AVParams, simulate
    from .speclang import elaborate, format_threshold, parse

    started = time.perf_counter()
    with open(os.path.join(os.path.dirname(__file__), "data", _BUNDLED_SPEC), "rb") as handle:
        spec = parse(handle.read())
    _, relations = elaborate(spec)
    if args.threshold is not None:
        relations = [rel._replace(threshold=args.threshold) for rel in relations]
    steps = next(n for n in (args.steps, spec.steps, _DEFAULT_STEPS) if n is not None)
    trace = simulate(AVParams(seed=args.seed, steps=steps), args.fault)
    fault = None if args.fault is None else f"{args.fault.target}:{args.fault.rate}"
    threshold = None if args.threshold is None else format_threshold(args.threshold)
    trace_info = {"seed": args.seed, "steps": steps, "fault": fault}
    settings = {"steps": steps, "samples": spec.samples, "threshold": threshold}
    return _check(args, started, f"{_BUNDLED_SPEC} (bundled)", relations, trace, trace_info, settings)


def main(argv: Sequence[str] | None = None) -> int:
    # at exit, move every object out of the collector's reach: the system
    # frees them anyway, and the final collections would take about 10 ms
    atexit.unregister(gc.freeze)  # registered once per process
    atexit.register(gc.freeze)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (PrccslError, OSError, ValueError, OverflowError, MemoryError) as exc:
        # too many steps raise either of the last two; a MemoryError has no text
        print(f"prccsl: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Three subcommands: check a spec against a trace CSV, simulate the
vehicle model to a trace CSV, and verify-av which simulates and checks
the bundled requirement corpus in one go.

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
import sys
import time
from typing import TYPE_CHECKING, Any, Sequence

from .errors import PrccslError

if TYPE_CHECKING:
    from fractions import Fraction

    from .relations import CheckResult
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
    from fractions import Fraction

    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad threshold {text!r}")
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError("threshold must be in [0, 1]")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prccsl",
        description="Probabilistic clock-constraint checking over tick traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="check a spec against a trace CSV")
    check.add_argument("--spec", required=True, help="path to a .prccsl file")
    check.add_argument("--trace", required=True, help="path to a trace CSV")
    check.add_argument("--samples", type=int, help="sample cap overriding the spec")
    check.add_argument("--out", help="write the JSON report to this path")
    check.add_argument("--format", choices=("text", "json"), default="text")

    sim = sub.add_parser("simulate", help="simulate the vehicle model")
    sim.add_argument("--steps", type=int, default=_DEFAULT_STEPS)
    sim.add_argument("--seed", type=int, default=42)
    sim.add_argument("--fault", type=_fault_arg, metavar="TARGET:RATE")
    sim.add_argument("--out", required=True, help="trace CSV output path")

    verify = sub.add_parser("verify-av", help="simulate and check the bundled corpus")
    verify.add_argument("--steps", type=int, help="override the corpus step count")
    verify.add_argument("--threshold", type=_threshold_arg, help="replace every relation threshold")
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--fault", type=_fault_arg, metavar="TARGET:RATE")
    verify.add_argument("--out", help="write the JSON report to this path")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _emit(report: dict[str, Any], args: argparse.Namespace) -> None:
    import json

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        from .report import render_text

        print(render_text(report), end="")


def _exit_code(results: list[CheckResult]) -> int:
    from .relations import RelationError

    if any(isinstance(result, RelationError) for result in results):
        return 2
    if any(result.outcome == "fail" for result in results):
        return 1
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .relations import check_relations
    from .report import build_report
    from .speclang import elaborate, parse
    from .traceio import read_trace

    started = time.perf_counter()
    with open(args.spec, "r", encoding="utf-8-sig") as handle:
        spec = parse(handle.read())
    if args.samples is not None:
        spec = replace(spec, samples=args.samples)
    _, relations = elaborate(spec)
    trace = read_trace(args.trace)
    results = check_relations(relations, trace)
    report = build_report(
        spec=args.spec,
        trace={"path": args.trace, "steps": len(trace)},
        settings={"steps": spec.steps, "samples": spec.samples},
        results=results,
        duration_seconds=time.perf_counter() - started,
    )
    _emit(report, args)
    return _exit_code(results)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulator import AVParams, simulate, simulate_faulty
    from .traceio import write_trace

    params = AVParams(seed=args.seed, steps=args.steps)
    if args.fault is None:
        trace = simulate(params)
    else:
        trace = simulate_faulty(params, args.fault)
    write_trace(trace, args.out)
    print(f"wrote {len(trace)} steps x {len(trace.clocks)} clocks to {args.out}")
    for clock in trace.clocks:
        print(f"  {clock}: {len(trace.dates(clock))} ticks")
    return 0


def _cmd_verify_av(args: argparse.Namespace) -> int:
    from dataclasses import replace
    from importlib import resources

    from .relations import check_relations
    from .report import build_report
    from .simulator import AVParams, simulate, simulate_faulty
    from .speclang import elaborate, parse

    started = time.perf_counter()
    text = resources.files("prccsl").joinpath("data").joinpath(_BUNDLED_SPEC).read_text("utf-8")
    spec = parse(text)
    _, relations = elaborate(spec)
    if args.threshold is not None:
        relations = [replace(rel, threshold=args.threshold) for rel in relations]
    steps = args.steps
    if steps is None:
        steps = spec.steps if spec.steps is not None else _DEFAULT_STEPS
    params = AVParams(seed=args.seed, steps=steps)
    trace = simulate(params) if args.fault is None else simulate_faulty(params, args.fault)
    results = check_relations(relations, trace)
    fault = None if args.fault is None else f"{args.fault.target}:{args.fault.rate}"
    report = build_report(
        spec=f"{_BUNDLED_SPEC} (bundled)",
        trace={"seed": args.seed, "steps": steps, "fault": fault},
        settings={
            "steps": steps,
            "samples": spec.samples,
            "threshold": str(args.threshold) if args.threshold is not None else None,
        },
        results=results,
        duration_seconds=time.perf_counter() - started,
    )
    _emit(report, args)
    return _exit_code(results)


_COMMANDS = {
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "verify-av": _cmd_verify_av,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PrccslError, OSError, ValueError) as exc:
        print(f"prccsl: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end acceptance checks.

Each test states its expected values independently of the code under
test: counts come from the brute-force oracle, the corpus table is
written out literally, and verdicts are checked at exact thresholds.
"""

import json
import random
import time
from fractions import Fraction

from helpers import csv_text
from prccsl import (
    AVParams,
    DelayFor,
    FaultSpec,
    Inf,
    PeriodicOn,
    Ref,
    RelationKind,
    RelationSpec,
    Sup,
    Trace,
    check_relations,
    elaborate,
    eval_expr,
    format_expr,
    parse,
    pretty_print,
    simulate,
)
from prccsl.cli import main
from prccsl.oracle import oracle_relation
from prccsl.speclang import Definition, SpecFile

CORPUS_PATH = "src/prccsl/data/av_requirements.prccsl"


def corpus_text():
    from importlib import resources

    return resources.files("prccsl").joinpath("data/av_requirements.prccsl").read_text(encoding="utf-8")


# -- 1: monitors agree with the oracle on random traces ----------------


def random_shallow_expr(rng, names):
    form = rng.randrange(4)
    base = Ref(rng.choice(names))
    if form == 0:
        return PeriodicOn(base, rng.randrange(1, 6))
    if form == 1:
        return DelayFor(base, rng.randrange(1, 8), Ref(rng.choice(names)))
    if form == 2:
        return Inf(base, Ref(rng.choice(names)))
    return Sup(base, Ref(rng.choice(names)))


def test_monitors_and_expressions_match_oracle_on_1000_random_traces():
    from prccsl.oracle import oracle_expr

    rng = random.Random(20260815)
    started = time.perf_counter()
    kinds = list(RelationKind)
    checked = 0
    for i in range(1000):
        n = rng.randrange(1, 257)
        names = ["a", "b", "c", "d"][: rng.randrange(2, 5)]
        density = rng.choice((0.02, 0.1, 0.5, 0.9))
        columns = {
            name: [s for s in range(n) if rng.random() < density] for name in names
        }
        trace = Trace.from_dates(names, n, columns)
        left, right = rng.sample(names, 2)
        specs = [
            RelationSpec(f"x{j}", kind, Ref(left), Ref(right), Fraction(1, 2))
            for j, kind in enumerate(kinds)
        ]
        results = check_relations(specs, trace)
        for kind, verdict in zip(kinds, results):
            expected = oracle_relation(kind, columns[left], columns[right], n)
            assert (verdict.k, verdict.m) == expected, (i, kind)
            checked += 1
        for _ in range(2):
            expr = random_shallow_expr(rng, names)
            assert list(eval_expr(expr, trace)) == oracle_expr(expr, columns, n), (i, expr)
    assert checked == 5000
    assert time.perf_counter() - started < 30


# -- 2: verdict flip at fixed counts ------------------------------------


def test_seven_observations_six_successes_flip():
    # c1 ticks seven times; six of those steps see c2 tick as well
    rows = [(1, 1)] * 6 + [(1, 0), (0, 0), (0, 1)]
    dates = {c: [i for i, row in enumerate(rows) if row[col]] for col, c in enumerate(("c1", "c2"))}
    t = Trace.from_dates(["c1", "c2"], len(rows), dates)
    mk = lambda tid, p: RelationSpec(tid, RelationKind.SUBCLOCK, Ref("c1"), Ref("c2"), Fraction(p))
    strict, loose = check_relations([mk("hi", "0.95"), mk("lo", "0.85")], t)
    assert (strict.k, strict.m) == (7, 6)
    assert strict.probability == Fraction(6, 7)
    assert strict.outcome == "fail"
    assert (loose.k, loose.m, loose.outcome) == (7, 6, "valid")


# -- 3: expression laws --------------------------------------------------


def test_expression_laws_hold_exactly():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randrange(1, 128)
        cols = {
            "x": [s for s in range(n) if rng.random() < 0.4],
            "y": [s for s in range(n) if rng.random() < 0.4],
        }
        t = Trace.from_dates(["x", "y"], n, cols)
        inf_ticks = set(eval_expr(Inf(Ref("x"), Ref("y")), t))
        sup_ticks = set(eval_expr(Sup(Ref("x"), Ref("y")), t))
        hx = hy = hi = hs = 0
        for i in range(n):
            hx += i in t.dates("x")
            hy += i in t.dates("y")
            hi += i in inf_ticks
            hs += i in sup_ticks
            assert hi == max(hx, hy)
            assert hs == min(hx, hy)
        period = rng.randrange(1, 6)
        periodic = eval_expr(PeriodicOn(Ref("x"), period), t)
        base = t.dates("x")
        assert set(periodic) <= set(base)
        assert len(periodic) == (len(base) + period - 1) // period
        delayed = eval_expr(DelayFor(Ref("x"), rng.randrange(1, 5), Ref("y")), t)
        assert set(delayed) <= set(t.dates("y"))


# -- 4: the bundled corpus holds on the nominal vehicle ------------------


def test_verify_av_all_valid(tmp_path, capsys):
    out = tmp_path / "report.json"
    started = time.perf_counter()
    code = main(
        ["verify-av", "--steps", "60000", "--threshold", "0.95", "--seed", "42",
         "--out", str(out), "--format", "json"]
    )
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["summary"]["total"] == 36
    assert report["summary"]["valid"] == 36
    assert elapsed < 60


# -- 5: injected faults are caught, tolerable ones are not ---------------


def test_fault_injection_discriminates():
    _, relations = elaborate(parse(corpus_text()))
    params = AVParams(steps=60000, seed=42)

    faulty = simulate(params, FaultSpec("periodic-R1", 0.10))
    by_id = {r.id: r for r in check_relations(relations, faulty)}
    assert by_id["R1"].outcome == "fail"
    assert by_id["R1"].probability < Fraction(19, 20)
    for other in ("R2", "R3", "R4"):
        assert by_id[other].outcome == "valid"

    mild = simulate(params, FaultSpec("exec-R5", 0.02))
    by_id = {r.id: r for r in check_relations(relations, mild)}
    assert by_id["R5_1"].outcome == "valid"
    assert by_id["R5_2"].outcome == "valid"
    assert by_id["R5_2"].m < by_id["R5_2"].k  # the fault is visible in the counts


# -- 6: concrete syntax round-trips and the corpus table ------------------

EXPECTED_RELATIONS = [
    ("R1", "coincidence", "cmrTrig", "(periodicon ms period 50)"),
    ("R2", "coincidence", "signTrig", "(periodicon ms period 200)"),
    ("R3", "coincidence", "obsDetect", "(periodicon ms period 40)"),
    ("R4", "coincidence", "spUpdate", "(periodicon ms period 30)"),
    ("R5_1", "causality", "(imIn delayfor 100 on ms)", "signOut"),
    ("R5_2", "causality", "signOut", "(imIn delayfor 150 on ms)"),
    ("R6_1", "causality", "(cmrTrig delayfor 20 on ms)", "cmrOut"),
    ("R6_2", "causality", "cmrOut", "(cmrTrig delayfor 30 on ms)"),
    ("R7_1", "causality", "(ctrlIn delayfor 100 on ms)", "ctrlOut"),
    ("R7_2", "causality", "ctrlOut", "(ctrlIn delayfor 150 on ms)"),
    ("R8_1", "causality", "(vdIn delayfor 50 on ms)", "vdOut"),
    ("R8_2", "causality", "vdOut", "(vdIn delayfor 100 on ms)"),
    ("R9", "precedence", "(obstc delayfor 500 on ms)", "veRun"),
    ("R10", "precedence", "(obstc delayfor 500 on ms)", "veAcc"),
    ("R11", "precedence", "(obstc delayfor 500 on ms)", "tLeft"),
    ("R12", "precedence", "(obstc delayfor 500 on ms)", "tRight"),
    (
        "R13",
        "causality",
        "sup(sup(speed, signType), sup(sup(direct, gear), torque))",
        "(inf(inf(speed, signType), inf(inf(direct, gear), torque)) delayfor 40 on ms)",
    ),
    (
        "R14",
        "causality",
        "sup(sup(reqTorq, reqDirec), sup(reqGear, reqBrake))",
        "(inf(inf(reqTorq, reqDirec), inf(reqGear, reqBrake)) delayfor 30 on ms)",
    ),
    (
        "R15",
        "causality",
        "sup(sup(reqTorq, reqDirec), sup(reqGear, reqBrake))",
        "(inf(inf(reqTorq, reqDirec), inf(reqGear, reqBrake)) delayfor 40 on ms)",
    ),
    (
        "R16",
        "causality",
        "sup(sup(speed, direct), sup(gear, torque))",
        "(inf(inf(speed, direct), inf(gear, torque)) delayfor 40 on ms)",
    ),
    ("R17_1", "precedence", "(signIn delayfor 150 on ms)", "tqOut"),
    ("R17_2", "precedence", "tqOut", "(signIn delayfor 250 on ms)"),
    ("R18", "precedence", "signOut", "(cmrTrig delayfor 180 on ms)"),
    ("R19", "precedence", "spOut", "(cmrTrig delayfor 430 on ms)"),
    ("R20", "precedence", "startTurnLeft", "(DetectLeftSign delayfor 500 on ms)"),
    ("R21", "precedence", "startTurnRight", "(DetectRightSign delayfor 500 on ms)"),
    ("R22", "precedence", "startBrake", "(DetectStopSign delayfor 500 on ms)"),
    ("R23", "precedence", "Stop", "(DetectStopSign delayfor 3000 on ms)"),
    ("R24", "causality", "(signIn delayfor 250 on ms)", "(signIn delayfor 250 on ms)"),
    ("R25", "causality", "(cmrTrig delayfor 180 on ms)", "(cmrTrig delayfor 180 on ms)"),
    ("R26", "causality", "(cmrTrig delayfor 430 on ms)", "(cmrTrig delayfor 430 on ms)"),
    ("R27", "exclusion", "turnLeft", "rightOn"),
    ("R28", "exclusion", "veAcc", "veBrake"),
    ("R29", "exclusion", "emgcy", "turnLeft"),
    ("R30", "exclusion", "emgcy", "rightOn"),
    ("R31", "exclusion", "emgcy", "veAcc"),
]


def test_corpus_round_trips_and_matches_table():
    spec = parse(corpus_text())
    assert parse(pretty_print(spec)) == spec
    clocks, relations = elaborate(spec)
    assert clocks[0] == "ms" and len(clocks) == 40
    got = [
        (r.id, r.kind.value, format_expr(r.left), format_expr(r.right))
        for r in relations
    ]
    assert got == EXPECTED_RELATIONS
    assert all(r.threshold == Fraction(19, 20) for r in relations)
    assert spec.steps == 60000


def random_expr(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return Ref(rng.choice(names))
    form = rng.choice(("periodic", "delay", "inf", "sup"))
    if form == "periodic":
        return PeriodicOn(random_expr(rng, names, depth - 1), rng.randrange(1, 100))
    if form == "delay":
        return DelayFor(
            random_expr(rng, names, depth - 1),
            rng.randrange(1, 1000),
            random_expr(rng, names, depth - 1),
        )
    node = Inf if form == "inf" else Sup
    return node(random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1))


def random_threshold(rng):
    den = 2 ** rng.randrange(0, 5) * 5 ** rng.randrange(0, 5)
    return Fraction(rng.randrange(0, den + 1), den)


def random_spec(rng):
    clock_names = [f"c{i}" for i in range(rng.randrange(1, 6))]
    usable = ["ms", *clock_names]
    defs = []
    for i in range(rng.randrange(0, 4)):
        name = f"d{i}"
        defs.append(Definition(name, random_expr(rng, usable, 2)))
        usable.append(name)
    rels = tuple(
        RelationSpec(
            f"r{i}",
            rng.choice(list(RelationKind)),
            random_expr(rng, usable, 2),
            random_expr(rng, usable, 2),
            random_threshold(rng),
        )
        for i in range(rng.randrange(0, 5))
    )
    return SpecFile(
        clocks=tuple(clock_names),
        definitions=tuple(defs),
        relations=rels,
        steps=rng.choice((None, 0, 1, 60000)),
        samples=rng.choice((None, 1, 500)),
    )


def test_200_random_specs_round_trip():
    rng = random.Random(1234)
    for i in range(200):
        spec = random_spec(rng)
        printed = pretty_print(spec)
        assert parse(printed) == spec, i
        assert pretty_print(parse(printed)) == printed, i


# -- 7: simulation is deterministic ---------------------------------------


def test_simulate_twice_byte_identical():
    first = csv_text(simulate(AVParams(steps=60000, seed=42)))
    second = csv_text(simulate(AVParams(steps=60000, seed=42)))
    assert first == second

"""Golden verdicts of the bundled corpus at fixed seeds.

``data/golden_verdicts.json`` holds ``(k, m, outcome)`` for all 36
corpus relations at seeds 0-4, and for each fault target at rates 0.2
and 1.0 the relations that are not valid.  The table was recorded from
the per-step engine and checked against ``prccsl.oracle``; any engine
rewrite must reproduce it exactly.

``data/trace_digests.json`` locks the bytes of the simulator's CSV:
the sha256 of ``trace_to_string`` for ``simulate`` at seeds 0-4, for
short runs (0, 1, 57 and 999 steps) at seeds 0-2, and for every fault
target at rates 0.2 and 1.0.  ``random`` gives the same streams on
every supported Python, so the digests do too.
"""

import hashlib
import json
from importlib import resources
from pathlib import Path

import pytest

from prccsl import (
    AVParams,
    FaultSpec,
    check_relations,
    elaborate,
    parse,
    simulate,
    simulate_faulty,
    trace_to_string,
)

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_verdicts.json").read_text(encoding="utf-8"))
DIGESTS = json.loads((Path(__file__).parent / "data" / "trace_digests.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def relations():
    text = resources.files("prccsl").joinpath("data/av_requirements.prccsl").read_text(encoding="utf-8")
    return elaborate(parse(text))[1]


@pytest.mark.parametrize("seed", sorted(GOLDEN["verdicts"]))
def test_corpus_verdicts_match_golden(relations, seed):
    trace = simulate(AVParams(seed=int(seed), steps=GOLDEN["steps"]))
    got = {r.id: [r.k, r.m, r.outcome] for r in check_relations(relations, trace)}
    assert got == GOLDEN["verdicts"][seed]


@pytest.mark.parametrize(
    "target,rate",
    [(target, rate) for target, rates in sorted(GOLDEN["faults"].items()) for rate in rates],
)
def test_fault_matrix_matches_golden(relations, target, rate):
    params = AVParams(seed=GOLDEN["fault_seed"], steps=GOLDEN["steps"])
    trace = simulate_faulty(params, FaultSpec(target, float(rate)))
    not_valid = [r.id for r in check_relations(relations, trace) if r.outcome != "valid"]
    assert not_valid == GOLDEN["faults"][target][rate]


def csv_digest(trace) -> str:
    return hashlib.sha256(trace_to_string(trace).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(DIGESTS["simulate"]))
def test_simulated_csv_bytes_match_golden(seed):
    trace = simulate(AVParams(seed=int(seed), steps=DIGESTS["steps"]))
    assert csv_digest(trace) == DIGESTS["simulate"][seed]


@pytest.mark.parametrize(
    "steps,seed",
    [(steps, seed) for steps, seeds in sorted(DIGESTS["short"].items()) for seed in seeds],
)
def test_short_run_csv_bytes_match_golden(steps, seed):
    trace = simulate(AVParams(seed=int(seed), steps=int(steps)))
    assert csv_digest(trace) == DIGESTS["short"][steps][seed]


@pytest.mark.parametrize(
    "target,rate",
    [(target, rate) for target, rates in sorted(DIGESTS["faults"].items()) for rate in rates],
)
def test_faulty_csv_bytes_match_golden(target, rate):
    params = AVParams(seed=DIGESTS["fault_seed"], steps=DIGESTS["fault_steps"])
    trace = simulate_faulty(params, FaultSpec(target, float(rate)))
    assert csv_digest(trace) == DIGESTS["faults"][target][rate]

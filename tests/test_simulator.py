import random
from bisect import bisect_left
from fractions import Fraction
from itertools import islice
from operator import lt

import pytest

from prccsl import (
    ALPHABET,
    AVParams,
    FAULT_TARGETS,
    FaultSpec,
    FaultTargetError,
    simulate,
    simulate_faulty,
    trace_to_string,
)
from prccsl import simulator
from prccsl.simulator import uniform

N = 20000
PARAMS = AVParams(steps=N, seed=7)


@pytest.fixture(scope="module")
def trace():
    return simulate(PARAMS)


def pairs(trace, left, right):
    a, b = trace.dates(left), trace.dates(right)
    return list(zip(a, b))


def test_alphabet_is_fixed():
    assert len(ALPHABET) == 40
    assert ALPHABET[0] == "ms"
    assert len(set(ALPHABET)) == 40


def test_trace_shape(trace):
    assert trace.clocks == ALPHABET
    assert len(trace) == N
    assert list(trace.dates("ms")) == list(range(N))


def test_runs_are_reproducible(trace):
    again = simulate(AVParams(steps=N, seed=7))
    assert trace_to_string(again) == trace_to_string(trace)
    other = simulate(AVParams(steps=N, seed=8))
    assert trace_to_string(other) != trace_to_string(trace)


def test_periodic_triggers_are_exact(trace):
    assert trace.dates("cmrTrig") == list(range(0, N, 50))
    assert trace.dates("signTrig") == list(range(0, N, 200))
    assert trace.dates("obsDetect") == list(range(0, N, 40))
    assert trace.dates("spUpdate") == list(range(0, N, 30))


def test_pipeline_stage_latencies(trace):
    for left, right, lo, hi in (
        ("cmrTrig", "cmrOut", 20, 30),
        ("imIn", "signOut", 100, 150),
        ("ctrlIn", "ctrlOut", 100, 150),
        ("vdIn", "vdOut", 50, 100),
    ):
        got = pairs(trace, left, right)
        assert got, (left, right)
        assert all(lo <= b - a <= hi for a, b in got), (left, right)


def test_coincident_pipeline_ports(trace):
    sign_out = trace.dates("signOut")
    assert trace.dates("imIn") == trace.dates("cmrOut")
    for clock in ("signIn", "signType", "ctrlIn"):
        assert trace.dates(clock) == sign_out
    assert trace.dates("vdIn") == trace.dates("ctrlOut")
    assert trace.dates("tqOut") == trace.dates("vdOut")
    assert trace.dates("spOut") == trace.dates("vdOut")


def test_pipeline_clocks_strictly_monotone(trace):
    for clock in ("cmrOut", "signOut", "ctrlOut", "vdOut", "speed", "reqBrake"):
        d = trace.dates(clock)
        assert all(x < y for x, y in zip(d, d[1:])), clock


def test_synchronization_windows(trace):
    sign_out = trace.dates("signOut")
    for port in ("speed", "direct", "gear", "torque"):
        for anchor, at in zip(sign_out, trace.dates(port)):
            assert 0 <= at - anchor <= 40, port
    ctrl_out = trace.dates("ctrlOut")
    for port in ("reqTorq", "reqDirec", "reqGear", "reqBrake"):
        for anchor, at in zip(ctrl_out, trace.dates(port)):
            assert 0 <= at - anchor <= 30, port


def test_detections_subset_of_recognitions(trace):
    sign_out = set(trace.dates("signOut"))
    detects = []
    for clock in ("DetectLeftSign", "DetectRightSign", "DetectStopSign"):
        d = trace.dates(clock)
        assert set(d) <= sign_out
        detects.append(d)
    left, right, stop = detects
    assert len(left) and len(right) and len(stop)
    # one recognition yields at most one detection
    assert not (set(left) & set(right)) and not (set(left) & set(stop))


def test_start_event_deadlines(trace):
    for detect, start in (
        ("DetectLeftSign", "startTurnLeft"),
        ("DetectRightSign", "startTurnRight"),
        ("DetectStopSign", "startBrake"),
    ):
        got = pairs(trace, detect, start)
        assert got
        assert all(100 <= s - d <= 400 for d, s in got), detect
    stops = pairs(trace, "startBrake", "Stop")
    assert all(400 <= s - b <= 2300 for b, s in stops)


def test_emergency_episodes(trace):
    obstc = trace.dates("obstc")
    assert obstc, "expected at least one obstacle in 20000 steps"
    assert trace.dates("emgcy") == obstc
    assert trace.dates("veBrake") == obstc
    runs = trace.dates("veRun")
    assert trace.dates("veAcc") == runs
    for entry, recovery in zip(obstc, runs):
        assert 501 <= recovery - entry <= 550
    # a new episode opens only after the previous one recovered
    for recovery, nxt in zip(runs, obstc[1:]):
        assert nxt > recovery
    assert set(trace.dates("tLeft")) <= set(runs)
    assert set(trace.dates("tRight")) <= set(runs)


def test_mode_exclusions(trace):
    turn_left = set(trace.dates("turnLeft"))
    right_on = set(trace.dates("rightOn"))
    assert not (turn_left & right_on)
    activity = turn_left | right_on
    for entry, recovery in zip(trace.dates("obstc"), trace.dates("veRun")):
        silenced = set(range(entry, min(recovery, N)))
        assert not (activity & silenced)
    # resumed turns tick their activity clock from the recovery step on
    for date in trace.dates("tLeft"):
        assert date in turn_left
    for date in trace.dates("tRight"):
        assert date in right_on


def test_turn_activity_has_phase_lengths(trace):
    # activity comes in contiguous runs, each at most a turn duration long
    dates = trace.dates("turnLeft")
    assert dates
    runs = []
    start = prev = dates[0]
    for d in dates[1:]:
        if d == prev + 1:
            prev = d
            continue
        runs.append((start, prev))
        start = prev = d
    runs.append((start, prev))
    assert all(end - begin < 2000 for begin, end in runs)


def test_params_validation():
    with pytest.raises(ValueError):
        AVParams(steps=-1)
    with pytest.raises(ValueError):
        AVParams(0, -1)
    with pytest.raises(ValueError):
        AVParams()._replace(steps=-1)
    for steps in (True, False, 10.5, 10.0, "10", None):
        with pytest.raises(ValueError, match="steps must be an int"):
            AVParams(steps=steps)
        with pytest.raises(ValueError, match="steps must be an int"):
            AVParams()._replace(steps=steps)
    for seed in (True, False, 1.5, 42.0, "42", [1], None):
        with pytest.raises(ValueError, match="seed must be an int"):
            AVParams(seed=seed)
        with pytest.raises(ValueError, match="seed must be an int"):
            AVParams()._replace(seed=seed)
    assert AVParams(-3, 5).seed == -3


def test_params_and_fault_are_value_typed_named_tuples():
    params = AVParams()
    assert (params.seed, params.steps) == (42, 60000)
    assert AVParams(7, 100) == AVParams(steps=100, seed=7) == (7, 100)
    assert AVParams(7, 100) != AVParams(7, 101)
    assert hash(AVParams(7, 100)) == hash(AVParams(seed=7, steps=100))
    assert repr(AVParams(7, 100)) == "AVParams(seed=7, steps=100)"
    fault = FaultSpec("exec-R7", 0.2)
    assert fault == FaultSpec(target="exec-R7", rate=0.2) == ("exec-R7", 0.2)
    assert hash(fault) == hash(FaultSpec(rate=0.2, target="exec-R7"))
    assert repr(fault) == "FaultSpec(target='exec-R7', rate=0.2)"
    for value, field in ((params, "seed"), (params, "steps"), (fault, "target"), (fault, "rate")):
        with pytest.raises(AttributeError):
            setattr(value, field, 1)


def test_fault_validation():
    with pytest.raises(FaultTargetError):
        simulate_faulty(PARAMS, FaultSpec("nope", 0.5))
    with pytest.raises(FaultTargetError):
        simulate_faulty(PARAMS, FaultSpec("exec-R5", 1.5))
    for rate in ("0.5", True, False, None, Fraction(1, 2)):
        with pytest.raises(FaultTargetError, match="fault rate must be an int or a float"):
            simulate_faulty(PARAMS, FaultSpec("exec-R7", rate))
    assert "periodic-R1" in FAULT_TARGETS and "exec-R8" in FAULT_TARGETS
    assert len(FAULT_TARGETS) == 8


def test_fault_rate_zero_matches_clean(trace):
    z = simulate_faulty(PARAMS, FaultSpec("periodic-R1", 0.0))
    assert trace_to_string(z) == trace_to_string(trace)


def test_periodic_fault_displaces_triggers(trace):
    faulty = simulate_faulty(PARAMS, FaultSpec("periodic-R1", 0.5))
    grid = set(range(0, N, 50))
    off_grid = [d for d in faulty.dates("cmrTrig") if d not in grid]
    assert len(off_grid) > len(faulty.dates("cmrTrig")) // 4
    # other periodic triggers stay untouched
    assert faulty.dates("signTrig") == trace.dates("signTrig")


def test_exec_fault_stretches_one_stage(trace):
    faulty = simulate_faulty(PARAMS, FaultSpec("exec-R6", 1.0))
    gaps = [b - a for a, b in pairs(faulty, "cmrTrig", "cmrOut")]
    assert all(31 <= g <= 45 for g in gaps)
    # downstream stage latencies keep their own windows
    assert all(100 <= b - a <= 150 for a, b in pairs(faulty, "imIn", "signOut"))


def test_empty_and_tiny_traces():
    empty = simulate(AVParams(steps=0, seed=1))
    assert len(empty) == 0
    tiny = simulate(AVParams(steps=1, seed=1))
    assert list(tiny.dates("ms")) == [0]
    assert list(tiny.dates("cmrTrig")) == [0]


def test_controller_invariants_across_seeds():
    for seed in range(20):
        for steps in (0, 1, 999, 7000, 60000):
            t = simulate(AVParams(seed=seed, steps=steps))
            case = (seed, steps)
            turn_left, right_on = t.dates("turnLeft"), t.dates("rightOn")
            assert not set(turn_left) & set(right_on), case
            activity = sorted(turn_left + right_on)
            recoveries = t.dates("veRun")
            for i, entry in enumerate(t.dates("emgcy")):
                end = recoveries[i] if i < len(recoveries) else steps
                assert bisect_left(activity, entry) == bisect_left(activity, end), (case, entry)
            assert set(t.dates("tLeft")) <= set(recoveries), case
            assert set(t.dates("tRight")) <= set(recoveries), case
            for clock, starts in (
                ("turnLeft", ("startTurnLeft", "tLeft")),
                ("rightOn", ("startTurnRight", "tRight")),
            ):
                allowed = set(t.dates(starts[0])) | set(t.dates(starts[1]))
                dates = t.dates(clock)
                run_starts = [d for i, d in enumerate(dates) if i == 0 or dates[i - 1] != d - 1]
                assert set(run_starts) <= allowed, (case, clock)


# every (lo, hi) the simulator draws from, plus the periodic-fault jitters
WINDOWS = sorted({
    simulator._EXEC_CAMERA,
    simulator._EXEC_SIGNREC,
    simulator._EXEC_CONTROLLER,
    simulator._EXEC_VEHICLEDYN,
    (0, simulator._INPUT_SYNC_WINDOW),
    (0, simulator._OUTPUT_SYNC_WINDOW),
    (0, simulator._SIGN_TYPE_COUNT - 1),
    simulator._START_LATENCY,
    simulator._BRAKE_TO_STOP,
    simulator._TURN_DURATION,
    (0, simulator._RECOVERY_JITTER),
    *simulator._EXEC_FAULT_RANGES.values(),
    *((1, jitter) for jitter in simulator._PERIODIC_FAULT_JITTER.values()),
})


@pytest.mark.parametrize(
    "lo,hi",
    [(0, span - 1) for span in (1, 2, 6, 16, 17, 32, 41, 1201)]
    + [(0, 2**32 - 1), (0, 2**32), (0, 2**40), (-(2**70), 3**50)]  # one try takes more than one 32-bit output
    + WINDOWS,
)
def test_uniform_equals_randint(lo, hi):
    for seed in range(5):
        rng = random.Random(seed)
        expected = [rng.randint(lo, hi) for _ in range(5000)]
        assert list(islice(uniform(random.Random(seed), lo, hi), 5000)) == expected


def test_sign_type_draw_equals_randrange():
    rng = random.Random("3/sign-type")
    expected = [rng.randrange(simulator._SIGN_TYPE_COUNT) for _ in range(5000)]
    got = uniform(random.Random("3/sign-type"), 0, simulator._SIGN_TYPE_COUNT - 1)
    assert list(islice(got, 5000)) == expected


@pytest.mark.parametrize(
    "first,second",
    [
        ((100, 150), (151, 190)),
        ((20, 30), (31, 45)),
        ((0, 0), (400, 2000)),
        # None: random() calls, which a periodic fault mixes with its jitter draws
        (None, (1, 20)),
        (None, (1, 2**40)),
    ],
)
def test_iterators_on_one_source_interleave_like_randint(first, second):
    pattern = [i % 3 == 0 or i % 7 == 1 for i in range(3000)]  # True: draw from second
    for seed in range(5):
        rng = random.Random(f"{seed}/ctrl-exec")
        expected = [
            rng.randint(*second) if pick else rng.random() if first is None else rng.randint(*first)
            for pick in pattern
        ]
        source = random.Random(f"{seed}/ctrl-exec")
        a = iter(source.random, None) if first is None else uniform(source, *first)
        b = uniform(source, *second)
        assert [next(b if pick else a) for pick in pattern] == expected


@pytest.mark.parametrize(
    "fault",
    [None] + [FaultSpec(target, rate) for target in sorted(FAULT_TARGETS) for rate in (0.2, 1.0)],
    ids=str,
)
def test_every_clock_is_strictly_increasing_inside_the_run(fault):
    for seed in range(5):
        for steps in (0, 1, 57, 999):
            params = AVParams(seed=seed, steps=steps)
            t = simulate(params) if fault is None else simulate_faulty(params, fault)
            for clock in ALPHABET:
                d = t.dates(clock)
                assert all(map(lt, d, d[1:])), (seed, steps, clock)
                assert not d or (d[0] >= 0 and d[-1] < steps), (seed, steps, clock)

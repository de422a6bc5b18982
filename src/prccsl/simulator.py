"""Seeded discrete-event simulator of the autonomous traffic-sign vehicle.

The vehicle is abstracted to event emission on a fixed clock alphabet.
Every 50 ms the camera captures a frame which flows through a pipeline:

    cmrTrig -> cmrOut/imIn -> signOut -> controller inputs ->
    ctrlOut/vdIn -> vdOut (tqOut, spOut)

Stage latencies are drawn uniformly inside their execution windows
(camera [20,30], sign recognition [100,150], controller [100,150],
vehicle dynamics [50,100]).  Each pipeline clock is its upstream clock
plus a drawn latency, clamped once to stay strictly monotone, and
clocks that coincide share one list; the clamp never pushes a latency
outside its window because consecutive anchors are at least one step
apart.

Recognized sign types drive start-of-action commands within their
deadlines, which the controller replays in step order:

* a turn command starts a turn of drawn length whose activity clock
  (turnLeft, rightOn) ticks on every step until it ends or the next
  command (a turn, or a stop sign's brake) ends it; Stop changes nothing;
* an obstacle opens an emergency that silences the activity clocks and
  drops commands for the sporadic dwell; at recovery a turn whose drawn
  end is still ahead resumes and ticks its re-entry clock (tLeft, tRight);
* same-step order is entry, recovery, command, so a command at a
  re-entry step can end the resumed turn at once, leaving that re-entry
  tick with no activity tick.

The model timing is fixed and matches the bundled corpus: trigger
periods 50/200/40/30 (R1-R4), the execution windows above, a 500 ms
sporadic dwell.  A run is configured by ``AVParams(seed=..., steps=...)``
alone.  All randomness comes from named substreams seeded as
"<seed>/<name>", so identical parameters give byte-identical traces and
adding a new stochastic source does not perturb the existing ones.

Integer draws are one ``getrandbits(k)`` call per try, with no
batching: a value in [lo, hi] is ``lo + r`` for the first
``r = getrandbits(k)`` below ``hi - lo + 1``, whose bit length is k.
That is the rule ``randint`` follows, so the traces equal those of
``randint`` calls, but they rest only on the public ``getrandbits``:
for k <= 32 it keeps the top k bits of one 32-bit Mersenne Twister
output, and the locked digests in ``tests/data/trace_digests.json`` pin
that.  The obstacle stream calls ``random()``, and the fault stream
mixes ``random()`` with these draws on one ``Random``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import namedtuple
from itertools import accumulate, islice
from operator import add
from typing import Iterator

from . import _EXPORTS
from .clocks import UNIVERSAL_CLOCK, Trace
from .errors import FaultTargetError

__all__ = _EXPORTS["simulator"]

ALPHABET = (
    UNIVERSAL_CLOCK,
    "cmrTrig",
    "cmrOut",
    "signTrig",
    "imIn",
    "signOut",
    "obsDetect",
    "spUpdate",
    "ctrlIn",
    "ctrlOut",
    "signIn",
    "speed",
    "signType",
    "direct",
    "gear",
    "torque",
    "reqTorq",
    "reqDirec",
    "reqGear",
    "reqBrake",
    "vdIn",
    "vdOut",
    "spOut",
    "tqOut",
    "obstc",
    "veRun",
    "veAcc",
    "veBrake",
    "tLeft",
    "tRight",
    "turnLeft",
    "rightOn",
    "emgcy",
    "startTurnLeft",
    "startTurnRight",
    "startBrake",
    "Stop",
    "DetectLeftSign",
    "DetectRightSign",
    "DetectStopSign",
)

# internal schedule constants (steps); the periods and execution
# windows are the ones the bundled corpus states as literals
_CAMERA_PERIOD = 50  # cmrTrig
_SIGNREC_PERIOD = 200  # signTrig
_OBSTACLE_PERIOD = 40  # obsDetect
_SPEED_PERIOD = 30  # spUpdate
_EXEC_CAMERA = (20, 30)
_EXEC_SIGNREC = (100, 150)
_EXEC_CONTROLLER = (100, 150)
_EXEC_VEHICLEDYN = (50, 100)
_SPORADIC_DWELL = 500  # mode transitions disabled after an obstacle
_SIGN_TYPE_COUNT = 6  # types 0..2 are left, right, stop; the rest carry no maneuver
_OBSTACLE_PROB = 0.05  # per obstacle-detection tick
_INPUT_SYNC_WINDOW = 40  # controller input ports arrive within this window
_OUTPUT_SYNC_WINDOW = 30  # controller output ports leave within this window
_INPUT_PORTS = ("speed", "direct", "gear", "torque")
_OUTPUT_PORTS = ("reqTorq", "reqDirec", "reqGear", "reqBrake")
_START_LATENCY = (100, 400)  # sign detection -> start-of-action command
_BRAKE_TO_STOP = (400, 2000)  # startBrake -> standstill
_TURN_DURATION = (800, 2000)  # length of a turn phase
_RECOVERY_JITTER = 49  # dwell overshoot before mode re-entry

# sign types 0..2: (detection clock, start-of-action clock, command)
_MANEUVERS = (
    ("DetectLeftSign", "startTurnLeft", "turnLeft"),
    ("DetectRightSign", "startTurnRight", "turnRight"),
    ("DetectStopSign", "startBrake", "dec"),
)
# turn command -> (activity clock, re-entry clock)
_TURN_CLOCKS = {"turnLeft": ("turnLeft", "tLeft"), "turnRight": ("rightOn", "tRight")}

# fault families: periodic triggers get displaced by 1..jitter steps,
# execution latencies get stretched beyond their upper bound
_PERIODIC_FAULT_JITTER = {
    "periodic-R1": 20,
    "periodic-R2": 80,
    "periodic-R3": 15,
    "periodic-R4": 12,
}
_EXEC_FAULT_RANGES = {
    "exec-R5": (151, 190),
    "exec-R6": (31, 45),
    "exec-R7": (151, 190),
    "exec-R8": (101, 140),
}
FAULT_TARGETS = frozenset(_PERIODIC_FAULT_JITTER) | frozenset(_EXEC_FAULT_RANGES)

class AVParams(namedtuple("AVParams", "seed steps")):
    """Seed and length of one run of the vehicle model (a named tuple).

    ``seed`` must be an int and ``steps`` an int >= 0; a bool, a float,
    a string or a negative count raises ValueError, here and in
    ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, seed: int = 42, steps: int = 60000) -> AVParams:
        # a bool is an int, but True would seed the substreams as "True/<name>"
        for name, value in (("seed", seed), ("steps", steps)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        return super().__new__(cls, seed, steps)

    @classmethod
    def _make(cls, iterable) -> AVParams:  # so that _replace checks too
        return cls(*iterable)


class FaultSpec(namedtuple("FaultSpec", "target rate")):
    """A requirement family to violate and the per-occurrence rate (a named tuple).

    ``simulate`` raises FaultTargetError for an unknown target and for a
    rate that is not an int or a float in [0, 1] (a bool is not).
    """

    __slots__ = ()


def simulate(params: AVParams, fault: FaultSpec | None = None) -> Trace:
    """Run the vehicle model for params.steps steps, with ``fault``'s family violated if given."""
    if fault is not None:
        if fault.target not in FAULT_TARGETS:
            raise FaultTargetError(
                f"unknown fault target {fault.target!r}; known: {', '.join(sorted(FAULT_TARGETS))}"
            )
        if isinstance(fault.rate, bool) or not isinstance(fault.rate, (int, float)):
            raise FaultTargetError(f"fault rate must be an int or a float, got {fault.rate!r}")
        if not 0 <= fault.rate <= 1:
            raise FaultTargetError(f"fault rate must be in [0, 1], got {fault.rate}")
    return _run(params, fault)


# the old name of simulate, not exported: perfbench/run.py and
# perfbench/traced.py still import it
simulate_faulty = simulate


def monotone(steps: list[int]) -> list[int]:
    """Clamp each tick to at least one step after the one before it."""
    return list(accumulate(steps, lambda last, at: at if at > last else last + 1))


def uniform(rng: random.Random, lo: int, hi: int) -> Iterator[int]:
    """Integers in [lo, hi], each drawn as ``randint(lo, hi)`` draws it.

    Each try is one ``rng.getrandbits(span.bit_length())``, kept once it
    is below the span, for any span.  Pulled lazily: iterators over one
    ``rng`` interleave their draws in the order they are advanced.
    """
    span = hi - lo + 1
    bits, getrandbits = span.bit_length(), rng.getrandbits
    while True:
        r = getrandbits(bits)
        if r < span:
            yield lo + r


def _run(params: AVParams, fault: FaultSpec | None) -> Trace:
    n = params.steps
    dates: dict[str, list[int]] = {name: [] for name in ALPHABET}
    target, rate = fault if fault is not None else (None, 0.0)

    def stream(name: str) -> random.Random:
        return random.Random(f"{params.seed}/{name}")

    def draws(name: str, window: tuple[int, int]) -> Iterator[int]:
        return uniform(stream(name), *window)

    fault_rng = stream("fault")

    def hit() -> bool:
        return fault_rng.random() < rate

    def periodic(period: int, family: str) -> list[int]:
        if family != target:
            return list(range(0, n, period))
        jitters = uniform(fault_rng, 1, _PERIODIC_FAULT_JITTER[family])
        return [step + next(jitters) if hit() else step for step in range(0, n, period)]

    def stage(anchors: list[int], name: str, window: tuple[int, int], family: str) -> list[int]:
        """Each anchor plus one latency from ``name`` (or the fault range on a hit), clamped."""
        source = stream(name)
        latencies = uniform(source, *window)
        if family == target:  # both ranges draw from one source, in anchor order
            normal, stretched = latencies, uniform(source, *_EXEC_FAULT_RANGES[family])
            latencies = (next(stretched if hit() else normal) for _ in anchors)
        return monotone(list(map(add, anchors, latencies)))

    def ports(anchors: list[int], names: tuple[str, ...], name: str, window: int) -> None:
        """Each port's clock: each anchor plus an offset in [0, window], clamped."""
        offsets = list(islice(draws(name, (0, window)), len(anchors) * len(names)))
        for i, port in enumerate(names):  # drawn trigger-major, port-minor
            dates[port] = monotone(list(map(add, anchors, offsets[i :: len(names)])))

    dates[UNIVERSAL_CLOCK] = range(n)  # the trace's form of a clock that ticks on every step
    dates["signTrig"] = periodic(_SIGNREC_PERIOD, "periodic-R2")
    dates["obsDetect"] = periodic(_OBSTACLE_PERIOD, "periodic-R3")
    dates["spUpdate"] = periodic(_SPEED_PERIOD, "periodic-R4")
    dates["cmrTrig"] = periodic(_CAMERA_PERIOD, "periodic-R1")

    # -- frame pipeline: one clock at a time ----------------------------
    # A clock that copies a strictly monotone upstream clock is that list,
    # and the trace keeps it shared.

    cmr_out = stage(dates["cmrTrig"], "camera-exec", _EXEC_CAMERA, "exec-R6")
    dates["cmrOut"] = dates["imIn"] = cmr_out
    sign_out = stage(cmr_out, "signrec-exec", _EXEC_SIGNREC, "exec-R5")
    # recognition hand-off opens the controller input window: the
    # sign-type port arrives first, the state feedback ports follow
    dates["signOut"] = dates["signIn"] = dates["signType"] = dates["ctrlIn"] = sign_out
    ports(sign_out, _INPUT_PORTS, "input-sync", _INPUT_SYNC_WINDOW)
    ctrl_out = stage(sign_out, "ctrl-exec", _EXEC_CONTROLLER, "exec-R7")
    dates["ctrlOut"] = dates["vdIn"] = ctrl_out
    ports(ctrl_out, _OUTPUT_PORTS, "output-sync", _OUTPUT_SYNC_WINDOW)
    vd_out = stage(ctrl_out, "vd-exec", _EXEC_VEHICLEDYN, "exec-R8")
    dates["vdOut"] = dates["spOut"] = dates["tqOut"] = vd_out

    # -- recognized signs: detections, start-of-action commands, Stop ----

    signs = draws("sign-type", (0, _SIGN_TYPE_COUNT - 1))
    latency = draws("start-latency", _START_LATENCY)
    for at, sign in zip(sign_out, signs):
        if sign < len(_MANEUVERS):
            detect, start, _ = _MANEUVERS[sign]
            dates[detect].append(at)
            dates[start].append(at + next(latency))
    commands: list[tuple[int, int, str]] = []  # (step, priority, action)
    for _, start, action in _MANEUVERS:
        dates[start] = monotone(dates[start])
        commands += [(t, 2, action) for t in dates[start]]
    brake = draws("brake-to-stop", _BRAKE_TO_STOP)
    dates["Stop"] = monotone(list(map(add, dates["startBrake"], brake)))

    # -- obstacle episodes ----------------------------------------------

    entries: list[int] = []
    recoveries: list[int] = []
    rearm = -1  # obstacle detection re-armed strictly after this step
    obstacle, recovery = stream("obstacle").random, draws("recovery", (0, _RECOVERY_JITTER))
    for t in dates["obsDetect"]:
        if t > rearm and obstacle() < _OBSTACLE_PROB:
            rearm = t + _SPORADIC_DWELL + 1 + next(recovery)
            entries.append(t)
            recoveries.append(rearm)
    dates["obstc"] = dates["emgcy"] = dates["veBrake"] = entries
    dates["veRun"] = dates["veAcc"] = recoveries
    commands += [(t, 0, "entry") for t in entries]
    commands += [(t, 1, "recovery") for t in recoveries]

    # -- controller sweep ------------------------------------------------
    # Chronological replay; same-step order: entry, recovery, command.
    # Only turns reach the trace, so the sweep keeps the turn in progress,
    # its start and drawn end, and what an emergency suspended.  Every
    # turn command draws its duration, even one dropped in an emergency.

    turn: str | None = None  # "turnLeft" | "turnRight" | None
    turn_start = turn_end = 0
    suspended: tuple[str | None, int] | None = None  # (turn, turn_end) in Emergency

    def close(end: int) -> None:
        if turn is not None:
            dates[_TURN_CLOCKS[turn][0]].extend(range(turn_start, min(end, turn_end, n)))

    turn_duration = draws("turn-duration", _TURN_DURATION)
    for step, _, action in sorted(commands):
        if action == "entry":
            close(step)
            suspended, turn = (turn, turn_end), None
        elif action == "recovery":
            (resumed, end), suspended = suspended, None
            if resumed is not None and end > step:
                turn, turn_start, turn_end = resumed, step, end
                dates[_TURN_CLOCKS[resumed][1]].append(step)
        else:  # maneuver command
            duration = next(turn_duration) if action != "dec" else 0
            if suspended is None:  # transitions are disabled during the dwell
                close(step)
                turn = action if action != "dec" else None
                turn_start, turn_end = step, step + duration
    close(n)
    # Every list is strictly increasing from 0 on.  Each one that runs
    # past n is cut once, so clocks that share a list share its cut.
    cut = {id(steps): steps[:bisect_left(steps, n)] for steps in dates.values() if steps and steps[-1] >= n}
    kept = {name: cut.get(id(steps), steps) for name, steps in dates.items()}
    return Trace._from_sorted(ALPHABET, n, kept)

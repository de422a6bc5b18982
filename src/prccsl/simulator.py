"""Seeded discrete-event simulator of the autonomous traffic-sign vehicle.

The vehicle is abstracted to event emission on a fixed clock alphabet.
Every 50 ms the camera captures a frame which flows through a pipeline:

    cmrTrig -> cmrOut/imIn -> signOut -> controller inputs ->
    ctrlOut/vdIn -> vdOut (tqOut, spOut)

Stage latencies are drawn uniformly inside their execution windows
(camera [20,30], sign recognition [100,150], controller [100,150],
vehicle dynamics [50,100]) and each emitted clock is clamped to stay
strictly monotone; the clamp never pushes a latency outside its window
because consecutive anchors are at least one step apart.

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
"""

from __future__ import annotations

import random
from collections import namedtuple

from .clocks import UNIVERSAL_CLOCK, Trace
from .errors import FaultTargetError

__all__ = [
    "ALPHABET",
    "AVParams",
    "FaultSpec",
    "FAULT_TARGETS",
    "simulate",
    "simulate_faulty",
]

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

_STREAMS = (
    "camera-exec",
    "signrec-exec",
    "ctrl-exec",
    "vd-exec",
    "sign-type",
    "input-sync",
    "output-sync",
    "start-latency",
    "brake-to-stop",
    "obstacle",
    "recovery",
    "turn-duration",
    "fault",
)


class AVParams(namedtuple("AVParams", "seed steps")):
    """Seed and length of one run of the vehicle model (a named tuple)."""

    __slots__ = ()

    def __new__(cls, seed: int = 42, steps: int = 60000) -> AVParams:
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        return super().__new__(cls, seed, steps)

    @classmethod
    def _make(cls, iterable) -> AVParams:  # so that _replace checks steps too
        return cls(*iterable)


class FaultSpec(namedtuple("FaultSpec", "target rate")):
    """A requirement family to violate and the per-occurrence rate (a named tuple)."""

    __slots__ = ()


def simulate(params: AVParams) -> Trace:
    """Run the fault-free vehicle model for params.steps steps."""
    return _run(params, None)


def simulate_faulty(params: AVParams, fault: FaultSpec) -> Trace:
    """Run with one requirement family violated at the given rate."""
    if fault.target not in FAULT_TARGETS:
        raise FaultTargetError(
            f"unknown fault target {fault.target!r}; known: {', '.join(sorted(FAULT_TARGETS))}"
        )
    if not 0 <= fault.rate <= 1:
        raise FaultTargetError(f"fault rate must be in [0, 1], got {fault.rate}")
    return _run(params, fault)


def _run(params: AVParams, fault: FaultSpec | None) -> Trace:
    n = params.steps
    rng = {name: random.Random(f"{params.seed}/{name}") for name in _STREAMS}
    fault_rng = rng["fault"]

    def hit(family: str) -> bool:
        # draw from the fault stream only for the targeted family
        return (
            fault is not None
            and fault.target == family
            and fault_rng.random() < fault.rate
        )

    def periodic(period: int, family: str) -> list[int]:
        jitter = _PERIODIC_FAULT_JITTER[family]
        return [
            step + fault_rng.randint(1, jitter) if hit(family) else step
            for step in range(0, n, period)
        ]

    def draw(stream: str, interval: tuple[int, int], family: str) -> int:
        if hit(family):
            return rng[stream].randint(*_EXEC_FAULT_RANGES[family])
        return rng[stream].randint(*interval)

    dates: dict[str, list[int]] = {name: [] for name in ALPHABET}
    dates[UNIVERSAL_CLOCK] = list(range(n))
    dates["signTrig"] = periodic(_SIGNREC_PERIOD, "periodic-R2")
    dates["obsDetect"] = periodic(_OBSTACLE_PERIOD, "periodic-R3")
    dates["spUpdate"] = periodic(_SPEED_PERIOD, "periodic-R4")
    dates["cmrTrig"] = periodic(_CAMERA_PERIOD, "periodic-R1")

    # -- frame pipeline: one job per camera trigger ---------------------

    in_ports = ("speed", "direct", "gear", "torque")
    out_ports = ("reqTorq", "reqDirec", "reqGear", "reqBrake")

    def emit(clock: str, at: int) -> int:
        """Append a tick, clamped to keep the clock strictly monotone."""
        ticks = dates[clock]
        at = ticks[-1] + 1 if ticks and ticks[-1] >= at else at
        ticks.append(at)
        return at

    commands: list[tuple[int, int, str]] = []  # (step, priority, action)
    for trig in dates["cmrTrig"]:
        cmr_out = emit("cmrOut", trig + draw("camera-exec", _EXEC_CAMERA, "exec-R6"))
        im_in = emit("imIn", cmr_out)
        sign_out = emit(
            "signOut", im_in + draw("signrec-exec", _EXEC_SIGNREC, "exec-R5")
        )
        # recognition hand-off opens the controller input window: the
        # sign-type port arrives first, the state feedback ports follow
        emit("signIn", sign_out)
        emit("signType", sign_out)
        ctrl_in = emit("ctrlIn", sign_out)
        for port in in_ports:
            emit(port, sign_out + rng["input-sync"].randint(0, _INPUT_SYNC_WINDOW))
        ctrl_out = emit(
            "ctrlOut", ctrl_in + draw("ctrl-exec", _EXEC_CONTROLLER, "exec-R7")
        )
        for port in out_ports:
            emit(port, ctrl_out + rng["output-sync"].randint(0, _OUTPUT_SYNC_WINDOW))
        vd_in = emit("vdIn", ctrl_out)
        vd_out = emit(
            "vdOut", vd_in + draw("vd-exec", _EXEC_VEHICLEDYN, "exec-R8")
        )
        emit("spOut", vd_out)
        emit("tqOut", vd_out)

        sign = rng["sign-type"].randrange(_SIGN_TYPE_COUNT)
        if sign < len(_MANEUVERS):
            detect, start_clock, action = _MANEUVERS[sign]
            emit(detect, sign_out)
            start = emit(
                start_clock, sign_out + rng["start-latency"].randint(*_START_LATENCY)
            )
            commands.append((start, 2, action))
            if action == "dec":
                emit("Stop", start + rng["brake-to-stop"].randint(*_BRAKE_TO_STOP))

    # -- obstacle episodes ----------------------------------------------

    entries: list[int] = []
    recoveries: list[int] = []
    rearm = -1  # obstacle detection re-armed strictly after this step
    for t in dates["obsDetect"]:
        if t > rearm and rng["obstacle"].random() < _OBSTACLE_PROB:
            rearm = t + _SPORADIC_DWELL + 1 + rng["recovery"].randint(0, _RECOVERY_JITTER)
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
            duration = rng["turn-duration"].randint(*_TURN_DURATION) if action != "dec" else 0
            if suspended is None:  # transitions are disabled during the dwell
                close(step)
                turn = action if action != "dec" else None
                turn_start, turn_end = step, step + duration
    close(n)
    return Trace.from_dates(ALPHABET, n, dates)

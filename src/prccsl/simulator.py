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

Recognized sign types drive start-of-action events within their
deadlines; obstacle detections open emergency episodes during which
mode transitions are disabled for the sporadic dwell, with the
run/accelerate/turn re-entry events emitted only after it.  Activity
clocks (turnLeft, rightOn) tick on every step of their phase while the
controller is in Normal mode.

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
_STOP_DURATION = (200, 500)  # standstill before re-accelerating
_RECOVERY_JITTER = 49  # dwell overshoot before mode re-entry

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
    "stop-duration",
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
        dates = []
        step = 0
        while step < n:
            date = step
            if hit(family):
                date += fault_rng.randint(1, _PERIODIC_FAULT_JITTER[family])
            dates.append(date)
            step += period
        return dates

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
        if sign == 0:
            emit("DetectLeftSign", sign_out)
            start = emit(
                "startTurnLeft", sign_out + rng["start-latency"].randint(*_START_LATENCY)
            )
            commands.append((start, 2, "turnLeft"))
        elif sign == 1:
            emit("DetectRightSign", sign_out)
            start = emit(
                "startTurnRight", sign_out + rng["start-latency"].randint(*_START_LATENCY)
            )
            commands.append((start, 2, "turnRight"))
        elif sign == 2:
            emit("DetectStopSign", sign_out)
            start = emit(
                "startBrake", sign_out + rng["start-latency"].randint(*_START_LATENCY)
            )
            commands.append((start, 2, "dec"))
            stop = emit("Stop", start + rng["brake-to-stop"].randint(*_BRAKE_TO_STOP))
            commands.append((stop, 3, "stopped"))
        # other sign types carry no maneuver

    # -- obstacle episodes ----------------------------------------------

    episodes: list[tuple[int, int]] = []  # (entry, recovery)
    rearm = -1  # obstacle detection re-armed strictly after this step
    for t in dates["obsDetect"]:
        if t <= rearm:
            continue
        if rng["obstacle"].random() < _OBSTACLE_PROB:
            recovery = t + _SPORADIC_DWELL + 1 + rng["recovery"].randint(0, _RECOVERY_JITTER)
            episodes.append((t, recovery))
            rearm = recovery
    for entry, recovery in episodes:
        dates["obstc"].append(entry)
        dates["emgcy"].append(entry)
        dates["veBrake"].append(entry)
        dates["veRun"].append(recovery)
        dates["veAcc"].append(recovery)
        commands.append((entry, 0, "entry"))
        commands.append((recovery, 1, "recovery"))

    # -- controller phase sweep ------------------------------------------
    # Chronological replay of commands, stop events, and emergency
    # episodes; same-step order: entry, recovery, command, standstill.

    mode = "Normal"  # "Normal" | "Emergency"
    substate = "acc"  # Normal-mode phase: "turnLeft" | "turnRight" | "Stop" | "dec" | "acc"
    phase_end: int | None = None
    saved: tuple[str, int | None] = ("acc", None)
    seg_start = 0

    def close(end: int) -> None:
        if mode == "Normal" and end > seg_start:
            if substate == "turnLeft":
                dates["turnLeft"].extend(range(seg_start, min(end, n)))
            elif substate == "turnRight":
                dates["rightOn"].extend(range(seg_start, min(end, n)))

    for step, priority, action in sorted(commands):
        if mode == "Normal" and phase_end is not None and phase_end <= step:
            close(phase_end)
            substate, phase_end, seg_start = "acc", None, phase_end
        if action == "entry":
            close(step)
            saved = (substate, phase_end)
            mode = "Emergency"
            phase_end, seg_start = None, step
            continue
        if action == "recovery":
            mode = "Normal"
            resumed, end = saved
            if resumed in ("turnLeft", "turnRight") and (end is None or end > step):
                substate, phase_end = resumed, end
                dates["tLeft" if resumed == "turnLeft" else "tRight"].append(step)
            else:
                substate, phase_end = "acc", None
            seg_start = step
            continue
        if action == "stopped":
            duration = rng["stop-duration"].randint(*_STOP_DURATION)
            if mode == "Normal" and substate == "dec":
                close(step)
                substate, phase_end, seg_start = "Stop", step + duration, step
            continue
        # maneuver command
        duration = (
            rng["turn-duration"].randint(*_TURN_DURATION) if action != "dec" else None
        )
        if mode == "Emergency":
            continue  # transitions disabled during the dwell
        close(step)
        substate = action
        phase_end = None if duration is None else step + duration
        seg_start = step
    if mode == "Normal" and phase_end is not None and phase_end < n:
        close(phase_end)
        substate, seg_start = "acc", phase_end
    close(n)
    return Trace.from_dates(ALPHABET, n, dates)

"""Volumetric flow, bead cross-section, and step scheduling.

The extruder pushes resin at a constant volumetric rate; the bead
cross-section is flow divided by travel speed.  Step scheduling converts
the toolpath timeline into a piecewise-linear cumulative-step curve plus
digital I/O events for the extruder and UV channels.  Cumulative steps
are kept as exact reals (the firmware quantizes, we do not) so volume
bookkeeping stays within float precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import RamcellError
from .config import DriveTrainConfig, ExtrusionConfig
from .toolpath import Toolpath, time_profile


class ExtrusionError(RamcellError):
    pass


@dataclass(frozen=True)
class FlowModel:
    q_mm3_s: float = 5.3

    def __post_init__(self):
        if self.q_mm3_s <= 0.0:
            raise ExtrusionError("flow rate must be positive")

    @staticmethod
    def from_config(cfg: ExtrusionConfig) -> "FlowModel":
        return FlowModel(cfg.flow_mm3_s)


@dataclass(frozen=True)
class Nozzle:
    diameter_mm: float = 1.5

    def __post_init__(self):
        if self.diameter_mm <= 0.0:
            raise ExtrusionError("nozzle diameter must be positive")

    def area_mm2(self) -> float:
        return math.pi * (self.diameter_mm / 2.0) ** 2


@dataclass(frozen=True)
class IOEvent:
    time_s: float
    channel: str  # "extruder" | "uv"
    on: bool


@dataclass(frozen=True)
class StepSchedule:
    breakpoints: tuple[tuple[float, float], ...] = ()
    events: tuple[IOEvent, ...] = field(default_factory=tuple)

    def __post_init__(self):
        last_t = -math.inf
        last_s = -math.inf
        for t, s in self.breakpoints:
            if t <= last_t:
                raise ExtrusionError("breakpoint times must be strictly increasing")
            if s < last_s - 1e-12:
                raise ExtrusionError("cumulative steps must be non-decreasing")
            last_t, last_s = t, s
        pending = 0
        for ev in self.events:
            if ev.channel == "extruder":
                pending += 1 if ev.on else -1
                if pending < 0:
                    raise ExtrusionError("extruder off without matching on")
        if pending != 0:
            raise ExtrusionError("extruder on without matching off")

    def total_steps(self) -> float:
        return self.breakpoints[-1][1] if self.breakpoints else 0.0

    def csv_lines(self) -> list[str]:
        lines = ["time_s,cumulative_steps"]
        lines += [f"{t:.6f},{s:.6f}" for t, s in self.breakpoints]
        return lines

    def event_lines(self) -> list[str]:
        lines = ["time_s,channel,state"]
        lines += [f"{e.time_s:.6f},{e.channel},{1 if e.on else 0}" for e in self.events]
        return lines


def bead_area(q_mm3_s: float, speed_mm_s: float) -> float:
    """Extrudate cross-section from volume conservation: A = Q / v."""
    if speed_mm_s <= 0.0:
        raise ExtrusionError("travel speed must be positive")
    return q_mm3_s / speed_mm_s


def schedule(path: Toolpath, flow: FlowModel, drive: DriveTrainConfig,
             reorient_rate: float = 1.0) -> StepSchedule:
    """Step breakpoints and I/O events on the shared toolpath timeline.

    The step rate is constant while extruding and zero otherwise; the
    extruder output pauses over reorientation dwells.  UV events follow
    the segments' uv flags.  Loading checks the rate against the motor.
    """
    rate = drive.step_rate(flow.q_mm3_s)
    tl = time_profile(path, reorient_rate)
    events: list[IOEvent] = []
    breakpoints: list[tuple[float, float]] = []
    steps = 0.0
    extruding = False
    uv = False
    t_end = 0.0

    def add_breakpoint(t: float, s: float) -> None:
        if breakpoints and abs(breakpoints[-1][0] - t) < 1e-12:
            return
        if len(breakpoints) >= 2:
            (t0, s0), (t1, s1) = breakpoints[-2], breakpoints[-1]
            prev_slope = (s1 - s0) / (t1 - t0)
            new_slope = (s - s1) / (t - t1)
            if abs(prev_slope - new_slope) < 1e-9:
                breakpoints[-1] = (t, s)
                return
        breakpoints.append((t, s))

    if len(tl):
        add_breakpoint(0.0, 0.0)
    for t0, t1, e_on, uv_on in tl[["t0", "t1", "extruding", "uv_on"]].tolist():
        if uv_on != uv:
            events.append(IOEvent(t0, "uv", uv_on))
            uv = uv_on
        if e_on != extruding:
            events.append(IOEvent(t0, "extruder", e_on))
            add_breakpoint(t0, steps)
            extruding = e_on
        if e_on:
            steps += rate * (t1 - t0)
            add_breakpoint(t1, steps)
        t_end = t1
    if extruding:
        events.append(IOEvent(t_end, "extruder", False))
    if uv:
        events.append(IOEvent(t_end, "uv", False))
    if len(tl):
        add_breakpoint(t_end, steps)
    events.sort(key=lambda ev: (ev.time_s, ev.channel, ev.on))
    return StepSchedule(tuple(breakpoints), tuple(events))

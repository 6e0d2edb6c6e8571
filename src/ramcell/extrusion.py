"""Volumetric flow, bead cross-section, and step scheduling.

The extruder pushes resin at a constant volumetric rate; the bead
cross-section is flow divided by travel speed.  Step scheduling converts
the toolpath timeline into digital I/O events for the extruder and UV
channels plus a piecewise-linear cumulative-step curve, whose knots are
the start, the extruder switches and the end; one array pass over the
timeline finds them all.  Cumulative steps are kept as exact reals (the
firmware quantizes, we do not) so volume bookkeeping stays within float
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    """Step knots and I/O events on the shared toolpath timeline.

    The step rate is constant while extruding and zero otherwise; the
    extruder output pauses over reorientation dwells.  Each channel
    switches at the start of every entry where its flag changes, and off
    at the end if it is still on.  The knots of the cumulative-step curve
    are (0, 0), each extruder switch and the end, less any knot within
    1e-12 s after the one before it.  Loading checks the rate against
    the motor.
    """
    rate = drive.step_rate(flow.q_mm3_s)
    tl = time_profile(path, reorient_rate)
    if not len(tl):
        return StepSchedule()
    # entry i starts at t[i] with steps[i] pushed before it; t[-1] is the end
    t = np.r_[0.0, tl.t1]
    steps = np.r_[0.0, np.add.accumulate(np.where(tl.extruding, rate * (tl.t1 - tl.t0), 0.0))]
    events, edges = [], {}
    for channel, flag in (("extruder", tl.extruding), ("uv", tl.uv_on)):
        # switches are the edges of the flag padded with off at both ends
        state = np.r_[False, flag, False]
        edge = edges[channel] = np.flatnonzero(state[1:] != state[:-1])
        events += map(IOEvent, t[edge].tolist(), [channel] * len(edge), state[edge + 1].tolist())
    events.sort(key=lambda ev: (ev.time_s, ev.channel, ev.on))
    knot = np.r_[0, edges["extruder"], len(tl)]
    knot = knot[np.r_[True, np.diff(t[knot]) >= 1e-12]]
    return StepSchedule(tuple(zip(t[knot].tolist(), steps[knot].tolist())),
                        tuple(events))

"""Volumetric flow, syringe drive train math, and step scheduling.

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


class InfeasibleDriveError(ExtrusionError):
    def __init__(self, message: str, result: dict):
        super().__init__(message)
        self.result = result


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
    land_mm: float = 10.0

    def __post_init__(self):
        if self.diameter_mm <= 0.0:
            raise ExtrusionError("nozzle diameter must be positive")

    def area_mm2(self) -> float:
        return math.pi * (self.diameter_mm / 2.0) ** 2

    @staticmethod
    def from_config(cfg: ExtrusionConfig) -> "Nozzle":
        return Nozzle(cfg.nozzle_diameter_mm, cfg.nozzle_land_mm)


@dataclass(frozen=True)
class DriveTrain:
    bore_mm: float = 40.0
    capacity_ml: float = 200.0
    plunger_travel_mm: float = 160.0
    lead_mm_per_rev: float = 8.0
    full_steps_per_rev: int = 200
    microstepping: int = 8
    screw_efficiency: float = 0.5
    rated_torque_nm: float = 1.9
    max_step_rate_hz: float = 5000.0

    def __post_init__(self):
        for name in ("bore_mm", "capacity_ml", "plunger_travel_mm", "lead_mm_per_rev",
                     "full_steps_per_rev", "microstepping", "screw_efficiency",
                     "rated_torque_nm", "max_step_rate_hz"):
            if getattr(self, name) <= 0:
                raise ExtrusionError(f"{name} must be positive")
        swept = self.bore_area_mm2() * self.plunger_travel_mm  # mm^3
        if abs(swept - self.capacity_ml * 1000.0) > 0.05 * self.capacity_ml * 1000.0:
            raise ExtrusionError(
                "syringe capacity inconsistent with plunger travel x bore area")

    def bore_area_mm2(self) -> float:
        return math.pi * (self.bore_mm / 2.0) ** 2

    def steps_per_mm(self) -> float:
        return self.full_steps_per_rev * self.microstepping / self.lead_mm_per_rev

    def volume_per_step_mm3(self) -> float:
        return self.bore_area_mm2() / self.steps_per_mm()

    @staticmethod
    def from_config(cfg: DriveTrainConfig) -> "DriveTrain":
        return DriveTrain(
            bore_mm=cfg.syringe_bore_mm, capacity_ml=cfg.syringe_capacity_ml,
            plunger_travel_mm=cfg.plunger_travel_mm, lead_mm_per_rev=cfg.lead_mm_per_rev,
            full_steps_per_rev=cfg.full_steps_per_rev, microstepping=cfg.microstepping,
            screw_efficiency=cfg.screw_efficiency, rated_torque_nm=cfg.rated_torque_nm,
            max_step_rate_hz=cfg.max_step_rate_hz)


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


def step_rate(q_mm3_s: float, drive: DriveTrain) -> float:
    """Steps/s that push resin at the requested volumetric rate."""
    plunger_speed = q_mm3_s / drive.bore_area_mm2()  # mm/s
    return plunger_speed * drive.steps_per_mm()


def schedule(path: Toolpath, flow: FlowModel, drive: DriveTrain,
             reorient_rate: float = 1.0) -> StepSchedule:
    """Step breakpoints and I/O events on the shared toolpath timeline.

    The step rate is constant while extruding and zero otherwise; the
    extruder output pauses over reorientation dwells.  UV events follow
    the segments' uv flags.
    """
    rate = step_rate(flow.q_mm3_s, drive)
    if rate > drive.max_step_rate_hz:
        raise ExtrusionError(
            f"required step rate {rate:.3f}/s exceeds motor limit {drive.max_step_rate_hz}/s")
    entries = time_profile(path, reorient_rate)
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

    if entries:
        add_breakpoint(0.0, 0.0)
    for e in entries:
        if e.uv_on != uv:
            events.append(IOEvent(e.t0, "uv", e.uv_on))
            uv = e.uv_on
        if e.extruding != extruding:
            events.append(IOEvent(e.t0, "extruder", e.extruding))
            add_breakpoint(e.t0, steps)
            extruding = e.extruding
        if e.extruding:
            steps += rate * (e.t1 - e.t0)
            add_breakpoint(e.t1, steps)
        t_end = e.t1
    if extruding:
        events.append(IOEvent(t_end, "extruder", False))
    if uv:
        events.append(IOEvent(t_end, "uv", False))
    if entries:
        add_breakpoint(t_end, steps)
    events.sort(key=lambda ev: (ev.time_s, ev.channel, ev.on))
    return StepSchedule(tuple(breakpoints), tuple(events))


def drive_feasibility(viscosity_pa_s: float, nozzle: Nozzle, drive: DriveTrain,
                      flow: FlowModel) -> dict:
    """Laminar pressure-drop screen of the plunger drive.

    Newtonian capillary flow through the nozzle land gives the pressure;
    plunger force and screw torque follow.  Raises when the rated motor
    torque cannot cover the requirement.
    """
    if viscosity_pa_s < 0.0:
        raise ExtrusionError("viscosity must be non-negative")
    q_si = flow.q_mm3_s * 1e-9            # m^3/s
    r_si = nozzle.diameter_mm / 2.0 * 1e-3
    land_si = nozzle.land_mm * 1e-3
    pressure = 8.0 * viscosity_pa_s * land_si * q_si / (math.pi * r_si**4)
    bore_area_si = drive.bore_area_mm2() * 1e-6
    force = pressure * bore_area_si
    torque = force * (drive.lead_mm_per_rev * 1e-3) / (2.0 * math.pi * drive.screw_efficiency)
    margin = math.inf if torque == 0.0 else drive.rated_torque_nm / torque
    result = {
        "pressure_pa": pressure,
        "plunger_force_n": force,
        "required_torque_nm": torque,
        "margin": margin,
    }
    if margin < 1.0:
        raise InfeasibleDriveError(
            f"required torque {torque:.3f} Nm exceeds rated {drive.rated_torque_nm} Nm",
            result)
    return result

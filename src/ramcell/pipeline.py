"""Job orchestration shared by the CLI commands.

Builds the post-processed toolpath (from a built-in shape or a g-code
file), runs the simulation stages in order, and writes artifacts.  Cure
and scheduling run in part-local coordinates (table at z = 0); the
trajectory runs in base-frame world coordinates after placing the part
at the configured print origin.  The planner (`cell`) and the cure
model (`cure`) are imported by the functions that run them, so a
process that only builds jobs loads neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import extrusion, gcode, shapes, toolpath as tp
from .config import Config, ConfigError, DriveTrainConfig, Material
from .geometry import Vec3

if TYPE_CHECKING:
    from . import cell, cure


@dataclass
class JobBundle:
    name: str
    cfg: Config
    material: Material
    local_path: tp.Toolpath
    world_path: tp.Toolpath
    flow: extrusion.FlowModel
    drive: DriveTrainConfig


@dataclass
class SimulationResult:
    report: cell.SimReport
    program: cell.RobotProgram | None
    schedule: extrusion.StepSchedule
    dmap: cure.DepositionMap | None


def build_toolpath_from_shape(cfg: Config, shape_id: str) -> tp.Toolpath:
    job = cfg.job
    raw = shapes.generate(shape_id, job.speed_2d_mm_s, job.speed_3d_mm_s,
                          job.layer_height_mm, cfg.extrusion.nozzle_diameter_mm,
                          job.travel_speed_mm_s)
    policy = tp.ExtensionPolicy(job.extension_mm,
                                math.radians(job.corner_threshold_deg))
    extended = tp.add_cure_extensions(raw, policy)
    return tp.assign_orientations(extended)


def build_toolpath_from_gcode(cfg: Config, text: str) -> tp.Toolpath:
    """Parse an externally post-processed file: no further extensions."""
    path = gcode.to_toolpath(gcode.parse(text), travel_speed=cfg.job.travel_speed_mm_s,
                             layer_height=cfg.job.layer_height_mm)
    return tp.assign_orientations(path)


def place_in_cell(cfg: Config, local: tp.Toolpath) -> tp.Toolpath:
    """Center the part's footprint on the configured print origin."""
    if not len(local):
        return local
    # a column at a time: an axis-0 reduction of (2n, 3) loops over the 3
    # columns innermost, which numpy runs slowly
    center = np.array([(end.min() + end.max()) / 2.0
                       for end in np.concatenate((local.start, local.end)).T])
    center[2] = 0.0
    offset = np.array([cfg.cell.origin_x_mm, cfg.cell.origin_y_mm,
                       cfg.cell.origin_z_mm]) - center
    return replace(local, start=local.start + offset, end=local.end + offset)


def build_job(cfg: Config, name: str, local: tp.Toolpath) -> JobBundle:
    try:  # --material overrides the loaded config
        material = cfg.materials[cfg.job.material]
    except KeyError:
        raise ConfigError(f"unknown material '{cfg.job.material}'") from None
    local = tp.resample(local, cfg.job.resolution_mm)
    local.validate()
    return JobBundle(
        name=name, cfg=cfg, material=material,
        local_path=local, world_path=place_in_cell(cfg, local),
        flow=extrusion.FlowModel.from_config(cfg.extrusion),
        drive=cfg.drivetrain,
    )


def run_cure_simulation(job: JobBundle) -> tuple[cure.DepositionMap | None, dict]:
    from . import cure
    cfg = job.cfg
    dmap = cure.deposit(job.local_path, job.flow, job.material,
                        cfg.job.resolution_mm, cfg.job.layer_height_mm,
                        cfg.cure.bead_aspect, cfg.cell.reorient_rate_rad_s)
    if len(dmap) == 0:
        return None, {}
    cure.accumulate_dose(dmap, job.local_path, cfg.uv, cfg.cure.sweep_dt_s,
                         cfg.cell.reorient_rate_rad_s)
    cure.update_cure(dmap, job.material)
    cure.spread(dmap, job.material, cfg.cure)
    dims = cure.predict_dimensions(dmap, cfg.cure)
    return dmap, dims


def dose_ratio(dmap: cure.DepositionMap) -> float:
    """The least dose over the median dose, or 0.0 where the median is not
    positive.  The median is np.median's bit for bit, by its own steps
    but without its first call importing numpy.ma: one partition at the
    middle one or two and the last place, the mean of the middle, and
    NaN where the last, the largest, is NaN."""
    n = len(dmap.dose)
    middle = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
    part = np.partition(dmap.dose, middle + [-1])
    median = float(part[-1] if np.isnan(part[-1]) else part[middle].mean())
    if median <= 0.0:
        return 0.0
    return float(np.min(dmap.dose)) / median


def simulate(job: JobBundle) -> SimulationResult:
    from . import cell, cure
    cfg = job.cfg
    report = cell.SimReport(specimen=job.name, material=job.material.name)
    stats = tp.path_stats(job.local_path)
    report.extrusion_time_s = stats["extrusion_time"]

    schedule = extrusion.schedule(job.local_path, job.flow, job.drive,
                                  cfg.cell.reorient_rate_rad_s)
    env = cell.CellEnvironment.from_config(cfg.cell)
    program: cell.RobotProgram | None = None
    metadata = (
        ("specimen", job.name),
        ("material", job.material.name),
        ("speed_2d_mm_s", f"{cfg.job.speed_2d_mm_s:g}"),
        ("speed_3d_mm_s", f"{cfg.job.speed_3d_mm_s:g}"),
    )
    try:
        program = cell.plan_trajectory(job.world_path, cfg, env,
                                       schedule.events, metadata)
    except cell.PlanningError as exc:
        pos = exc.position or Vec3(0.0, 0.0, 0.0)
        if exc.kind == "unreachable":
            report.reach_failures.append((exc.time_s, pos.x, pos.y, pos.z))
        else:
            report.jump_failures.append((exc.time_s, str(exc)))
    if program is not None:
        report.collisions = cell.check_collisions(program, cfg, env,
                                                  cfg.cell.collision_dt_s)
        report.singularity_warnings = cell.detect_singularity_traversal(program, cfg)

    dmap, dims = run_cure_simulation(job)
    if dmap is not None:
        report.dimensions = dims
        report.total_volume_mm3 = dmap.total_volume()
        report.min_alpha = float(np.min(dmap.alpha))
        report.min_dose_ratio = dose_ratio(dmap)
        undercured = cure.undercured(dmap, cfg.cure.alpha_min)
        report.undercured_count = len(undercured)
        report.undercured_worst = [
            (e.alpha, e.centroid[0], e.centroid[1], e.centroid[2])
            for e in map(dmap.element, undercured[:10].tolist())]
    else:
        report.notes.append("no extruding segments; nothing deposited")
    return SimulationResult(report, program, schedule, dmap)

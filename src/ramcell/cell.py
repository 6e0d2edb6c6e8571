"""Cell-level planning: joint trajectories, clearance checks, reporting.

The planner walks the shared toolpath timeline, solves IK at every node
(including intermediate nodes inside reorientation dwells) and keeps the
branch continuous.  Collision checking samples the interpolated tool
capsule against the table plane and the configured obstacle boxes.
Everything here is deterministic: identical inputs give byte-identical
programs, scripts and reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import RamcellError
from .config import CellConfig, Config, parse_obstacles
from .extrusion import IOEvent
from .geometry import Pose, Rotation, Vec3
from .kinematics import (DHParams, JointConfig, UnreachableError, fk_batch, ik,
                         manipulability_batch, select_branch,
                         tcp_offset_from_config)
from .toolpath import Toolpath, time_profile

MAX_JOINT_STEP_RAD = 0.5
DWELL_YAW_STEP_RAD = 0.3


class PlanningError(RamcellError):
    def __init__(self, message: str, time_s: float = 0.0,
                 position: Vec3 | None = None, kind: str = "unreachable"):
        super().__init__(message)
        self.time_s = time_s
        self.position = position
        self.kind = kind  # "unreachable" | "jump" | "limit"


@dataclass(frozen=True)
class Aabb:
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]


@dataclass(frozen=True)
class CellEnvironment:
    table_z_mm: float = 0.0
    obstacles: tuple[Aabb, ...] = ()
    capsule_radius_mm: float = 60.0
    capsule_length_mm: float = 250.0
    # lowest capsule surface sits this far minus the radius above the tip
    capsule_clearance_mm: float = 70.0

    @staticmethod
    def from_config(cfg: CellConfig) -> "CellEnvironment":
        boxes = tuple(Aabb(tuple(b[:3]), tuple(b[3:])) for b in parse_obstacles(cfg))
        return CellEnvironment(
            table_z_mm=0.0, obstacles=boxes,
            capsule_radius_mm=cfg.capsule_radius_mm,
            capsule_length_mm=cfg.capsule_length_mm)


@dataclass(frozen=True)
class RobotProgram:
    waypoints: tuple[tuple[float, JointConfig], ...]
    speeds: tuple[float, ...]                    # TCP mm/s per waypoint arrival
    events: tuple[IOEvent, ...] = ()
    metadata: tuple[tuple[str, str], ...] = ()

    def duration(self) -> float:
        return self.waypoints[-1][0] if self.waypoints else 0.0

    def validate_speeds(self, max_joint_speed: float) -> None:
        for (t0, q0), (t1, q1) in zip(self.waypoints, self.waypoints[1:]):
            dt = t1 - t0
            if dt <= 0.0:
                raise PlanningError("waypoint times must be strictly increasing", t1)
            rate = q0.max_distance(q1) / dt
            if rate > max_joint_speed + 1e-9:
                raise PlanningError(
                    f"joint speed {rate:.3f} rad/s exceeds limit {max_joint_speed}",
                    t1, kind="limit")


@dataclass
class SimReport:
    specimen: str = ""
    material: str = ""
    reach_failures: list[tuple[float, float, float, float]] = field(default_factory=list)
    collisions: list[tuple[float, str]] = field(default_factory=list)
    jump_failures: list[tuple[float, str]] = field(default_factory=list)
    singularity_warnings: list[tuple[float, float]] = field(default_factory=list)
    undercured_count: int = 0
    # worst offenders only, least cured first: (alpha, x, y, z)
    undercured_worst: list[tuple[float, float, float, float]] = field(default_factory=list)
    min_alpha: float = 0.0
    min_dose_ratio: float = 0.0
    dimensions: dict[str, float] = field(default_factory=dict)
    extrusion_time_s: float = 0.0
    total_volume_mm3: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def printable(self) -> bool:
        return not (self.hard_failures() or self.undercured_count > 0)

    def non_finite(self) -> list[str]:
        """Report keys whose predicted value is NaN or infinite."""
        values = {f"predicted_{k}": v for k, v in self.dimensions.items()}
        values.update(min_alpha=self.min_alpha, min_dose_ratio=self.min_dose_ratio,
                      total_volume_mm3=self.total_volume_mm3)
        return sorted(k for k, v in values.items() if not math.isfinite(v))

    def hard_failures(self) -> bool:
        """Failures that no override may print past: reach, collision, jump,
        or a prediction that is not a finite number."""
        return bool(self.reach_failures or self.collisions or self.jump_failures
                    or self.non_finite())

    def to_lines(self) -> list[str]:
        lines = [
            "report_version=1",
            f"specimen={self.specimen}",
            f"material={self.material}",
            f"printable={1 if self.printable else 0}",
            f"reach_failure_count={len(self.reach_failures)}",
        ]
        for i, (t, x, y, z) in enumerate(self.reach_failures):
            lines.append(f"reach_failure_{i}={t:.6f}:{x:.6f}:{y:.6f}:{z:.6f}")
        lines.append(f"collision_count={len(self.collisions)}")
        for i, (t, what) in enumerate(self.collisions):
            lines.append(f"collision_{i}={t:.6f}:{what}")
        lines.append(f"jump_failure_count={len(self.jump_failures)}")
        for i, (t, what) in enumerate(self.jump_failures):
            lines.append(f"jump_failure_{i}={t:.6f}:{what}")
        lines.append(f"singularity_count={len(self.singularity_warnings)}")
        for i, (t0, t1) in enumerate(self.singularity_warnings):
            lines.append(f"singularity_{i}={t0:.6f}:{t1:.6f}")
        if self.singularity_warnings:
            lines.append("singularity_advice=mount an additional cure light; "
                         "trailing-spot coverage degrades near arm singularities")
        lines.append(f"undercured_count={self.undercured_count}")
        for i, (alpha, x, y, z) in enumerate(self.undercured_worst):
            lines.append(f"undercured_{i}={alpha:.6f}:{x:.6f}:{y:.6f}:{z:.6f}")
        lines.append(f"min_alpha={self.min_alpha:.6f}")
        lines.append(f"min_dose_ratio={self.min_dose_ratio:.6f}")
        for key in sorted(self.dimensions):
            lines.append(f"predicted_{key}={self.dimensions[key]:.6f}")
        lines.append(f"extrusion_time_s={self.extrusion_time_s:.6f}")
        lines.append(f"total_volume_mm3={self.total_volume_mm3:.6f}")
        for i, note in enumerate(self.notes):
            lines.append(f"note_{i}={note}")
        return lines

    @staticmethod
    def from_text(text: str) -> "SimReport":
        pairs: dict[str, str] = {}
        for raw in text.splitlines():
            raw = raw.strip()
            if not raw or "=" not in raw:
                continue
            key, value = raw.split("=", 1)
            pairs[key.strip()] = value.strip()
        if pairs.get("report_version") != "1":
            raise ValueError("not a ramcell report (missing report_version=1)")
        rep = SimReport(specimen=pairs.get("specimen", ""),
                        material=pairs.get("material", ""))
        for i in range(int(pairs.get("reach_failure_count", "0"))):
            t, x, y, z = (float(v) for v in pairs[f"reach_failure_{i}"].split(":"))
            rep.reach_failures.append((t, x, y, z))
        for i in range(int(pairs.get("collision_count", "0"))):
            t, what = pairs[f"collision_{i}"].split(":", 1)
            rep.collisions.append((float(t), what))
        for i in range(int(pairs.get("jump_failure_count", "0"))):
            t, what = pairs[f"jump_failure_{i}"].split(":", 1)
            rep.jump_failures.append((float(t), what))
        for i in range(int(pairs.get("singularity_count", "0"))):
            t0, t1 = (float(v) for v in pairs[f"singularity_{i}"].split(":"))
            rep.singularity_warnings.append((t0, t1))
        rep.undercured_count = int(pairs.get("undercured_count", "0"))
        i = 0
        while f"undercured_{i}" in pairs:
            alpha, x, y, z = (float(v) for v in pairs[f"undercured_{i}"].split(":"))
            rep.undercured_worst.append((alpha, x, y, z))
            i += 1
        rep.min_alpha = float(pairs.get("min_alpha", "0"))
        rep.min_dose_ratio = float(pairs.get("min_dose_ratio", "0"))
        for key, value in pairs.items():
            if key.startswith("predicted_"):
                rep.dimensions[key[len("predicted_"):]] = float(value)
        rep.extrusion_time_s = float(pairs.get("extrusion_time_s", "0"))
        rep.total_volume_mm3 = float(pairs.get("total_volume_mm3", "0"))
        i = 0
        while f"note_{i}" in pairs:
            rep.notes.append(pairs[f"note_{i}"])
            i += 1
        return rep


# base tool attitude: nozzle axis down, tool x along world x
TOOL_DOWN = Rotation.about_x(math.pi)


def _pose_at(position: Vec3, yaw: float) -> Pose:
    return Pose(position, Rotation.about_z(yaw) * TOOL_DOWN)


def plan_trajectory(path: Toolpath, cfg: Config, env: CellEnvironment,
                    events: tuple[IOEvent, ...] = (),
                    metadata: tuple[tuple[str, str], ...] = ()) -> RobotProgram:
    """Joint waypoints along the timeline with branch continuity.

    Every move node becomes a waypoint timed by the segment speed; dwell
    nodes are subdivided so no step reorients more than
    DWELL_YAW_STEP_RAD.  Raises PlanningError on unreachable nodes or on
    a joint-space jump above MAX_JOINT_STEP_RAD in one step.
    """
    dh = DHParams.from_config(cfg.kinematics)
    tcp = tcp_offset_from_config(cfg.kinematics)
    limit = cfg.kinematics.joint_limit_rad
    entries = time_profile(path, cfg.cell.reorient_rate_rad_s)
    if not entries:
        return RobotProgram((), (), events, metadata)

    nodes: list[tuple[float, Vec3, float, float]] = []  # t, pos, yaw, tcp speed
    first = entries[0]
    nodes.append((first.t0, first.start, first.yaw0, 0.0))
    for e in entries:
        if e.kind == "move":
            nodes.append((e.t1, e.end, e.yaw0, e.speed))
        else:
            span = e.yaw1 - e.yaw0
            n = max(1, math.ceil(abs(span) / DWELL_YAW_STEP_RAD))
            for j in range(1, n + 1):
                frac = j / n
                nodes.append((e.t0 + frac * (e.t1 - e.t0), e.start,
                              e.yaw0 + frac * span, 0.0))

    waypoints: list[tuple[float, JointConfig]] = []
    speeds: list[float] = []
    prev_q: JointConfig | None = None
    for t, pos, yaw, v in nodes:
        target = _pose_at(pos, yaw)
        sols = ik(target, dh, tcp)
        if not sols:
            raise PlanningError(
                f"unreachable waypoint at ({pos.x:.3f}, {pos.y:.3f}, {pos.z:.3f})",
                t, pos)
        seed = prev_q if prev_q is not None else JointConfig(tuple(cfg_home()))
        try:
            q = select_branch(sols, seed, limit)
        except UnreachableError as exc:
            raise PlanningError(str(exc), t, pos) from exc
        if prev_q is not None:
            step = q.max_distance(prev_q)
            if step > MAX_JOINT_STEP_RAD:
                raise PlanningError(
                    f"configuration jump of {step:.3f} rad at "
                    f"({pos.x:.3f}, {pos.y:.3f}, {pos.z:.3f})", t, pos, kind="jump")
        if waypoints and t <= waypoints[-1][0] + 1e-12:
            continue
        waypoints.append((t, q))
        speeds.append(v)
        prev_q = q
    program = RobotProgram(tuple(waypoints), tuple(speeds), events, metadata)
    program.validate_speeds(cfg.cell.max_joint_speed_rad_s)
    return program


def cfg_home() -> tuple[float, ...]:
    """Neutral print-ready pose used to seed branch selection."""
    return (0.0, -math.pi / 2, math.pi / 2, -math.pi / 2, -math.pi / 2, 0.0)


def _point_box_distance(px, py, pz, box: Aabb):
    dx = np.maximum(np.maximum(box.lo[0] - px, px - box.hi[0]), 0.0)
    dy = np.maximum(np.maximum(box.lo[1] - py, py - box.hi[1]), 0.0)
    dz = np.maximum(np.maximum(box.lo[2] - pz, pz - box.hi[2]), 0.0)
    return np.sqrt(dx * dx + dy * dy + dz * dz)


def check_collisions(program: RobotProgram, cfg: Config, env: CellEnvironment,
                     dt_s: float = 0.01) -> list[tuple[float, str]]:
    """Sampled clearance check of the tool against table and obstacles.

    The tool body is a vertical-ish capsule hung above the TCP; between
    waypoints both capsule endpoints move on straight lines, so sampling
    interpolates endpoint positions directly instead of re-running FK.
    The endpoints at the waypoints come from one batched FK call.
    Returns the earliest contact per obstacle plus any table contact.
    """
    if len(program.waypoints) < 1:
        return []
    dh = DHParams.from_config(cfg.kinematics)
    times = np.array([t for t, _ in program.waypoints])
    tcp = fk_batch([q for _, q in program.waypoints], dh,
                   tcp_offset_from_config(cfg.kinematics))
    tip = tcp[:, :3, 3]
    body_up = -tcp[:, :3, 2]  # opposite the nozzle axis
    caps_lo = tip + body_up * env.capsule_clearance_mm
    caps_hi = tip + body_up * (env.capsule_clearance_mm + env.capsule_length_mm)

    duration = times[-1] - times[0]
    n = max(2, int(math.ceil(duration / dt_s)) + 1) if duration > 0 else 1
    ts = np.linspace(times[0], times[-1], n)
    sample = lambda col: np.interp(ts, times, col)
    ax, ay, az = (sample(caps_lo[:, k]) for k in range(3))
    bx, by, bz = (sample(caps_hi[:, k]) for k in range(3))
    tipz = sample(tip[:, 2])

    findings: list[tuple[float, str]] = []
    below = tipz < env.table_z_mm - 1e-6
    cap_below = np.minimum(az, bz) - env.capsule_radius_mm < env.table_z_mm - 1e-6
    hit = below | cap_below
    if np.any(hit):
        findings.append((float(ts[int(np.argmax(hit))]), "table"))
    for bi, box in enumerate(env.obstacles):
        # closest capsule-axis point to the box by golden-section on t
        lo_t = np.zeros_like(ts)
        hi_t = np.ones_like(ts)
        for _ in range(40):
            m1 = lo_t + (hi_t - lo_t) / 3.0
            m2 = hi_t - (hi_t - lo_t) / 3.0
            d1 = _point_box_distance(ax + m1 * (bx - ax), ay + m1 * (by - ay),
                                     az + m1 * (bz - az), box)
            d2 = _point_box_distance(ax + m2 * (bx - ax), ay + m2 * (by - ay),
                                     az + m2 * (bz - az), box)
            take1 = d1 <= d2
            hi_t = np.where(take1, m2, hi_t)
            lo_t = np.where(take1, lo_t, m1)
        tm = 0.5 * (lo_t + hi_t)
        dist = _point_box_distance(ax + tm * (bx - ax), ay + tm * (by - ay),
                                   az + tm * (bz - az), box)
        contact = dist < env.capsule_radius_mm
        if np.any(contact):
            findings.append((float(ts[int(np.argmax(contact))]), f"obstacle_{bi}"))
    findings.sort(key=lambda f: (f[0], f[1]))
    return findings


def detect_singularity_traversal(program: RobotProgram, cfg: Config,
                                 eps: float | None = None) -> list[tuple[float, float]]:
    """Contiguous waypoint intervals where manipulability drops below eps."""
    if eps is None:
        eps = cfg.kinematics.singular_eps
    dh = DHParams.from_config(cfg.kinematics)
    singular = manipulability_batch([q for _, q in program.waypoints], dh,
                                    tcp_offset_from_config(cfg.kinematics)) < eps
    intervals: list[tuple[float, float]] = []
    open_t: float | None = None
    last_t = 0.0
    for (t, _), low in zip(program.waypoints, singular):
        if low:
            if open_t is None:
                open_t = t
        else:
            if open_t is not None:
                intervals.append((open_t, last_t))
                open_t = None
        last_t = t
    if open_t is not None:
        intervals.append((open_t, last_t))
    return intervals


def emit_program(program: RobotProgram, report: SimReport | None = None) -> str:
    """Render the program as the toolkit's line-oriented script dialect.

    Refuses to emit when the attached report records failures.
    """
    if report is not None and not report.printable:
        raise PlanningError("refusing to emit: report records failures")
    lines = ["# ramcell robot program v1"]
    for key, value in program.metadata:
        lines.append(f"# {key}={value}")
    body: list[tuple[float, int, str]] = []
    for i, ((t, q), v) in enumerate(zip(program.waypoints, program.speeds)):
        joints = ",".join(f"{x:.6f}" for x in q.q)
        op = "movej" if i == 0 else "movel"
        body.append((t, 0, f"{op} q=[{joints}] v={v:.3f} t={t:.6f}"))
    for ev in program.events:
        body.append((ev.time_s, 1,
                     f"set_digital_out channel={ev.channel} state={1 if ev.on else 0} "
                     f"t={ev.time_s:.6f}"))
    body.sort(key=lambda item: (item[0], item[1], item[2]))
    lines.extend(text for _, _, text in body)
    if program.waypoints:
        lines.append(f"stopj t={program.duration():.6f}")
    lines.append("# end")
    return "\n".join(lines) + "\n"

"""Cell-level planning: joint trajectories, clearance checks, reporting.

The planner walks the shared toolpath timeline, builds the TCP targets
of all nodes (dwell nodes included) as one array, turns each into its
flange target by moving its position back along its own z axis by the
TCP offset (_along_tool_axis) and, a chunk at a time, solves the joints
q1, q3, q5 and q6 of every branch as compact columns
(kinematics._branch_columns), which are dropped before the next chunk's
are built.  The array branch choice (kinematics.select_chain) keeps the
branch continuous from node to node, continuing each chunk from the
choice and the branch before it, and solves the arm joints q2 and q4 of,
and forward-checks, only the candidates its choice depends on; it stops
at the first jump, where the plan fails.  A node adds a waypoint when it
lies more than 1e-12 s after the node before it.  The program keeps the
chosen rows as one (n, 6) joint array, which the speed check, the
clearance check, the singularity scan and the script writer read as
columns.  Collision checking samples the interpolated tool capsule
against the table plane and the configured obstacle boxes with one cull
per target: the table and each box evaluate only the samples of the
waypoint segments whose endpoint bounds, padded by CULL_PAD_MM, come
within its reach.  The singularity scan reads the closed-form
manipulability of each waypoint.  No pass here multiplies matrices, so
no result depends on the BLAS build or its thread count.  Everything
here is deterministic: identical inputs give byte-identical programs,
scripts and reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import RamcellError
from .config import CellConfig, Config, parse_obstacles
from .extrusion import IOEvent
from .geometry import Rotation, Vec3
from .kinematics import (DHParams, _branch_columns, _flange, _reduce_last, manipulability_batch,
                         select_chain)
from .toolpath import Toolpath, time_profile

MAX_JOINT_STEP_RAD = 0.5
DWELL_YAW_STEP_RAD = 0.3
# the clearance check holds about 90 bytes a sample; past this many it
# would take minutes and gigabytes, and a coarser step is the remedy
MAX_COLLISION_SAMPLES = 2e6
# the table top is the world plane z = 0; the lowest capsule surface
# sits CAPSULE_CLEARANCE_MM minus the capsule radius above the tip
TABLE_Z_MM = 0.0
CAPSULE_CLEARANCE_MM = 70.0
# below the table past 1 nm; the clearance cull pads each waypoint
# segment's end bounds by 1 um, far more than an interpolated sample's
# rounding past them
TABLE_TOL_MM = 1e-6
CULL_PAD_MM = 1e-3
# planner nodes per IK chunk; bounds the candidates in memory at once (a
# chunk's Branches hold 276 bytes a node).  wall-50x10's 1296 nodes
# plan in one chunk; at 2048 the first chunk of square-30x30x8.5 would
# raise its planner's heap peak above what it was at 512
IK_CHUNK_NODES = 1536


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
    obstacles: tuple[Aabb, ...] = ()
    capsule_radius_mm: float = 60.0
    capsule_length_mm: float = 250.0

    @staticmethod
    def from_config(cfg: CellConfig) -> "CellEnvironment":
        boxes = tuple(Aabb(tuple(b[:3]), tuple(b[3:])) for b in parse_obstacles(cfg))
        return CellEnvironment(
            obstacles=boxes, capsule_radius_mm=cfg.capsule_radius_mm,
            capsule_length_mm=cfg.capsule_length_mm)


@dataclass(frozen=True, eq=False)
class RobotProgram:
    """Joint waypoints as columns, one row per waypoint, plus the I/O events."""
    times: np.ndarray    # (n,) s
    joints: np.ndarray   # (n, 6) rad
    speeds: np.ndarray   # (n,) TCP mm/s at each waypoint's arrival
    events: tuple[IOEvent, ...] = ()
    metadata: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        for column in (self.times, self.joints, self.speeds):
            column.flags.writeable = False

    def duration(self) -> float:
        return float(self.times[-1]) if len(self.times) else 0.0

    def validate_speeds(self, max_joint_speed: float) -> None:
        """Raise PlanningError at the first waypoint reached too early or
        through a max-norm joint rate above max_joint_speed."""
        dt = np.diff(self.times)
        step = _reduce_last(np.maximum, np.abs(np.diff(self.joints, axis=0)))
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = step / dt
        bad = (dt <= 0.0) | (rate > max_joint_speed + 1e-9)
        if not bad.any():
            return
        i = int(bad.argmax())
        t1 = float(self.times[i + 1])
        if dt[i] <= 0.0:
            raise PlanningError("waypoint times must be strictly increasing", t1)
        raise PlanningError(
            f"joint speed {rate[i]:.3f} rad/s exceeds limit {max_joint_speed}",
            t1, kind="limit")


# a report's counted lists, (attribute, key, field kinds): each writes
# <key>_count=<n>, then <key>_<i>=<fields> for each entry, its fields
# joined by ":", a float as %.6f and a str, only ever the last, as it is.
# _POINT is a time or a degree of cure, then x, y, z
_POINT = (float, float, float, float)
_COUNTED = (
    ("reach_failures", "reach_failure", _POINT),
    ("collisions", "collision", (float, str)),
    ("jump_failures", "jump_failure", (float, str)),
    ("singularity_warnings", "singularity", (float, float)),
)


def _fields(entry: tuple, kinds: tuple[type, ...]) -> str:
    """A report entry's text: its fields written by their declared kinds."""
    return ":".join(value if kind is str else format(value, ".6f")
                    for kind, value in zip(kinds, entry, strict=True))


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
        lines = ["report_version=1", f"specimen={self.specimen}", f"material={self.material}",
                 f"printable={1 if self.printable else 0}"]
        for attr, key, kinds in _COUNTED:
            entries = getattr(self, attr)
            lines.append(f"{key}_count={len(entries)}")
            lines += [f"{key}_{i}={_fields(entry, kinds)}" for i, entry in enumerate(entries)]
        if self.singularity_warnings:  # after the singularity entries, the table's last
            lines.append("singularity_advice=mount an additional cure light; "
                         "trailing-spot coverage degrades near arm singularities")
        lines.append(f"undercured_count={self.undercured_count}")
        lines += [f"undercured_{i}={_fields(entry, _POINT)}"
                  for i, entry in enumerate(self.undercured_worst)]
        lines.append(f"min_alpha={self.min_alpha:.6f}")
        lines.append(f"min_dose_ratio={self.min_dose_ratio:.6f}")
        lines += [f"predicted_{key}={self.dimensions[key]:.6f}" for key in sorted(self.dimensions)]
        lines.append(f"extrusion_time_s={self.extrusion_time_s:.6f}")
        lines.append(f"total_volume_mm3={self.total_volume_mm3:.6f}")
        lines += [f"note_{i}={note}" for i, note in enumerate(self.notes)]
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
        rep = SimReport(specimen=pairs.get("specimen", ""), material=pairs.get("material", ""))

        def entry(name: str, kinds: tuple[type, ...]) -> tuple:
            """The entry that _fields wrote as the value of name."""
            if name not in pairs:
                raise ValueError(f"report has no {name}")
            fields = pairs[name].split(":", len(kinds) - 1)
            if len(fields) < len(kinds):
                raise ValueError(f"report's {name} has {len(fields)} of {len(kinds)} fields")
            return tuple(kind(value) for kind, value in zip(kinds, fields))

        def present(key: str) -> list[str]:
            """The names key_0, key_1, ... up to the first one missing."""
            names = []
            while f"{key}_{len(names)}" in pairs:
                names.append(f"{key}_{len(names)}")
            return names

        for attr, key, kinds in _COUNTED:
            setattr(rep, attr, [entry(f"{key}_{i}", kinds)
                                for i in range(int(pairs.get(f"{key}_count", "0")))])
        rep.undercured_count = int(pairs.get("undercured_count", "0"))
        rep.undercured_worst = [entry(name, _POINT) for name in present("undercured")]
        rep.notes = [pairs[name] for name in present("note")]
        for name in ("min_alpha", "min_dose_ratio", "extrusion_time_s", "total_volume_mm3"):
            setattr(rep, name, float(pairs.get(name, "0")))
        rep.dimensions = {key.removeprefix("predicted_"): float(value)
                          for key, value in pairs.items() if key.startswith("predicted_")}
        return rep


# base tool attitude: nozzle axis down, tool x along world x
TOOL_DOWN = Rotation.about_x(math.pi)


def _plan_nodes(path: Toolpath, cfg: Config):
    """Times, positions (n, 3), TCP speeds and TCP targets of the planner's
    nodes: the path's start, each move's end and each dwell's equal yaw
    steps of at most DWELL_YAW_STEP_RAD.  The targets (n, 3, 4) are the
    top three rows of each transform; the last row is (0, 0, 0, 1)."""
    # the timeline is gone before the targets are built
    t, yaw, pos, speed = _node_columns(time_profile(path, cfg.cell.reorient_rate_rad_s))
    # TCP targets: TOOL_DOWN turned about world z by each node's yaw, an
    # entry at a time
    down = TOOL_DOWN.matrix
    cos, sin = np.cos(yaw), np.sin(yaw)
    targets = np.empty((len(t), 3, 4))
    for j in range(3):
        targets[:, 0, j] = cos * down[0, j] - sin * down[1, j]
        targets[:, 1, j] = sin * down[0, j] + cos * down[1, j]
        targets[:, 2, j] = down[2, j]
    targets[:, :, 3] = pos
    return t, pos, speed, targets


def _node_columns(tl: np.recarray):
    """Times, yaws, positions (n, 3) and TCP speeds of the nodes of the
    timeline tl, each written into its own array: a node takes its
    entry's fields, repeated by the entry's node count, and a dwell's
    nodes step its time and yaw in equal fractions."""
    dwell = tl["dwell"]
    count = np.where(dwell, np.ceil(np.abs(tl["yaw1"] - tl["yaw0"]) / DWELL_YAW_STEP_RAD), 1)
    count = np.maximum(1, count).astype(np.int64)
    n = int(count.sum()) + 1
    t, yaw, pos, speed = np.empty(n), np.empty(n), np.empty((n, 3)), np.empty(n)
    first = tl[0]
    # a dwell ends where it starts, and its speed is 0
    t[0], yaw[0], pos[0], speed[0] = first.t0, first.yaw0, (first.x0, first.y0, first.z0), 0.0
    for out, name in ((t, "t1"), (yaw, "yaw0"), (pos[:, 0], "x1"), (pos[:, 1], "y1"),
                      (pos[:, 2], "z1"), (speed, "speed")):
        out[1:] = np.repeat(tl[name], count)
    frac = (np.arange(1, n) - np.repeat(np.cumsum(count) - count, count)) / np.repeat(count, count)
    on = np.repeat(dwell, count)
    np.copyto(t[1:], np.repeat(tl["t0"], count) + frac * np.repeat(tl["t1"] - tl["t0"], count),
              where=on)
    np.add(yaw[1:], frac * np.repeat(tl["yaw1"] - tl["yaw0"], count), out=yaw[1:], where=on)
    return t, yaw, pos, speed


def plan_trajectory(path: Toolpath, cfg: Config, env: CellEnvironment,
                    events: tuple[IOEvent, ...] = (),
                    metadata: tuple[tuple[str, str], ...] = ()) -> RobotProgram:
    """Joint waypoints along the timeline with branch continuity.

    Every move node becomes a waypoint timed by the segment speed; dwell
    nodes are subdivided so no step reorients more than
    DWELL_YAW_STEP_RAD.  A node that lies within 1e-12 s after the node
    before it adds no waypoint.  Raises PlanningError on unreachable
    nodes or on a joint-space jump above MAX_JOINT_STEP_RAD in one step.
    The planner does not read env: the clearance check (check_collisions)
    tests the planned program against it.
    """
    if not len(path):
        return RobotProgram(np.zeros(0), np.zeros((0, 6)), np.zeros(0), events, metadata)
    dh = DHParams.from_config(cfg.kinematics)
    limit = cfg.kinematics.joint_limit_rad
    times, pos, speeds, targets = _plan_nodes(path, cfg)

    # a node within 1e-12 s after the node before it adds no waypoint,
    # and the next node's branch continues from the last waypoint's
    added = np.r_[True, np.diff(times) > 1e-12]

    # the flange targets replace the TCP targets; the chunks are slices of them
    targets[:, :, 3] = _along_tool_axis(targets, -cfg.kinematics.tcp_offset_z_mm)
    joints = np.empty((len(times), 6))
    prev, prev_branch = np.array(cfg_home()), None
    for start in range(0, len(times), IK_CHUNK_NODES):
        chunk = slice(start, start + IK_CHUNK_NODES)
        t06 = targets[chunk]
        q, step, branch = _plan_chunk(t06, dh, prev, prev_branch, limit, added[chunk])
        n, r = len(t06), len(q)  # the first node without a kept candidate ends the chain
        jump = np.flatnonzero(step > MAX_JOINT_STEP_RAD)
        jump = jump[start + jump > 0]  # the first node is reached from home
        if len(jump) or r < n:
            i = jump[0] if len(jump) else r
            t, at = float(times[start + i]), Vec3(*pos[start + i].tolist())
            where = f"({at.x:.3f}, {at.y:.3f}, {at.z:.3f})"
            if i < r:
                raise PlanningError(f"configuration jump of {step[i]:.3f} rad at {where}",
                                    t, at, kind="jump")
            raise PlanningError(f"unreachable waypoint at {where}", t, at)
        joints[chunk] = q
        # the next chunk continues from the last waypoint, on its branch
        waypoints = np.flatnonzero(added[chunk])
        if len(waypoints):
            prev, prev_branch = joints[start + waypoints[-1]], branch[waypoints[-1]]
    program = RobotProgram(times[added], joints[added], speeds[added], events, metadata)
    program.validate_speeds(cfg.cell.max_joint_speed_rad_s)
    return program


def _plan_chunk(t06: np.ndarray, dh: DHParams, prev: np.ndarray, prev_branch: int | None,
                limit: float, added: np.ndarray):
    """select_chain on one IK chunk of flange targets; its Branches are
    gone when it returns, before the next chunk's are built."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cands = _branch_columns(t06, dh)
    return select_chain(cands, t06, dh, prev, prev_branch, limit, added, MAX_JOINT_STEP_RAD)


def _along_tool_axis(frames: np.ndarray, offset_mm: float) -> np.ndarray:
    """The positions of the frames (n, 3, 4) moved offset_mm along their z
    columns: the TCP is the flange moved tcp_offset_z_mm along the nozzle."""
    return frames[:, :, 3] + offset_mm * frames[:, :, 2]


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
    The endpoints at the waypoints come from their closed-form flange
    poses.  Every interpolated sample lies within its waypoint segment's
    end bounds (up to rounding, which CULL_PAD_MM covers), so the table
    and each box take only the samples of the segments whose bounds come
    within reach of that target, and interpolate only the columns it
    reads.  The waypoint times must increase.  Returns the earliest
    contact per obstacle plus any table contact.
    """
    times = program.times
    if not len(times):
        return []
    flange = _flange(program.joints, DHParams.from_config(cfg.kinematics))
    tip = _along_tool_axis(flange, cfg.kinematics.tcp_offset_z_mm)
    body_up = -flange[:, :, 2]  # opposite the nozzle axis
    caps_lo = tip + body_up * CAPSULE_CLEARANCE_MM
    caps_hi = tip + body_up * (CAPSULE_CLEARANCE_MM + env.capsule_length_mm)

    duration = times[-1] - times[0]
    if not duration / dt_s < MAX_COLLISION_SAMPLES:
        raise PlanningError(f"collision check of a {duration:.3g} s program needs more than "
                            f"{MAX_COLLISION_SAMPLES:g} samples at {dt_s:g} s; raise "
                            "[cell] collision_dt_s", kind="limit")
    n = max(2, int(math.ceil(duration / dt_s)) + 1) if duration > 0 else 1
    ts = np.linspace(times[0], times[-1], n)

    def ends(col):
        """Each segment's first and last value; a one-waypoint program
        has the one segment from it to itself."""
        return (col[:-1], col[1:]) if len(col) > 1 else (col, col)

    # each segment's end bounds of both capsule ends, (segments, 3)
    (a0, a1), (b0, b1) = ends(caps_lo), ends(caps_hi)
    lo = np.minimum(np.minimum(a0, a1), np.minimum(b0, b1))
    hi = np.maximum(np.maximum(a0, a1), np.maximum(b0, b1))
    t0, t1 = ends(times)

    def sampled(near, *cols):
        """The times of the samples of the segments near, their start and
        end times included, and the columns cols interpolated there."""
        first, last = _runs_of(near)
        start = np.searchsorted(ts, t0[first], "left")
        count = np.searchsorted(ts, t1[last], "right") - start
        at = ts[np.arange(count.sum()) + np.repeat(start - (np.cumsum(count) - count), count)]
        return (at, *(np.interp(at, times, col) for col in cols))

    findings: list[tuple[float, str]] = []
    r, floor = env.capsule_radius_mm, TABLE_Z_MM - TABLE_TOL_MM
    at, tipz, az, bz = sampled((np.minimum(*ends(tip[:, 2])) < floor + CULL_PAD_MM)
                               | (lo[:, 2] - r < floor + CULL_PAD_MM),
                               tip[:, 2], caps_lo[:, 2], caps_hi[:, 2])
    hit = (tipz < floor) | (np.minimum(az, bz) - r < floor)
    if np.any(hit):
        findings.append((float(at[int(np.argmax(hit))]), "table"))
    # a sample's capsule axis lies within its segment's bounds, so it
    # comes no nearer a box on any axis than those bounds do: only the
    # segments whose bounds meet the box grown by a capsule radius (and
    # the pad) can touch it
    reach = r + CULL_PAD_MM
    for bi, box in enumerate(env.obstacles):
        near = np.logical_and.reduce([(hi[:, k] > box.lo[k] - reach)
                                      & (lo[:, k] < box.hi[k] + reach) for k in range(3)])
        if not near.any():
            continue
        at, ax, ay, az, bx, by, bz = sampled(near, *caps_lo.T, *caps_hi.T)
        # closest capsule-axis point to the box: a 40-step ternary search on t
        lo_t = np.zeros(len(at))
        hi_t = np.ones(len(at))
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
        contact = dist < r
        if np.any(contact):
            findings.append((float(at[int(np.argmax(contact))]), f"obstacle_{bi}"))
    findings.sort(key=lambda f: (f[0], f[1]))
    return findings


def _runs_of(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first and last index of each run of True in mask: a run opens
    and closes at the edges of the mask padded with False."""
    edge = np.flatnonzero(np.diff(np.r_[False, mask, False]))
    return edge[::2], edge[1::2] - 1


def detect_singularity_traversal(program: RobotProgram, cfg: Config,
                                 eps: float | None = None) -> list[tuple[float, float]]:
    """Contiguous waypoint intervals where manipulability drops below eps,
    each as the times of its first and last waypoint."""
    if eps is None:
        eps = cfg.kinematics.singular_eps
    dh = DHParams.from_config(cfg.kinematics)
    first, last = _runs_of(manipulability_batch(program.joints, dh) < eps)
    return list(zip(program.times[first].tolist(), program.times[last].tolist()))


def emit_program(program: RobotProgram, report: SimReport | None = None) -> str:
    """Render the program as the toolkit's line-oriented script dialect.

    The move lines are one text table of the joint, speed and time
    columns; the I/O events join them in order of (time, moves before
    events, text).  Refuses to emit when the attached report records
    failures.
    """
    if report is not None and not report.printable:
        raise PlanningError("refusing to emit: report records failures")
    from . import text  # only the writers load the text kernel
    lines = ["# ramcell robot program v1"]
    for key, value in program.metadata:
        lines.append(f"# {key}={value}")
    times = program.times
    first = np.arange(len(times)) == 0
    moves = text.rows((("movel ", "movej "), first),
                      text.Cells(program.joints, 6, ("q=[",) + (",",) * 5),
                      text.Cells(program.speeds, 3, "] v="),
                      text.Cells(times, 6, " t="), "\n").split("\n")[:-1]
    body = list(zip(times.tolist(), [0] * len(moves), moves))
    for ev in program.events:
        body.append((ev.time_s, 1,
                     f"set_digital_out channel={ev.channel} state={1 if ev.on else 0} "
                     f"t={ev.time_s:.6f}"))
    body.sort()
    lines.extend(line for _, _, line in body)
    if len(times):
        lines.append(f"stopj t={program.duration():.6f}")
    lines.append("# end")
    return "\n".join(lines) + "\n"

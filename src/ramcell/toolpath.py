"""Toolpath model and post-processing.

A toolpath is an ordered list of straight segments with speed, extrusion
and UV flags, a tool yaw, and a layer index.  The nozzle always points
straight down, so the yaw about world z is the whole tool attitude; the
planner turns it into a pose only at the inverse-kinematics boundary.
Post-processing covers three jobs: lead extensions so the trailing cure
spot reaches path ends and corners, yaw assignment so the fixed spot
always trails the nozzle, and resampling to a bounded segment length for
simulation.

The module also owns the canonical time profile: a shared timeline of
moves and reorientation dwells that the step scheduler, the dose sweep
and the trajectory planner all consume, so their event clocks agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import RamcellError
from .geometry import Vec3, wrap_angle

CONNECT_TOL = 1e-6


class ToolpathError(RamcellError):
    pass


@dataclass(frozen=True)
class Segment:
    start: Vec3
    end: Vec3
    speed: float
    extruding: bool
    uv_on: bool
    layer: int = 0
    yaw: float = 0.0  # tool x axis heading about world z, radians

    def __post_init__(self):
        if self.speed <= 0.0:
            raise ToolpathError(f"segment speed must be positive, got {self.speed}")

    def length(self) -> float:
        return (self.end - self.start).norm()

    def duration(self) -> float:
        return self.length() / self.speed

    def direction(self) -> Vec3:
        return (self.end - self.start).normalized()


@dataclass(frozen=True)
class Toolpath:
    segments: tuple[Segment, ...]

    @staticmethod
    def from_segments(segs) -> "Toolpath":
        kept = tuple(s for s in segs if (s.end - s.start).norm() > CONNECT_TOL)
        return Toolpath(kept)

    def __len__(self) -> int:
        return len(self.segments)

    def validate(self) -> None:
        prev = None
        prev_layer = None
        for i, seg in enumerate(self.segments):
            if prev is not None and prev.extruding and seg.extruding \
                    and prev.layer == seg.layer:
                if (seg.start - prev.end).norm() > CONNECT_TOL:
                    raise ToolpathError(
                        f"extruding segments {i - 1} and {i} are not connected")
            if seg.extruding:
                if prev_layer is not None and seg.layer < prev_layer:
                    raise ToolpathError(f"layer index decreases at segment {i}")
                prev_layer = seg.layer
            prev = seg


@dataclass(frozen=True)
class ExtensionPolicy:
    lead_mm: float = 25.0
    corner_threshold_rad: float = math.radians(30.0)

    def __post_init__(self):
        if self.lead_mm < 0.0:
            raise ToolpathError("lead length must be >= 0")


def layer_index(z: float, layer_height: float) -> int:
    # small epsilon guards against 6.999999 style float drift
    return int(math.floor(z / layer_height + 1e-9))


def _runs(path: Toolpath) -> list[list[int]]:
    """Indices of maximal connected extruding runs."""
    runs: list[list[int]] = []
    current: list[int] = []
    for i, seg in enumerate(path.segments):
        if not seg.extruding:
            if current:
                runs.append(current)
                current = []
            continue
        if current and (seg.start - path.segments[current[-1]].end).norm() > CONNECT_TOL:
            runs.append(current)
            current = []
        current.append(i)
    if current:
        runs.append(current)
    return runs


def add_cure_extensions(path: Toolpath, policy: ExtensionPolicy) -> Toolpath:
    """Insert non-extruding, UV-on overruns so the trailing spot covers
    every extruded point.

    Sharp corners get an out-and-back excursion along the incoming
    direction before the turn; open run ends get a straight overrun,
    returning afterwards when more path follows so the nozzle track stays
    continuous.  The extruded segments themselves are never modified.
    """
    if policy.lead_mm == 0.0 or not path.segments:
        return path
    L = policy.lead_mm
    runs = _runs(path)
    inserts_after: dict[int, list[Segment]] = {}

    def overrun(at: Vec3, direction: Vec3, template: Segment, and_back: bool) -> list[Segment]:
        tip = at + direction * L
        out = replace(template, start=at, end=tip, extruding=False, uv_on=True)
        if not and_back:
            return [out]
        back = replace(template, start=tip, end=at, extruding=False, uv_on=True)
        return [out, back]

    for run in runs:
        segs = [path.segments[i] for i in run]
        closed = (segs[-1].end - segs[0].start).norm() <= CONNECT_TOL
        # interior corners
        for a, b in zip(run[:-1], run[1:]):
            d_in = path.segments[a].direction()
            d_out = path.segments[b].direction()
            turn = math.acos(min(1.0, max(-1.0, d_in.dot(d_out))))
            if turn > policy.corner_threshold_rad:
                inserts_after.setdefault(a, []).extend(
                    overrun(path.segments[a].end, d_in, path.segments[a], and_back=True))
        last = path.segments[run[-1]]
        if closed:
            # the wrap-around vertex is a corner too
            d_in = last.direction()
            d_out = path.segments[run[0]].direction()
            turn = math.acos(min(1.0, max(-1.0, d_in.dot(d_out))))
            if turn > policy.corner_threshold_rad:
                inserts_after.setdefault(run[-1], []).extend(
                    overrun(last.end, d_in, last, and_back=True))
        else:
            is_final = run[-1] == len(path.segments) - 1
            inserts_after.setdefault(run[-1], []).extend(
                overrun(last.end, last.direction(), last, and_back=not is_final))

    out: list[Segment] = []
    for i, seg in enumerate(path.segments):
        out.append(seg)
        out.extend(inserts_after.get(i, []))
    return Toolpath(tuple(out))


def trailing_yaw(direction: Vec3) -> float:
    """Yaw that points the tool-frame spot offset against the travel."""
    return math.atan2(-direction.y, -direction.x)


def assign_orientations(path: Toolpath, trail_axis: Vec3 = Vec3(1.0, 0.0, 0.0)) -> Toolpath:
    """Yaw every segment about world z so the UV offset trails the nozzle.

    The tool-frame offset direction (`trail_axis`, horizontal) is rotated
    to be antiparallel to the segment's horizontal travel.  Segments with
    no horizontal travel (vertical hops) keep the previous yaw.
    """
    if abs(trail_axis.z) > 1e-12:
        raise ToolpathError("trail axis must be horizontal")
    base_yaw = math.atan2(trail_axis.y, trail_axis.x)
    out = []
    yaw = 0.0
    for seg in path.segments:
        d = seg.end - seg.start
        if d.norm() == 0.0:
            raise ToolpathError("cannot orient zero-length segment")
        horiz = math.hypot(d.x, d.y)
        if horiz > 1e-12:
            yaw = wrap_angle(trailing_yaw(d * (1.0 / horiz)) - base_yaw)
        out.append(replace(seg, yaw=yaw))
    return Toolpath(tuple(out))


def resample(path: Toolpath, max_len: float) -> Toolpath:
    """Split segments so none exceeds max_len; geometry is unchanged."""
    if max_len <= 0.0:
        raise ToolpathError("max_len must be positive")
    out = []
    for seg in path.segments:
        n = max(1, math.ceil(seg.length() / max_len - 1e-12))
        if n == 1:
            out.append(seg)
            continue
        delta = (seg.end - seg.start) * (1.0 / n)
        for k in range(n):
            a = seg.start + delta * float(k)
            b = seg.end if k == n - 1 else seg.start + delta * float(k + 1)
            out.append(replace(seg, start=a, end=b))
    return Toolpath(tuple(out))


def path_stats(path: Toolpath) -> dict[str, float]:
    total = 0.0
    extruded = 0.0
    time_extruding = 0.0
    layers = set()
    for seg in path.segments:
        n = seg.length()
        total += n
        if seg.extruding:
            extruded += n
            time_extruding += n / seg.speed
            layers.add(seg.layer)
    return {
        "total_length": total,
        "extruded_length": extruded,
        "extrusion_time": time_extruding,
        "layer_count": float(len(layers)),
    }


@dataclass(frozen=True)
class ProfileEntry:
    """One timeline slice: a segment traversal or a reorientation dwell.

    For moves, yaw0 == yaw1 and seg_index points into the toolpath.  For
    dwells the nozzle holds `start` while yaw sweeps yaw0 -> yaw1; dwell
    yaws are unwrapped representatives kept within pi of the path's first
    yaw, which bounds wrist wind-up on the robot.
    """
    kind: str            # "move" | "dwell"
    t0: float
    t1: float
    start: Vec3
    end: Vec3
    yaw0: float
    yaw1: float
    speed: float
    extruding: bool
    uv_on: bool
    seg_index: int
    layer: int


def time_profile(path: Toolpath, reorient_rate: float = 1.0) -> list[ProfileEntry]:
    """Timeline of moves plus dwells wherever the yaw changes.

    Dwells pause the nozzle while the tool re-aims; both extrusion and UV
    gate off for the pause (otherwise the orbiting spot over-cures corner
    neighborhoods).  All consumers of toolpath timing share this function.
    """
    if reorient_rate <= 0.0:
        raise ToolpathError("reorient rate must be positive")
    entries: list[ProfileEntry] = []
    t = 0.0
    yaw_ref = None
    yaw_cur = None
    for i, seg in enumerate(path.segments):
        yaw = seg.yaw
        if yaw_ref is None:
            yaw_ref = yaw
            yaw_rep = yaw
        else:
            # representative within (yaw_ref - pi, yaw_ref + pi]
            yaw_rep = yaw_ref + wrap_angle(yaw - yaw_ref)
        if yaw_cur is not None and abs(yaw_rep - yaw_cur) > 1e-12:
            dur = abs(yaw_rep - yaw_cur) / reorient_rate
            entries.append(ProfileEntry(
                "dwell", t, t + dur, seg.start, seg.start,
                yaw_cur, yaw_rep, 0.0, False, False, i, seg.layer))
            t += dur
        dur = seg.duration()
        entries.append(ProfileEntry(
            "move", t, t + dur, seg.start, seg.end,
            yaw_rep, yaw_rep, seg.speed, seg.extruding, seg.uv_on, i, seg.layer))
        t += dur
        yaw_cur = yaw_rep
    return entries

"""Toolpath model and post-processing.

A toolpath is a struct of arrays, one row per straight segment: `start`
and `end` (n, 3), `speed`, the `extruding` and `uv_on` flags, `layer`
and the tool `yaw` about world z (the nozzle points straight down, so
the yaw is the whole tool attitude).  `Segment` is the row type that
shapes, the g-code reader and tests build paths from; building checks
every coordinate, length, speed and yaw finite.  Post-processing adds
lead extensions so the trailing cure spot reaches path ends and corners,
assigns yaws so the spot trails the nozzle, and resamples to a bounded
segment length.

`time_profile` lays out the shared timeline of moves and reorientation
dwells as one record array (columns of `TIMELINE_DTYPE`), which the step
scheduler, the deposit, the dose sweep, the planner and the path dump
all read.  Its times are a sequential prefix sum (`np.add.accumulate`)
over the interleaved durations, and lengths are sqrt((dx*dx + dy*dy) +
dz*dz) as `Vec3.norm` adds, so every value is bit for bit that of a
per-entry loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import RamcellError
from .geometry import Vec3, wrap_angles

CONNECT_TOL = 1e-6
# every later stage holds several hundred bytes a subsegment
MAX_SUBSEGMENTS = 2e6

# one timeline entry: a segment traversal, or a dwell (`dwell` set) in
# which the nozzle holds (x0, y0, z0) while the yaw sweeps yaw0 -> yaw1
# with extrusion and UV off
TIMELINE_DTYPE = np.dtype(
    [(name, float) for name in ("t0", "t1", "x0", "y0", "z0", "x1", "y1", "z1",
                                "yaw0", "yaw1", "speed")]
    + [(name, bool) for name in ("extruding", "uv_on", "dwell")]
    + [("layer", np.int64)])


class ToolpathError(RamcellError):
    pass


@dataclass(frozen=True)
class Segment:
    """One row of a toolpath."""
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


def lengths(d: np.ndarray) -> np.ndarray:
    """Norms of the rows of an (n, 3) array, added as `Vec3.norm` adds."""
    x, y, z = d[:, 0], d[:, 1], d[:, 2]
    return np.sqrt((x * x + y * y) + z * z)


def _running_sum(v: np.ndarray) -> float:
    """Left-to-right sum, the bits of `total += x` in a loop."""
    return float(np.add.accumulate(v)[-1]) if len(v) else 0.0


@dataclass(frozen=True, eq=False)
class Toolpath:
    start: np.ndarray      # (n, 3) mm
    end: np.ndarray        # (n, 3) mm
    speed: np.ndarray      # mm/s
    extruding: np.ndarray  # bool
    uv_on: np.ndarray      # bool
    layer: np.ndarray      # int64
    yaw: np.ndarray        # tool x axis heading about world z, radians

    def __post_init__(self):
        for f in fields(self):  # paths share columns, so none may change
            getattr(self, f.name).flags.writeable = False
        # a finite length needs finite end points that do not overflow
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(lengths(self.end - self.start)).all()
        if not (finite and np.isfinite(self.yaw).all()
                and ((self.speed > 0.0) & (self.speed < np.inf)).all()):
            raise ToolpathError(
                "toolpath has a non-finite coordinate, length or yaw, or a speed "
                "that is not finite and positive")

    @staticmethod
    def from_segments(segs) -> "Toolpath":
        """Columns of the rows `segs`, less those no longer than CONNECT_TOL."""
        segs = list(segs)
        ends = np.array([(s.start.x, s.start.y, s.start.z, s.end.x, s.end.y, s.end.z)
                         for s in segs], float).reshape(-1, 6)
        path = Toolpath(ends[:, :3], ends[:, 3:], *(
            np.array([getattr(s, name) for s in segs], dtype) for name, dtype in (
                ("speed", float), ("extruding", bool), ("uv_on", bool),
                ("layer", np.int64), ("yaw", float))))
        return path.rows(lengths(path.end - path.start) > CONNECT_TOL)

    def rows(self, index, **columns) -> "Toolpath":
        """The rows picked by `index` (indices or a mask), with `columns`
        given in place of those columns."""
        return Toolpath(**{f.name: columns[f.name] if f.name in columns
                           else getattr(self, f.name)[index] for f in fields(self)})

    @property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(
            Segment(Vec3(*a), Vec3(*b), v, e, u, lay, yaw)
            for a, b, v, e, u, lay, yaw in zip(
                self.start.tolist(), self.end.tolist(), self.speed.tolist(),
                self.extruding.tolist(), self.uv_on.tolist(), self.layer.tolist(),
                self.yaw.tolist()))

    def __len__(self) -> int:
        return len(self.speed)

    def validate(self) -> None:
        """Raise at the first extruding segment that does not start where
        the extruding one before it on its layer ended, or whose layer
        index is below that of the extruding segment before it."""
        ext = self.extruding
        gap = np.zeros(len(self), bool)
        gap[1:] = (ext[:-1] & ext[1:] & (self.layer[:-1] == self.layer[1:])
                   & (lengths(self.start[1:] - self.end[:-1]) > CONNECT_TOL))
        ext_at = np.flatnonzero(ext)
        drop = ext_at[1:][np.diff(self.layer[ext_at]) < 0]
        i = int(np.argmax(gap)) if gap.any() else len(self)
        if len(drop) and drop[0] < i:
            raise ToolpathError(f"layer index decreases at segment {drop[0]}")
        if i < len(self):
            raise ToolpathError(f"extruding segments {i - 1} and {i} are not connected")


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


def _turns(u_in: np.ndarray, u_out: np.ndarray) -> np.ndarray:
    """Angles between unit directions, by `math.acos` element by element."""
    dot = (u_in[:, 0] * u_out[:, 0] + u_in[:, 1] * u_out[:, 1]) + u_in[:, 2] * u_out[:, 2]
    return np.fromiter(map(math.acos, np.clip(dot, -1.0, 1.0).tolist()), float, len(dot))


def add_cure_extensions(path: Toolpath, policy: ExtensionPolicy) -> Toolpath:
    """Insert non-extruding, UV-on overruns so the trailing spot covers
    every extruded point.

    Sharp corners get an out-and-back excursion along the incoming
    direction before the turn; open run ends get a straight overrun,
    returning afterwards when more path follows so the nozzle track stays
    continuous.  A run is a maximal chain of extruding segments, each
    starting where the one before ended.  The extruded segments
    themselves are never modified.
    """
    n = len(path)
    if policy.lead_mm == 0.0 or n == 0:
        return path
    ext = path.extruding
    d = path.end - path.start
    norm = lengths(d)
    if (ext & (norm == 0.0)).any():
        raise ToolpathError("cannot extend a zero-length extruding segment")
    u = np.zeros_like(d)
    u[ext] = d[ext] / norm[ext, None]
    # joined[i]: segment i continues the run of segment i - 1
    joined = np.zeros(n + 1, bool)
    joined[1:n] = (ext[:-1] & ext[1:]
                   & (lengths(path.start[1:] - path.end[:-1]) <= CONNECT_TOL))
    first = np.flatnonzero(ext & ~joined[:n])
    last = np.flatnonzero(ext & ~joined[1:])
    corner = np.flatnonzero(joined[1:n])
    corner = corner[_turns(u[corner], u[corner + 1]) > policy.corner_threshold_rad]
    closed = lengths(path.end[last] - path.start[first]) <= CONNECT_TOL
    wrap = _turns(u[last[closed]], u[first[closed]]) > policy.corner_threshold_rad
    # overruns per segment: 2 out and back, 1 out only (the path's end)
    extra = np.zeros(n, np.int64)
    extra[corner] = 2
    extra[last[closed][wrap]] = 2
    extra[last[~closed]] = np.where(last[~closed] == n - 1, 1, 2)
    src = np.repeat(np.arange(n), 1 + extra)
    at = np.cumsum(1 + extra) - extra - 1  # each segment's row in the output
    tip = path.end + u * policy.lead_mm
    start, end = path.start[src], path.end[src]
    for k, out in ((1, True), (2, False)):
        a = np.flatnonzero(extra >= k)
        start[at[a] + k] = path.end[a] if out else tip[a]
        end[at[a] + k] = tip[a] if out else path.end[a]
    inserted = np.ones(len(src), bool)
    inserted[at] = False
    return path.rows(src, start=start, end=end,
                     extruding=path.extruding[src] & ~inserted,
                     uv_on=path.uv_on[src] | inserted)


def assign_orientations(path: Toolpath) -> Toolpath:
    """Yaw every segment about world z so the UV offset trails the nozzle.

    The tool-frame spot offset (tool x) is turned antiparallel to the
    segment's horizontal travel.  Segments with no horizontal travel
    (vertical hops) keep the previous yaw.
    """
    d = path.end - path.start
    if (lengths(d) == 0.0).any():
        raise ToolpathError("cannot orient zero-length segment")
    n = len(path)
    horiz = np.fromiter(map(math.hypot, d[:, 0].tolist(), d[:, 1].tolist()), float, n)
    moving = horiz > 1e-12
    unit = d[moving, :2] * (1.0 / horiz[moving])[:, None]
    heading = np.fromiter(map(math.atan2, (-unit[:, 1]).tolist(), (-unit[:, 0]).tolist()),
                          float, len(unit))
    yaw = np.zeros(n)
    yaw[moving] = wrap_angles(heading)
    held = np.maximum.accumulate(np.where(moving, np.arange(n), -1))
    return replace(path, yaw=np.where(held >= 0, yaw[held], 0.0))


def resample(path: Toolpath, max_len: float) -> Toolpath:
    """Split segments so none exceeds max_len; geometry is unchanged."""
    if max_len <= 0.0:
        raise ToolpathError("max_len must be positive")
    d = path.end - path.start
    count = np.maximum(1.0, np.ceil(lengths(d) / max_len - 1e-12))
    if not count.sum() <= MAX_SUBSEGMENTS:
        raise ToolpathError(f"resampling at {max_len:g} mm needs {count.sum():.3g} "
                            f"subsegments, more than {MAX_SUBSEGMENTS:g}; raise "
                            "[job] resolution_mm")
    count = count.astype(np.int64)
    src = np.repeat(np.arange(len(path)), count)
    last = np.cumsum(count) - 1
    k = (np.arange(len(src)) - np.repeat(last + 1 - count, count)).astype(float)[:, None]
    delta = (d * (1.0 / count)[:, None])[src]
    start = path.start[src] + delta * k
    end = path.start[src] + delta * (k + 1.0)
    end[last] = path.end
    whole = count == 1
    start[last[whole]] = path.start[whole]
    return path.rows(src, start=start, end=end)


def path_stats(path: Toolpath) -> dict[str, float]:
    length = lengths(path.end - path.start)
    ext = path.extruding
    return {
        "total_length": _running_sum(length),
        "extruded_length": _running_sum(length[ext]),
        "extrusion_time": _running_sum(length[ext] / path.speed[ext]),
        "layer_count": float(len(np.unique(path.layer[ext]))),
    }


def time_profile(path: Toolpath, reorient_rate: float = 1.0) -> np.recarray:
    """Timeline of moves plus dwells wherever the yaw changes.

    Dwells pause the nozzle while the tool re-aims; both extrusion and UV
    gate off for the pause (otherwise the orbiting spot over-cures corner
    neighborhoods).  Yaws are unwrapped representatives within pi of the
    path's first yaw, which bounds wrist wind-up on the robot.  All
    consumers of toolpath timing share this function.
    """
    if reorient_rate <= 0.0:
        raise ToolpathError("reorient rate must be positive")
    n = len(path)
    rep = path.yaw.copy()
    if n:
        rep[1:] = rep[0] + wrap_angles(rep[1:] - rep[0])
    turn = np.abs(np.diff(rep))
    dwell_before = np.zeros(n, bool)
    dwell_before[1:] = turn > 1e-12
    seg = np.repeat(np.arange(n), 1 + dwell_before)
    dwell = np.zeros(len(seg), bool)
    dwell[:-1] = seg[:-1] == seg[1:]  # the first of a segment's two entries
    move = ~dwell
    dur = np.empty(len(seg))
    dur[move] = lengths(path.end - path.start) / path.speed
    dur[dwell] = turn[dwell_before[1:]] / reorient_rate
    tl = np.zeros(len(seg), TIMELINE_DTYPE)
    tl["t1"] = np.add.accumulate(dur)
    tl["t0"][1:] = tl["t1"][:-1]
    for i, axis in enumerate("xyz"):
        tl[axis + "0"] = path.start[seg, i]
        tl[axis + "1"] = np.where(dwell, path.start[seg, i], path.end[seg, i])
    tl["yaw1"] = rep[seg]
    tl["yaw0"] = rep[seg - dwell]
    tl["speed"][move] = path.speed
    tl["extruding"][move] = path.extruding
    tl["uv_on"][move] = path.uv_on
    tl["dwell"] = dwell
    tl["layer"] = path.layer[seg]
    return tl.view(np.recarray)

"""Per-segment and per-entry reference implementations of the toolpath
layer and its consumers.

The toolpath is a struct of arrays, and its builders (the shapes and the
g-code reader), post-processing, timeline, deposit, step schedule,
planner nodes, g-code writer and path dump are array expressions over
it.  These are the loops over `Segment` rows and timeline entries that
they replaced, kept as the oracle that the array code must match bit for
bit.  `from_segments` builds a path from rows for the tests.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from ramcell.cell import DWELL_YAW_STEP_RAD
from ramcell.cure import CureError
from ramcell.extrusion import IOEvent
from ramcell.gcode import (KIND_LINEAR, KIND_RAPID, KIND_SET_POSITION, KIND_TOOL_OFF,
                           KIND_TOOL_ON, KIND_UV_OFF, KIND_UV_ON, UV_CHANNEL, GcodeError)
from ramcell.geometry import Vec3, wrap_angle
from ramcell.toolpath import CONNECT_TOL, Segment, Toolpath, ToolpathError, lengths


def from_segments(segs) -> Toolpath:
    """Columns of the rows `segs`, less those no longer than CONNECT_TOL."""
    segs = list(segs)
    ends = np.array([(s.start.x, s.start.y, s.start.z, s.end.x, s.end.y, s.end.z)
                     for s in segs], float).reshape(-1, 6)
    path = Toolpath(ends[:, :3], ends[:, 3:], *(
        np.array([getattr(s, name) for s in segs], dtype) for name, dtype in (
            ("speed", float), ("extruding", bool), ("uv_on", bool),
            ("layer", np.int64), ("yaw", float))))
    return path.rows(lengths(path.end - path.start) > CONNECT_TOL)


def layer_index(z: float, layer_height: float) -> int:
    # small epsilon guards against 6.999999 style float drift
    return int(math.floor(z / layer_height + 1e-9))


def stack_per_row(points: list[tuple[float, float]], n_layers: int, layer_height: float,
                  speed: float, travel_speed: float) -> Toolpath:
    """shapes._stack: the polyline through the (x, y) points laid at z = k
    layer_height for k = 1 .. n_layers, every other layer reversed, with a
    hop from each layer's end to its z plus one layer height."""
    segs: list[Segment] = []
    for k in range(1, n_layers + 1):
        z = k * layer_height
        lay = layer_index(z, layer_height)
        line = [Vec3(x, y, z) for x, y in (points if k % 2 else points[::-1])]
        segs.extend(Segment(a, b, speed, extruding=True, uv_on=True, layer=lay)
                    for a, b in zip(line, line[1:]))
        if k < n_layers:
            end = line[-1]
            segs.append(Segment(end, Vec3(end.x, end.y, z + layer_height), travel_speed,
                                extruding=False, uv_on=False, layer=lay))
    return from_segments(segs)


def to_toolpath_per_command(program, travel_speed: float = 20.0,
                            layer_height: float = 0.85) -> Toolpath:
    """gcode.to_toolpath with a `Segment` per move."""
    errors = program.errors()
    if errors:
        more = f" (and {len(errors) - 1} more)" if len(errors) > 1 else ""
        raise GcodeError(errors[0].message + more, errors[0].line)
    pos = Vec3(0.0, 0.0, 0.0)
    feed: float | None = None
    extruder = False
    uv = False
    segments: list[Segment] = []
    for cmd in program.commands:
        if cmd.kind == KIND_TOOL_ON:
            extruder = True
        elif cmd.kind == KIND_TOOL_OFF:
            extruder = False
        elif cmd.kind == KIND_UV_ON:
            uv = True
        elif cmd.kind == KIND_UV_OFF:
            uv = False
        elif cmd.kind in (KIND_SET_POSITION, KIND_RAPID, KIND_LINEAR):
            target = Vec3(
                cmd.x if cmd.x is not None else pos.x,
                cmd.y if cmd.y is not None else pos.y,
                cmd.z if cmd.z is not None else pos.z,
            )
            if cmd.kind == KIND_SET_POSITION:  # G92 moves nothing
                pos = target
                continue
            if cmd.feed is not None:
                feed = cmd.feed
            if cmd.kind == KIND_RAPID:
                speed = travel_speed
                extruding = False
            else:
                if feed is None:
                    raise GcodeError("move before any feed", cmd.line)
                speed = feed / 60.0
                extruding = extruder
            segments.append(Segment(
                start=pos, end=target, speed=speed, extruding=extruding,
                uv_on=uv, layer=layer_index(target.z, layer_height)))
            pos = target
    path = from_segments(segments)
    path.validate()
    return path


def columns(segs) -> Toolpath:
    """A toolpath of exactly the rows `segs`, degenerate ones included
    (from_segments drops those)."""
    segs = list(segs)

    def col(get, dtype=float):
        return np.array([get(s) for s in segs], dtype)

    return Toolpath(col(lambda s: (s.start.x, s.start.y, s.start.z)).reshape(-1, 3),
                    col(lambda s: (s.end.x, s.end.y, s.end.z)).reshape(-1, 3),
                    col(lambda s: s.speed), col(lambda s: s.extruding, bool),
                    col(lambda s: s.uv_on, bool), col(lambda s: s.layer, np.int64),
                    col(lambda s: s.yaw))


def length(seg) -> float:
    return (seg.end - seg.start).norm()


def direction(seg) -> Vec3:
    return (seg.end - seg.start).normalized()


@dataclass(frozen=True)
class Entry:
    """One timeline slice, a move or a dwell, as an object."""
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
    layer: int


def time_profile_per_entry(segs, reorient_rate: float = 1.0) -> list[Entry]:
    if reorient_rate <= 0.0:
        raise ToolpathError("reorient rate must be positive")
    entries: list[Entry] = []
    t = 0.0
    yaw_ref = None
    yaw_cur = None
    for seg in segs:
        yaw = seg.yaw
        if yaw_ref is None:
            yaw_ref = yaw
            yaw_rep = yaw
        else:
            yaw_rep = yaw_ref + wrap_angle(yaw - yaw_ref)
        if yaw_cur is not None and abs(yaw_rep - yaw_cur) > 1e-12:
            dur = abs(yaw_rep - yaw_cur) / reorient_rate
            entries.append(Entry("dwell", t, t + dur, seg.start, seg.start,
                                 yaw_cur, yaw_rep, 0.0, False, False, seg.layer))
            t += dur
        dur = length(seg) / seg.speed
        entries.append(Entry("move", t, t + dur, seg.start, seg.end, yaw_rep, yaw_rep,
                             seg.speed, seg.extruding, seg.uv_on, seg.layer))
        t += dur
        yaw_cur = yaw_rep
    return entries


def validate_per_segment(segs) -> None:
    prev = None
    prev_layer = None
    for i, seg in enumerate(segs):
        if prev is not None and prev.extruding and seg.extruding \
                and prev.layer == seg.layer:
            if (seg.start - prev.end).norm() > CONNECT_TOL:
                raise ToolpathError(f"extruding segments {i - 1} and {i} are not connected")
        if seg.extruding:
            if prev_layer is not None and seg.layer < prev_layer:
                raise ToolpathError(f"layer index decreases at segment {i}")
            prev_layer = seg.layer
        prev = seg


def _runs(segs) -> list[list[int]]:
    runs: list[list[int]] = []
    current: list[int] = []
    for i, seg in enumerate(segs):
        if not seg.extruding:
            if current:
                runs.append(current)
                current = []
            continue
        if current and (seg.start - segs[current[-1]].end).norm() > CONNECT_TOL:
            runs.append(current)
            current = []
        current.append(i)
    if current:
        runs.append(current)
    return runs


def add_cure_extensions_per_run(segs, policy) -> list:
    segs = list(segs)
    if policy.lead_mm == 0.0 or not segs:
        return segs
    L = policy.lead_mm
    inserts_after: dict[int, list] = {}

    def overrun(at, d, template, and_back):
        tip = at + d * L
        out = replace(template, start=at, end=tip, extruding=False, uv_on=True)
        if not and_back:
            return [out]
        return [out, replace(template, start=tip, end=at, extruding=False, uv_on=True)]

    def turn(d_in, d_out):
        return math.acos(min(1.0, max(-1.0, d_in.dot(d_out))))

    for run in _runs(segs):
        closed = (segs[run[-1]].end - segs[run[0]].start).norm() <= CONNECT_TOL
        for a, b in zip(run[:-1], run[1:]):
            if turn(direction(segs[a]), direction(segs[b])) > policy.corner_threshold_rad:
                inserts_after.setdefault(a, []).extend(
                    overrun(segs[a].end, direction(segs[a]), segs[a], True))
        last = segs[run[-1]]
        if closed:
            if turn(direction(last), direction(segs[run[0]])) > policy.corner_threshold_rad:
                inserts_after.setdefault(run[-1], []).extend(
                    overrun(last.end, direction(last), last, True))
        else:
            inserts_after.setdefault(run[-1], []).extend(
                overrun(last.end, direction(last), last, run[-1] != len(segs) - 1))
    out = []
    for i, seg in enumerate(segs):
        out.append(seg)
        out.extend(inserts_after.get(i, []))
    return out


def assign_orientations_per_segment(segs) -> list:
    out = []
    yaw = 0.0
    for seg in segs:
        d = seg.end - seg.start
        if d.norm() == 0.0:
            raise ToolpathError("cannot orient zero-length segment")
        horiz = math.hypot(d.x, d.y)
        if horiz > 1e-12:
            unit = d * (1.0 / horiz)
            yaw = wrap_angle(math.atan2(-unit.y, -unit.x) - 0.0)
        out.append(replace(seg, yaw=yaw))
    return out


def resample_per_segment(segs, max_len: float) -> list:
    out = []
    for seg in segs:
        n = max(1, math.ceil(length(seg) / max_len - 1e-12))
        if n == 1:
            out.append(seg)
            continue
        delta = (seg.end - seg.start) * (1.0 / n)
        for k in range(n):
            a = seg.start + delta * float(k)
            b = seg.end if k == n - 1 else seg.start + delta * float(k + 1)
            out.append(replace(seg, start=a, end=b))
    return out


def path_stats_per_segment(segs) -> dict[str, float]:
    total = 0.0
    extruded = 0.0
    time_extruding = 0.0
    layers = set()
    for seg in segs:
        n = length(seg)
        total += n
        if seg.extruding:
            extruded += n
            time_extruding += n / seg.speed
            layers.add(seg.layer)
    return {"total_length": total, "extruded_length": extruded,
            "extrusion_time": time_extruding, "layer_count": float(len(layers))}


def place_in_cell_per_segment(cfg, segs) -> list:
    if not segs:
        return list(segs)
    xs = [v for s in segs for v in (s.start.x, s.end.x)]
    ys = [v for s in segs for v in (s.start.y, s.end.y)]
    center = Vec3((min(xs) + max(xs)) / 2.0, (min(ys) + max(ys)) / 2.0, 0.0)
    offset = Vec3(cfg.cell.origin_x_mm, cfg.cell.origin_y_mm, cfg.cell.origin_z_mm) - center
    return [replace(s, start=s.start + offset, end=s.end + offset) for s in segs]


def deposit_per_entry(entries, flow, res_mm: float, aspect: float) -> dict[str, list]:
    cols: dict[str, list] = {k: [] for k in ("x", "y", "z", "dir_x", "dir_y", "deposit_time",
                                             "length", "width0", "height", "volume",
                                             "layer")}
    for e in entries:
        if e.kind != "move" or not e.extruding:
            continue
        seg_len = (e.end - e.start).norm()
        if seg_len > res_mm + 1e-9:
            raise CureError(
                f"extruding segment of {seg_len:.3f} mm exceeds deposit resolution {res_mm} mm")
        area = flow.q_mm3_s / e.speed
        w0 = math.sqrt(aspect * area)
        mid = e.start + (e.end - e.start) * 0.5
        d = e.end - e.start
        horiz = math.hypot(d.x, d.y)
        for key, value in (("x", mid.x), ("y", mid.y), ("z", mid.z),
                           ("dir_x", d.x / horiz if horiz > 1e-12 else 0.0),
                           ("dir_y", d.y / horiz if horiz > 1e-12 else 0.0),
                           ("deposit_time", 0.5 * (e.t0 + e.t1)), ("length", seg_len),
                           ("width0", w0), ("height", area / w0),
                           ("volume", area * seg_len), ("layer", e.layer)):
            cols[key].append(value)
    return cols


def schedule_per_entry(entries, flow, drive):
    """Breakpoints and I/O events of extrusion.schedule."""
    rate = drive.step_rate(flow.q_mm3_s)
    events, breakpoints = [], []
    steps, extruding, uv, t_end = 0.0, False, False, 0.0

    def add_breakpoint(t, s):
        if breakpoints and abs(breakpoints[-1][0] - t) < 1e-12:
            return
        if len(breakpoints) >= 2:
            (t0, s0), (t1, s1) = breakpoints[-2], breakpoints[-1]
            if abs((s1 - s0) / (t1 - t0) - (s - s1) / (t - t1)) < 1e-9:
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
    return tuple(breakpoints), tuple(events)


def plan_nodes_per_entry(entries) -> list[tuple[float, Vec3, float, float]]:
    """The planner's nodes (t, position, yaw, tcp speed)."""
    first = entries[0]
    nodes = [(first.t0, first.start, first.yaw0, 0.0)]
    for e in entries:
        if e.kind == "move":
            nodes.append((e.t1, e.end, e.yaw0, e.speed))
            continue
        span = e.yaw1 - e.yaw0
        n = max(1, math.ceil(abs(span) / DWELL_YAW_STEP_RAD))
        for j in range(1, n + 1):
            frac = j / n
            nodes.append((e.t0 + frac * (e.t1 - e.t0), e.start, e.yaw0 + frac * span, 0.0))
    return nodes


def emit_per_segment(segs) -> str:
    """gcode.emit."""
    def fmt(v):
        return f"{v:.6f}"

    lines = ["; ramcell g-code v1"]
    extruder = uv = False
    feed = pos = None
    for seg in segs:
        if pos is None or (seg.start - pos).norm() > 1e-9:
            if pos is not None:
                raise GcodeError("toolpath has a positional gap; cannot emit")
            lines.append(f"G92 X{fmt(seg.start.x)} Y{fmt(seg.start.y)} Z{fmt(seg.start.z)}")
            pos = seg.start
        if seg.extruding != extruder:
            lines.append("M106" if seg.extruding else "M107")
            extruder = seg.extruding
        if seg.uv_on != uv:
            lines.append(f"M42 P{UV_CHANNEL} S{1 if seg.uv_on else 0}")
            uv = seg.uv_on
        words = [f"{letter}{fmt(a)}" for letter, a, b in
                 (("X", seg.end.x, pos.x), ("Y", seg.end.y, pos.y), ("Z", seg.end.z, pos.z))
                 if a != b]
        f_mm_min = seg.speed * 60.0
        if feed is None or f_mm_min != feed:
            words.append(f"F{fmt(f_mm_min)}")
            feed = f_mm_min
        if not words:
            words.append(f"X{fmt(seg.end.x)}")
        lines.append("G1 " + " ".join(words))
        pos = seg.end
    if extruder:
        lines.append("M107")
    if uv:
        lines.append(f"M42 P{UV_CHANNEL} S0")
    lines.append("; end")
    return "\n".join(lines) + "\n"


def path_dump_per_entry(entries) -> list[str]:
    """The move lines of the CLI path dump."""
    return [f"{e.t0:.6f},{e.t1:.6f},{e.start.x:.6f},{e.start.y:.6f},{e.start.z:.6f},"
            f"{e.end.x:.6f},{e.end.y:.6f},{e.end.z:.6f},{e.speed:.6f},{e.yaw0:.6f},"
            f"{1 if e.extruding else 0},{1 if e.uv_on else 0},{e.layer}"
            for e in entries if e.kind == "move"]


def assert_same_text(got: str, want: str) -> None:
    """got == want, naming the first line that differs: pytest's own diff
    of texts of megabytes takes minutes."""
    if got != want:
        pairs = enumerate(zip(got.split("\n") + [None], want.split("\n") + [None]))
        line, (a, b) = next((i, pair) for i, pair in pairs if pair[0] != pair[1])
        raise AssertionError(f"line {line}: {a!r} != {b!r}")

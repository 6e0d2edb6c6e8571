import math

import numpy as np
import pytest

from ramcell.cell import TOOL_DOWN
from ramcell.geometry import Rotation, Vec3, wrap_angle
from ramcell.toolpath import (ExtensionPolicy, Segment, Toolpath,
                              ToolpathError, add_cure_extensions,
                              assign_orientations, path_stats, resample,
                              time_profile)
from ramcell.shapes import generate


def seg(a, b, speed=3.0, extruding=True, uv=True, layer=0):
    return Segment(Vec3(*a), Vec3(*b), speed, extruding, uv, layer)


def closed_rectangle(lx=90.0, ly=60.0, z=0.0):
    corners = [(0, 0, z), (lx, 0, z), (lx, ly, z), (0, ly, z)]
    return Toolpath(tuple(
        seg(a, b) for a, b in zip(corners, corners[1:] + corners[:1])))


def test_segment_invariants():
    with pytest.raises(ToolpathError):
        seg((0, 0, 0), (1, 0, 0), speed=0.0)


def test_degenerate_segments_dropped_at_construction():
    path = Toolpath.from_segments([
        seg((0, 0, 0), (10, 0, 0)),
        seg((10, 0, 0), (10, 0, 0 + 1e-9)),
        seg((10, 0, 0), (20, 0, 0)),
    ])
    assert len(path) == 2


def test_single_line_end_overrun():
    path = Toolpath((seg((0, 0, 0), (50, 0, 0)),))
    out = add_cure_extensions(path, ExtensionPolicy(25.0))
    stats = path_stats(out)
    assert math.isclose(stats["extruded_length"], 50.0)
    assert math.isclose(stats["total_length"], 75.0)
    tail = out.segments[-1]
    assert not tail.extruding and tail.uv_on
    assert (tail.end - Vec3(75, 0, 0)).norm() < 1e-9


def test_zero_lead_is_identity():
    path = closed_rectangle()
    assert add_cure_extensions(path, ExtensionPolicy(0.0)) is path


def test_rectangle_corner_overruns():
    path = closed_rectangle()
    out = add_cure_extensions(path, ExtensionPolicy(25.0))
    stats = path_stats(out)
    assert math.isclose(stats["extruded_length"], 300.0)
    assert math.isclose(stats["total_length"], 500.0)
    inserted = [s for s in out.segments if not s.extruding]
    assert len(inserted) == 8  # four corners, out and back each
    assert all(s.uv_on for s in inserted)


def test_extensions_leave_extruded_geometry_bit_identical():
    path = closed_rectangle()
    out = add_cure_extensions(path, ExtensionPolicy(25.0))
    original = [s for s in path.segments]
    kept = [s for s in out.segments if s.extruding]
    assert kept == original


def test_gentle_corner_not_extended():
    path = Toolpath((
        seg((0, 0, 0), (50, 0, 0)),
        seg((50, 0, 0), (100, 10, 0)),  # ~11 degree turn
    ))
    out = add_cure_extensions(path, ExtensionPolicy(25.0, math.radians(30)))
    inserted = [s for s in out.segments if not s.extruding]
    assert len(inserted) == 1  # open end only


def test_orientation_trailing_examples():
    path = Toolpath((
        seg((0, 0, 0), (10, 0, 0)),
        seg((10, 0, 0), (10, 10, 0)),
    ))
    out = assign_orientations(path)
    yaw_x = out.segments[0].yaw
    yaw_y = out.segments[1].yaw
    # spot offset is the rotated tool x axis; it must oppose travel
    assert abs(wrap_angle(yaw_x - math.pi)) < 1e-9
    assert abs(wrap_angle(yaw_y - (-math.pi / 2))) < 1e-9
    assert abs(abs(wrap_angle(yaw_y - yaw_x)) - math.pi / 2) < 1e-9


def test_rectangle_four_distinct_yaws():
    out = assign_orientations(closed_rectangle())
    yaws = [s.yaw for s in out.segments]
    assert len({round(y, 9) for y in yaws}) == 4
    for a, b in zip(yaws, yaws[1:]):
        assert abs(abs(wrap_angle(b - a)) - math.pi / 2) < 1e-9


def test_orientation_spot_strictly_trails_random_paths():
    rng = np.random.RandomState(21)
    for _ in range(50):
        pos = Vec3(0.0, 0.0, 0.0)
        segs = []
        for _ in range(rng.randint(1, 12)):
            step = Vec3(float(rng.uniform(-30, 30)), float(rng.uniform(-30, 30)), 0.0)
            if step.norm() < 1e-3:
                continue
            segs.append(seg((pos.x, pos.y, pos.z),
                            (pos.x + step.x, pos.y + step.y, pos.z)))
            pos = pos + step
        if not segs:
            continue
        out = assign_orientations(Toolpath(tuple(segs)))
        for s in out.segments:
            tool = Rotation.about_z(s.yaw) * TOOL_DOWN
            offset = tool.rotate(Vec3(1.0, 0.0, 0.0))
            d = s.direction()
            assert offset.x * d.x + offset.y * d.y < 0.0
            nozzle = tool.rotate(Vec3(0.0, 0.0, 1.0))
            assert nozzle.z < -0.99


def test_resample_forced_arithmetic():
    path = Toolpath((seg((0, 0, 0), (10, 0, 0)),))
    out = resample(path, 3.0)
    assert len(out) == 4
    assert all(math.isclose(s.length(), 2.5) for s in out.segments)


def test_resample_identity_when_coarse():
    path = closed_rectangle()
    assert resample(path, 1000.0).segments == path.segments


def test_resample_rectangle_counts():
    out = resample(closed_rectangle(), 1.0)
    assert sum(1 for s in out.segments if s.extruding) == 300


def test_resample_is_exact_refinement():
    rng = np.random.RandomState(22)
    for _ in range(30):
        a = Vec3(*rng.uniform(-50, 50, 3))
        b = Vec3(*rng.uniform(-50, 50, 3))
        if (b - a).norm() < 1.0:
            continue
        path = Toolpath((seg((a.x, a.y, a.z), (b.x, b.y, b.z)),))
        out = resample(path, float(rng.uniform(0.5, 5.0)))
        # endpoints chain exactly and every node lies on the parent line
        assert (out.segments[0].start - a).norm() == 0.0
        assert (out.segments[-1].end - b).norm() == 0.0
        d = (b - a).normalized()
        for s0, s1 in zip(out.segments, out.segments[1:]):
            assert (s1.start - s0.end).norm() == 0.0
        for s in out.segments:
            off = s.end - a
            along = off.dot(d)
            perp = (off - d * along).norm()
            assert perp < 1e-9
        assert math.isclose(sum(s.length() for s in out.segments),
                            (b - a).norm(), rel_tol=1e-12)


def test_path_stats_rectangle():
    stats = path_stats(closed_rectangle())
    assert math.isclose(stats["extruded_length"], 300.0)
    assert math.isclose(stats["extrusion_time"], 100.0)
    assert stats["layer_count"] == 1.0


def test_path_stats_empty():
    stats = path_stats(Toolpath(()))
    assert stats == {"total_length": 0.0, "extruded_length": 0.0,
                     "extrusion_time": 0.0, "layer_count": 0.0}


def test_path_stats_ten_layer_square():
    path = generate("square-30x30x8.5", 3.0, 4.0, 0.85, 1.5)
    stats = path_stats(path)
    assert math.isclose(stats["extruded_length"], 1200.0)
    assert stats["layer_count"] == 10.0
    assert math.isclose(stats["extrusion_time"], 300.0)


def test_time_profile_dwells_between_yaw_changes():
    out = assign_orientations(closed_rectangle())
    entries = time_profile(out, reorient_rate=1.0)
    dwells = [e for e in entries if e.kind == "dwell"]
    moves = [e for e in entries if e.kind == "move"]
    assert len(moves) == 4
    assert len(dwells) == 3
    for d in dwells:
        assert not d.extruding and not d.uv_on
        assert math.isclose(d.t1 - d.t0, abs(d.yaw1 - d.yaw0))
    # times chain with no gaps
    t = 0.0
    for e in entries:
        assert math.isclose(e.t0, t)
        t = e.t1


def test_time_profile_yaw_band_bounded():
    # long multi-layer loops must keep unwrapped yaw within pi of the start
    path = assign_orientations(generate("square-30x30x8.5", 3.0, 4.0, 0.85, 1.5))
    entries = time_profile(path, reorient_rate=1.0)
    ref = entries[0].yaw0
    for e in entries:
        assert abs(e.yaw0 - ref) <= math.pi + 1e-9
        assert abs(e.yaw1 - ref) <= math.pi + 1e-9


def test_validate_rejects_disconnected_extrusion():
    path = Toolpath((
        seg((0, 0, 0), (10, 0, 0)),
        seg((10, 1, 0), (20, 1, 0)),
    ))
    with pytest.raises(ToolpathError):
        path.validate()

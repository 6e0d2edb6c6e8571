"""The columnar toolpath layer against its per-segment and per-entry
oracles (tests/toolpath_oracle.py): every float compared as its int64
bit pattern, every error by type and message."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

import toolpath_oracle as oracle
from ramcell import cli, extrusion, gcode, pipeline, shapes
from ramcell.cell import _plan_nodes
from ramcell.config import default_config
from ramcell.cure import CureError, deposit
from ramcell.geometry import Vec3
from ramcell.toolpath import (ExtensionPolicy, Segment, Toolpath, ToolpathError,
                              add_cure_extensions, assign_orientations, path_stats,
                              resample, time_profile)

CFG = default_config()
RATE = CFG.cell.reorient_rate_rad_s

# two hexagonal layers of diagonal moves, in opposite windings
HEXAGON_GCODE = """\
G0 X20 Y0 Z0.85
M42 P2 S1
M106
G1 X10 Y17.320508 F240
G1 X-10 Y17.320508
G1 X-20 Y0
G1 X-10 Y-17.320508
G1 X10 Y-17.320508
G1 X20 Y0
M107
G1 Z1.7
M106
G1 X10 Y-17.320508
G1 X-10 Y-17.320508
G1 X-20 Y0
G1 X-10 Y17.320508
G1 X10 Y17.320508
G1 X20 Y0
M107
M42 P2 S0
"""


def _row(a, b, yaw=0.0, extruding=True, uv=True, layer=0, speed=4.0):
    return Segment(Vec3(*a), Vec3(*b), speed, extruding, uv, layer, yaw)


# yaws that leave the band of pi around the first one in both directions
# and cross +-pi, with a repeated yaw (no dwell) and a turn of 1e-13 (no
# dwell either)
WRAPPING = [_row((0, 0, 1), (5, 0, 1), 0.1), _row((5, 0, 1), (5, 5, 1), 3.1),
            _row((5, 5, 1), (0, 5, 1), -3.1), _row((0, 5, 1), (0, 0, 1), 3.0),
            _row((0, 0, 1), (3, 3, 1), 3.0), _row((3, 3, 1), (1, 1, 1), 3.0 + 1e-13),
            _row((1, 1, 1), (2, 0, 1), 6.0), _row((2, 0, 1), (0, -2, 1), -6.5),
            _row((0, -2, 1), (-2, 0, 1), -math.pi), _row((-2, 0, 1), (0, 0, 1), math.pi)]
# a stroke, a vertical hop (no horizontal travel: it keeps the yaw) and a
# stroke back on the next layer
HOP = [_row((0, 0, 0.85), (7.5, 0, 0.85), layer=1),
       _row((7.5, 0, 0.85), (7.5, 0, 1.7), extruding=False, uv=False, layer=1, speed=20.0),
       _row((7.5, 0, 1.7), (0, 0, 1.7), layer=2)]
# a start at -0.0 keeps its sign through every stage
ONE = [_row((-0.0, 2, 3), (4, 6, 3), 0.5)]


def _random_walk(n=400, seed=50):
    """Steps under a millimetre in every direction, with random yaws,
    flags and speeds, on rising layers."""
    rng = np.random.RandomState(seed)
    at = rng.uniform(-50, 50, 3)
    rows = []
    for i in range(n):
        step = rng.uniform(-0.6, 0.6, 3)
        rows.append(_row(tuple(at), tuple(at + step), float(rng.uniform(-7, 7)),
                         bool(rng.rand() < 0.8), bool(rng.rand() < 0.8), i // 50,
                         float(rng.choice([1.5, 3.0, 4.0, 20.0]))))
        at = at + step
    return rows


# g-code writer edges: a zero-length move at an unchanged feed, which
# writes its X alone (Toolpath.from_segments drops such rows and
# post-processing refuses them, so only oracle.columns builds one and
# only the consumers read it); the UV lamp toggled while not extruding; a
# path that ends extruding with the lamp on, closed by M107 and M42 S0;
# and a feed that returns to an earlier value, written again
ZERO_LENGTH = [_row((0, 0, 1), (4, 0, 1)), _row((4, 0, 1), (4, 0, 1)),
               _row((4, 0, 1), (4, 3, 1))]
IDLE_UV = [_row((0, 0, 1), (2, 0, 1), extruding=False, uv=False),
           _row((2, 0, 1), (4, 0, 1), extruding=False),
           _row((4, 0, 1), (6, 0, 1), extruding=False, uv=False)]
ENDS_LIT = [_row((0, 0, 1), (3, 0, 1), extruding=False, uv=False, speed=20.0),
            _row((3, 0, 1), (3, 3, 1))]
FEED_RETURNS = [_row((0, 0, 1), (2, 0, 1)), _row((2, 0, 1), (2, 2, 1), speed=20.0),
                _row((2, 2, 1), (0, 2, 1)), _row((0, 2, 1), (0, 0, 1)),
                _row((0, 0, 1), (0, 0, 2), speed=1.5, layer=1),
                _row((0, 0, 2), (2, 0, 2), layer=1)]

ROWS = {"wrapping-yaws": WRAPPING, "vertical-hop": HOP, "one-segment": ONE, "empty": [],
        "random-3d": _random_walk(), "idle-uv-toggle": IDLE_UV, "ends-extruding-lit": ENDS_LIT,
        "feed-returns": FEED_RETURNS}


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).reshape(-1).view(np.int64)


def assert_rows_equal(path: Toolpath, rows) -> None:
    """Every column of `path` equals the rows', floats bit for bit."""
    rows = list(rows)
    assert len(path) == len(rows)
    for name, got in (("start", path.start), ("end", path.end)):
        want = [(getattr(r, name).x, getattr(r, name).y, getattr(r, name).z) for r in rows]
        np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=name)
    for name in ("speed", "yaw"):
        np.testing.assert_array_equal(_bits(getattr(path, name)),
                                      _bits([getattr(r, name) for r in rows]), err_msg=name)
    for name in ("extruding", "uv_on", "layer"):
        assert getattr(path, name).tolist() == [getattr(r, name) for r in rows], name


def assert_timeline_equal(tl, entries) -> None:
    assert len(tl) == len(entries)
    for name, pick in (("t0", lambda e: e.t0), ("t1", lambda e: e.t1),
                       ("x0", lambda e: e.start.x), ("y0", lambda e: e.start.y),
                       ("z0", lambda e: e.start.z), ("x1", lambda e: e.end.x),
                       ("y1", lambda e: e.end.y), ("z1", lambda e: e.end.z),
                       ("yaw0", lambda e: e.yaw0), ("yaw1", lambda e: e.yaw1),
                       ("speed", lambda e: e.speed)):
        np.testing.assert_array_equal(_bits(tl[name]), _bits([pick(e) for e in entries]),
                                      err_msg=name)
    assert tl.dwell.tolist() == [e.kind == "dwell" for e in entries]
    for name in ("extruding", "uv_on", "layer"):
        assert tl[name].tolist() == [getattr(e, name) for e in entries], name


def assert_consumers_agree(path: Toolpath, rate: float = RATE) -> None:
    """Timeline, stats, deposit, schedule, planner nodes, g-code and path
    dump of `path` against the oracles fed with its rows."""
    cfg = replace(CFG, cell=replace(CFG.cell, reorient_rate_rad_s=rate))
    rows = path.segments
    entries = oracle.time_profile_per_entry(rows, rate)
    assert_timeline_equal(time_profile(path, rate), entries)
    got, want = path_stats(path), oracle.path_stats_per_segment(rows)
    assert got.keys() == want.keys()
    np.testing.assert_array_equal(_bits(list(got.values())), _bits(list(want.values())))

    flow = extrusion.FlowModel.from_config(CFG.extrusion)
    try:
        want = oracle.deposit_per_entry(entries, flow, 1.0, CFG.cure.bead_aspect)
    except CureError as err:
        with pytest.raises(CureError, match=f"^{re.escape(str(err))}$"):
            deposit(path, flow, CFG.materials["dlp-fs9"], 1.0, 0.85, CFG.cure.bead_aspect,
                    rate)
    else:
        dmap = deposit(path, flow, CFG.materials["dlp-fs9"], 1.0, 0.85,
                       CFG.cure.bead_aspect, rate)
        for name, values in want.items():
            if name == "layer":
                assert dmap.layer.tolist() == values
            else:
                np.testing.assert_array_equal(_bits(getattr(dmap, name)), _bits(values),
                                              err_msg=name)
        np.testing.assert_array_equal(_bits(dmap.width), _bits(want["width0"]))

    drive = CFG.drivetrain
    sched = extrusion.schedule(path, flow, drive, rate)
    breakpoints, events = oracle.schedule_per_entry(entries, flow, drive)
    np.testing.assert_array_equal(_bits(sched.breakpoints), _bits(breakpoints))
    assert sched.events == events

    if entries:
        t, pos, speed, _ = _plan_nodes(path, cfg)
        nodes = oracle.plan_nodes_per_entry(entries)
        np.testing.assert_array_equal(_bits(t), _bits([n[0] for n in nodes]))
        np.testing.assert_array_equal(_bits(pos), _bits([(p.x, p.y, p.z) for _, p, _, _ in nodes]))
        np.testing.assert_array_equal(_bits(speed), _bits([n[3] for n in nodes]))

    try:
        text = oracle.emit_per_segment(rows)
    except gcode.GcodeError as err:
        with pytest.raises(gcode.GcodeError, match=f"^{re.escape(str(err))}$"):
            gcode.emit(path)
    else:
        oracle.assert_same_text(gcode.emit(path), text)
    job = pipeline.JobBundle("p", cfg, None, path, path, flow, drive)
    oracle.assert_same_text("\n".join(cli._path_dump(job).splitlines()[2:]),
                            "\n".join(oracle.path_dump_per_entry(entries)))


def _oracle_chain(cfg, raw_rows, extend: bool):
    rows = list(raw_rows)
    if extend:
        policy = ExtensionPolicy(cfg.job.extension_mm, math.radians(cfg.job.corner_threshold_deg))
        rows = oracle.add_cure_extensions_per_run(rows, policy)
    rows = oracle.assign_orientations_per_segment(rows)
    rows = oracle.resample_per_segment(rows, cfg.job.resolution_mm)
    oracle.validate_per_segment(rows)
    return rows, oracle.place_in_cell_per_segment(cfg, rows)


@pytest.mark.parametrize("source", ["rectangle-90x60", "wall-50x10", "square-30x30x8.5",
                                    "hexagon-gcode"])
def test_job_paths_match_the_per_segment_oracles(source):
    cfg = CFG
    if source == "hexagon-gcode":
        raw = gcode.to_toolpath(gcode.parse(HEXAGON_GCODE),
                                travel_speed=cfg.job.travel_speed_mm_s,
                                layer_height=cfg.job.layer_height_mm)
        local = pipeline.build_toolpath_from_gcode(cfg, HEXAGON_GCODE)
    else:
        job = cfg.job
        raw = shapes.generate(source, job.speed_2d_mm_s, job.speed_3d_mm_s,
                              job.layer_height_mm, cfg.extrusion.nozzle_diameter_mm,
                              job.travel_speed_mm_s)
        local = pipeline.build_toolpath_from_shape(cfg, source)
    local_rows, world_rows = _oracle_chain(cfg, raw.segments, source != "hexagon-gcode")
    job = pipeline.build_job(cfg, source, local)
    assert_rows_equal(job.local_path, local_rows)
    assert_rows_equal(job.world_path, world_rows)
    assert_consumers_agree(job.local_path)
    # the planner keeps its own timeline, from world coordinates
    assert_timeline_equal(time_profile(job.world_path, RATE),
                          oracle.time_profile_per_entry(world_rows, RATE))
    assert_consumers_agree(job.world_path)


def test_world_timeline_differs_from_the_local_one():
    job = pipeline.build_job(CFG, "wall-50x10",
                             pipeline.build_toolpath_from_shape(CFG, "wall-50x10"))
    local, world = time_profile(job.local_path, RATE), time_profile(job.world_path, RATE)
    assert len(local) == len(world)
    assert (local.t0 != world.t0).sum() > len(local) // 2
    np.testing.assert_allclose(local.t1, world.t1, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("case", sorted(ROWS))
def test_row_paths_match_the_per_segment_oracles(case):
    rows = ROWS[case]
    path = oracle.columns(rows)
    assert_rows_equal(path, rows)
    for rate in (RATE, 0.7):
        assert_consumers_agree(path, rate)
    assert_rows_equal(assign_orientations(path), oracle.assign_orientations_per_segment(rows))
    for max_len in (0.7, 2.5, 100.0):
        assert_rows_equal(resample(path, max_len), oracle.resample_per_segment(rows, max_len))
    for lead, corner in ((25.0, math.radians(30.0)), (3.0, math.radians(100.0))):
        policy = ExtensionPolicy(lead, corner)
        assert_rows_equal(add_cure_extensions(path, policy),
                          oracle.add_cure_extensions_per_run(rows, policy))
    for origin in ((400.0, 0.0, 0.0), (-250.5, 123.25, -7.0), (0.0, 0.0, 0.0)):
        cfg = replace(CFG, cell=replace(CFG.cell, origin_x_mm=origin[0],
                                        origin_y_mm=origin[1], origin_z_mm=origin[2]))
        assert_rows_equal(pipeline.place_in_cell(cfg, path),
                          oracle.place_in_cell_per_segment(cfg, rows))


def test_zero_length_row_matches_the_per_segment_oracles():
    path = oracle.columns(ZERO_LENGTH)
    for rate in (RATE, 0.7):
        assert_consumers_agree(path, rate)


def test_gcode_edge_rows_write_what_they_name():
    def text(rows):
        return gcode.emit(oracle.columns(rows))

    assert "G1 X4.000000 F240.000000\nG1 X4.000000\nG1 Y3.000000\n" in text(ZERO_LENGTH)
    assert "M42 P2 S1\nG1 X4.000000\nM42 P2 S0\nG1 X6.000000\n; end\n" in text(IDLE_UV)
    assert "M106" not in text(IDLE_UV)
    assert text(ENDS_LIT).endswith("G1 Y3.000000 F240.000000\nM107\nM42 P2 S0\n; end\n")
    assert text(FEED_RETURNS).count("F240.000000") == 3


def test_extensions_of_open_and_broken_runs_match_the_oracle():
    # an open run that is not the path's last, a run broken by a gap on
    # the same layer, one broken by a travel move, and a closed triangle
    rows = [_row((0, 0, 0), (10, 0, 0)), _row((10, 0, 0), (10, 10, 0)),
            _row((10, 10, 0), (20, 10, 0), extruding=False, uv=False),
            _row((20, 10, 0), (30, 10, 0)), _row((30, 12, 0), (30, 20, 0)),
            _row((30, 20, 0), (40, 30, 0)), _row((40, 30, 0), (50, 30, 0)),
            _row((50, 30, 0), (45, 35, 0)), _row((45, 35, 0), (40, 30, 0))]
    path = Toolpath.from_segments(rows)
    for lead, corner in ((25.0, math.radians(30.0)), (5.0, math.radians(10.0)),
                         (1.0, math.radians(179.0))):
        policy = ExtensionPolicy(lead, corner)
        assert_rows_equal(add_cure_extensions(path, policy),
                          oracle.add_cure_extensions_per_run(rows, policy))
    assert_rows_equal(assign_orientations(path), oracle.assign_orientations_per_segment(rows))


def _error(fn, *args):
    try:
        fn(*args)
    except (ToolpathError, CureError) as err:
        return type(err), str(err)
    return None


@pytest.mark.parametrize("rows", [
    # a gap between extruding segments of one layer
    [_row((0, 0, 0), (10, 0, 0)), _row((10, 1e-5, 0), (20, 0, 0))],
    # a gap of exactly the tolerance is no gap
    [_row((0, 0, 0), (10, 0, 0)), _row((10, 1e-6, 0), (20, 0, 0))],
    # a gap across layers is allowed, a layer decrease is not
    [_row((0, 0, 0), (10, 0, 0), layer=2), _row((10, 1, 0), (20, 0, 0), layer=1)],
    # a decrease past a travel move, then a gap: the decrease comes first
    [_row((0, 0, 0), (10, 0, 0), layer=3), _row((10, 0, 0), (0, 0, 0), extruding=False),
     _row((0, 0, 0), (5, 0, 0), layer=2), _row((6, 0, 0), (7, 0, 0), layer=2)],
    # a gap, then a decrease
    [_row((0, 0, 0), (10, 0, 0), layer=3), _row((10, 2, 0), (20, 0, 0), layer=3),
     _row((20, 0, 0), (30, 0, 0), layer=1)],
    # a gap before or after a travel move is no gap
    [_row((0, 0, 0), (10, 0, 0)), _row((11, 0, 0), (12, 0, 0), extruding=False),
     _row((13, 0, 0), (14, 0, 0))],
    WRAPPING, HOP, ONE, []])
def test_validation_errors_match_the_oracle(rows):
    path = oracle.columns(rows)
    assert _error(path.validate) == _error(oracle.validate_per_segment, rows)


def test_over_long_extruding_segment_error_matches_the_oracle():
    rows = [_row((0, 0, 0), (0.5, 0, 0)), _row((0.5, 0, 0), (3.2, 0.1, 0)),
            _row((3.2, 0.1, 0), (9, 0, 0))]
    path = Toolpath.from_segments(rows)
    flow = extrusion.FlowModel.from_config(CFG.extrusion)
    entries = oracle.time_profile_per_entry(rows, RATE)
    want = _error(oracle.deposit_per_entry, entries, flow, 1.0, 1.4)
    assert want is not None and "2.702 mm" in want[1]
    assert _error(deposit, path, flow, CFG.materials["dlp-fs9"], 1.0, 0.85, 1.4,
                  RATE) == want


def test_non_finite_rows_are_rejected_when_the_path_is_built():
    for bad in (_row((0, 0, 0), (math.nan, 0, 0)), _row((0, 0, 0), (1, 0, 0), math.inf),
                _row((1e300, 0, 0), (-1e300, 0, 0))):
        with pytest.raises(ToolpathError, match="non-finite"):
            Toolpath.from_segments([_row((0, 0, 0), (1, 0, 0)), bad])


def test_corners_exactly_at_the_threshold_match_the_oracle():
    # the threshold is each corner's own turn by math.acos, so a turn off
    # by one ulp would add or drop its overrun
    rng = np.random.RandomState(32)
    for _ in range(200):
        a, b, c = (tuple(rng.uniform(-20, 20, 3)) for _ in range(3))
        rows = [_row(a, b), _row(b, c)]
        turn = math.acos(min(1.0, max(-1.0, oracle.direction(rows[0]).dot(
            oracle.direction(rows[1])))))
        policy = ExtensionPolicy(5.0, turn)
        got = add_cure_extensions(Toolpath.from_segments(rows), policy)
        assert_rows_equal(got, oracle.add_cure_extensions_per_run(rows, policy))
        assert len(got) == 3  # the open end only

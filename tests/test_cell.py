import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branch_oracle
from branch_oracle import (detect_singularity_per_node, emit_program_per_float, fk_batch,
                           plan_per_node, rotate, select_branch, tcp_offset_from_config,
                           validate_speeds_per_node)
from toolpath_oracle import assert_same_text, columns, from_segments
from ramcell import cell, extrusion, kinematics, pipeline
from ramcell.cell import (IK_CHUNK_NODES, TOOL_DOWN, Aabb, CellEnvironment, PlanningError,
                          RobotProgram, SimReport, _plan_nodes, _point_box_distance,
                          cfg_home, check_collisions, detect_singularity_traversal,
                          emit_program, plan_trajectory)
from ramcell.config import default_config
from ramcell.extrusion import IOEvent
from ramcell.geometry import Pose, Rotation, Vec3
from ramcell.kinematics import DHParams, JointConfig, fk, ik
from ramcell.toolpath import Segment

CFG = default_config()
ENV = CellEnvironment.from_config(CFG.cell)
DH = DHParams.from_config(CFG.kinematics)
TCP = Pose(Vec3(0.0, 0.0, CFG.kinematics.tcp_offset_z_mm), Rotation.identity())


def _program(times, joints, events=()):
    """A program through the given waypoints, each reached at speed 0."""
    times = np.asarray(times, float)
    return RobotProgram(times, np.asarray(joints, float).reshape(-1, 6),
                        np.zeros(len(times)), events)


def rectangle_world():
    local = pipeline.build_toolpath_from_shape(CFG, "rectangle-90x60")
    job = pipeline.build_job(CFG, "rectangle-90x60", local)
    return job


def test_plan_rectangle_at_desk_scale():
    job = rectangle_world()
    program = plan_trajectory(job.world_path, CFG, ENV)
    assert len(program.times) > 300
    assert not (program.times.flags.writeable or program.joints.flags.writeable
                or program.speeds.flags.writeable)
    # nozzle path stays on the commanded polyline
    poly = [(s.start, s.end) for s in job.world_path.segments]
    for xyz in fk_batch(program.joints[:: 25], DH, TCP)[:, :3, 3].tolist():
        p = Vec3(*xyz)
        d = min(_point_segment_distance(p, a, b) for a, b in poly)
        assert d < 1e-3


def _point_segment_distance(p, a, b):
    ab = b - a
    denom = ab.dot(ab)
    t = 0.0 if denom == 0 else max(0.0, min(1.0, (p - a).dot(ab) / denom))
    closest = a + ab * t
    return (p - closest).norm()


def test_plan_tcp_speed_fidelity():
    cfg = replace(CFG, job=replace(CFG.job, shape="wall-50x10", material="dlp-fs9"))
    local = pipeline.build_toolpath_from_shape(cfg, "wall-50x10")
    job = pipeline.build_job(cfg, "wall-50x10", local)
    program = plan_trajectory(job.world_path, cfg, ENV)
    tip = fk_batch(program.joints, DH, TCP)[:, :3, 3]
    arrive = np.flatnonzero(program.speeds[1:] == 4.0) + 1
    measured = (np.linalg.norm(tip[arrive] - tip[arrive - 1], axis=1)
                / np.diff(program.times)[arrive - 1])
    assert (np.abs(measured - 4.0) / 4.0 < 0.01).all()
    assert len(arrive) > 100


def test_branch_continuity_along_path():
    job = rectangle_world()
    program = plan_trajectory(job.world_path, CFG, ENV)
    step = np.abs(np.diff(program.joints, axis=0)).max(axis=1)
    moving = program.speeds[1:] != 0.0  # dwell steps reorient the wrist on purpose
    assert (step[moving] < 0.1).all()
    assert moving.sum() > 400


def test_plan_unreachable_far_origin():
    cfg = replace(CFG, cell=replace(CFG.cell, origin_x_mm=1200.0))
    local = pipeline.build_toolpath_from_shape(cfg, "rectangle-90x60")
    job = pipeline.build_job(cfg, "rectangle-90x60", local)
    with pytest.raises(PlanningError) as err:
        plan_trajectory(job.world_path, cfg, ENV)
    assert err.value.position is not None
    assert err.value.position.x > 1000.0


def test_plan_empty_path():
    program = plan_trajectory(from_segments(()), CFG, ENV)
    assert program.times.shape == program.speeds.shape == (0,)
    assert program.joints.shape == (0, 6)


def test_collision_tcp_below_table():
    q_ok = JointConfig(tuple(plan_trajectory(rectangle_world().world_path, CFG,
                                             ENV).joints[0].tolist()))
    pose = fk(q_ok, DH, TCP)
    # command the same xy but 5 mm below the table
    target = Pose(Vec3(pose.position.x, pose.position.y, -5.0), pose.orientation)
    q_bad = select_branch(ik(target, DH, TCP), q_ok)
    program = _program([0.0, 10.0], [q_ok.q, q_bad.q])
    findings = check_collisions(program, CFG, ENV)
    assert any(what == "table" for _, what in findings)


def test_collision_far_obstacle_ignored():
    program = plan_trajectory(rectangle_world().world_path, CFG, ENV)
    env = replace(ENV, obstacles=(Aabb((2000, 2000, 0), (2100, 2100, 100)),))
    assert check_collisions(program, CFG, env) == []


def test_collision_obstacle_in_path_detected():
    job = rectangle_world()
    program = plan_trajectory(job.world_path, CFG, ENV)
    # a post rising through the print area
    env = replace(ENV, obstacles=(Aabb((395, -5, 0), (405, 5, 400)),))
    findings = check_collisions(program, CFG, env)
    assert any(what.startswith("obstacle") for _, what in findings)


def test_second_layer_does_not_collide():
    cfg = replace(CFG, job=replace(CFG.job, shape="wall-50x10", material="dlp-fs9"))
    local = pipeline.build_toolpath_from_shape(cfg, "wall-50x10")
    job = pipeline.build_job(cfg, "wall-50x10", local)
    program = plan_trajectory(job.world_path, cfg, ENV)
    assert check_collisions(program, cfg, ENV) == []


def _straight_program(start: Vec3, travel: Vec3, duration: float, n: int = 21):
    """Tool-down TCP moving on a straight line at constant speed."""
    prev = JointConfig(cfg_home())
    wps = []
    for k in range(n):
        frac = k / (n - 1)
        target = Pose(start + travel * frac, TOOL_DOWN)
        prev = select_branch(ik(target, DH, TCP), prev)
        wps.append((frac * duration, prev.q))
    return _program([t for t, _ in wps], [q for _, q in wps])


def _brute_force_first_contacts(program, env, dt, axis_points=501):
    """First sample time per obstacle at which any of a dense set of points
    on the capsule axis comes within the capsule radius of the box."""
    times = program.times
    lo_end, hi_end = [], []
    for q in program.joints.tolist():
        pose = fk(JointConfig(tuple(q)), DH, TCP)
        up = rotate(pose.orientation, Vec3(0.0, 0.0, -1.0))
        lo_end.append((pose.position + up * cell.CAPSULE_CLEARANCE_MM).to_array())
        hi_end.append((pose.position + up * (cell.CAPSULE_CLEARANCE_MM
                                             + env.capsule_length_mm)).to_array())
    n = int(np.ceil((times[-1] - times[0]) / dt)) + 1
    ts = np.linspace(times[0], times[-1], n)
    a = np.stack([np.interp(ts, times, np.array(lo_end)[:, k]) for k in range(3)], -1)
    b = np.stack([np.interp(ts, times, np.array(hi_end)[:, k]) for k in range(3)], -1)
    u = np.linspace(0.0, 1.0, axis_points)[None, :, None]
    points = a[:, None, :] + u * (b - a)[:, None, :]  # (samples, axis_points, 3)
    found = {}
    for bi, box in enumerate(env.obstacles):
        gap = points - np.clip(points, box.lo, box.hi)
        dist = np.sqrt(np.sum(gap * gap, axis=-1)).min(axis=1)
        contact = dist < env.capsule_radius_mm
        if np.any(contact):
            found[f"obstacle_{bi}"] = float(ts[int(np.argmax(contact))])
    return found


def test_collision_first_contact_matches_brute_force():
    # the nozzle runs 100 mm along +x in 10 s, 5 mm above the table; the
    # capsule axis spans 70..320 mm above the tip, radius 60 mm
    px, py, pz = 400.0, 0.0, 5.0
    program = _straight_program(Vec3(px, py, pz), Vec3(100.0, 0.0, 0.0), 10.0)
    box = lambda lo, hi: Aabb((px + lo[0], py + lo[1], pz + lo[2]),
                              (px + hi[0], py + hi[1], pz + hi[2]))
    env = replace(ENV, obstacles=(
        box((150, -20, 100), (200, 20, 150)),  # side of the capsule: x >= 90
        box((60, 30, 0), (80, 50, 25)),        # lower cap, off to the side
        box((20, 70, 0), (80, 90, 400)),       # 70 mm off the axis: a miss
        box((130, -10, 340), (160, 10, 380)),  # 20 mm above the upper cap
    ))
    dt = 0.02
    got = {what: t for t, what in check_collisions(program, CFG, env, dt)}
    want = _brute_force_first_contacts(program, env, dt)
    assert set(got) == set(want) == {"obstacle_0", "obstacle_1", "obstacle_3"}
    for what, t in want.items():
        assert abs(got[what] - t) <= dt + 1e-9, what
    # analytic first contacts of the vertical capsule at 10 mm/s: its side
    # reaches x = 150 at x = 90; its lower end (45 mm above the box top,
    # 30 mm beside it) and its upper end (20 mm below the box) come within
    # 60 mm of the box's nearest edge
    assert abs(got["obstacle_0"] - 9.0) <= dt + 1e-9
    t_low = (60.0 - math.sqrt(60.0**2 - 30.0**2 - 45.0**2)) / 10.0
    assert abs(got["obstacle_1"] - t_low) <= dt + 1e-9
    t_high = (130.0 - math.sqrt(60.0**2 - 20.0**2)) / 10.0
    assert abs(got["obstacle_3"] - t_high) <= dt + 1e-9


def _unculled_check_collisions(program, cfg, env, dt_s=0.01):
    """check_collisions with the table test run on every sample and the
    ternary search on every sample for every box: the oracle of the
    per-target culls."""
    times = program.times
    if not len(times):
        return []
    dh = DHParams.from_config(cfg.kinematics)
    tcp = fk_batch(program.joints, dh, tcp_offset_from_config(cfg.kinematics))
    tip = tcp[:, :3, 3]
    body_up = -tcp[:, :3, 2]
    caps_lo = tip + body_up * cell.CAPSULE_CLEARANCE_MM
    caps_hi = tip + body_up * (cell.CAPSULE_CLEARANCE_MM + env.capsule_length_mm)
    duration = times[-1] - times[0]
    n = max(2, int(math.ceil(duration / dt_s)) + 1) if duration > 0 else 1
    ts = np.linspace(times[0], times[-1], n)
    sample = lambda col: np.interp(ts, times, col)
    ax, ay, az = (sample(caps_lo[:, k]) for k in range(3))
    bx, by, bz = (sample(caps_hi[:, k]) for k in range(3))
    tipz = sample(tip[:, 2])
    findings = []
    below = tipz < cell.TABLE_Z_MM - 1e-6
    cap_below = np.minimum(az, bz) - env.capsule_radius_mm < cell.TABLE_Z_MM - 1e-6
    hit = below | cap_below
    if np.any(hit):
        findings.append((float(ts[int(np.argmax(hit))]), "table"))
    for bi, box in enumerate(env.obstacles):
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


@pytest.mark.parametrize("eps", [-1e-3, 1e-3])
@pytest.mark.parametrize("dt", [0.01, 0.02])
def test_culled_collision_search_matches_unculled(eps, dt):
    # as above: the capsule axis runs x 400..500 at y = 0, z 75..325,
    # radius 60; each near box leaves a gap of 60 + eps to the axis
    px, py, pz = 400.0, 0.0, 5.0
    program = _straight_program(Vec3(px, py, pz), Vec3(100.0, 0.0, 0.0), 10.0)
    r = ENV.capsule_radius_mm
    box = lambda lo, hi: Aabb((px + lo[0], py + lo[1], pz + lo[2]),
                              (px + hi[0], py + hi[1], pz + hi[2]))
    boxes = [
        box((100 + r + eps, -20, 100), (150 + r, 20, 150)),    # ahead of the end, along x
        box((40, r + eps, 100), (60, r + 40, 200)),             # beside the path, along y
        box((-150, -r - 40, 0), (-r - eps, r, 400)),            # behind the start
        box((40, -10, 0), (60, 10, 70 - r - eps)),              # under the lower cap
        box((40, -10, 320 + r + eps), (60, 10, 500)),           # over the upper cap
        box((130, 0, 0), (150, 20, 25)),                        # lower-cap corner: 30, 45 off
        box((145, 0, 0), (165, 20, 25)),                        # lower-cap corner: 45, 45 off
        box((40, -10, 150), (60, 10, 200)),                     # the axis runs through it
        box((1600, 1600, 0), (1700, 1700, 100)),                # far
        box((-900, 300, 0), (-800, 400, 50)),                   # far
    ]
    rng = np.random.RandomState(15)
    for _ in range(30):  # random boxes around the capsule's reach
        lo = rng.uniform([-150, -150, 0], [250, 150, 450])
        boxes.append(box(lo, lo + rng.uniform(5, 60, 3)))
    env = replace(ENV, obstacles=tuple(boxes))
    got = check_collisions(program, CFG, env, dt)
    assert got == _unculled_check_collisions(program, CFG, env, dt)
    hits = {what for _, what in got}
    assert ({"obstacle_0", "obstacle_1", "obstacle_2", "obstacle_3", "obstacle_4"} <= hits) \
        == (eps < 0)
    assert {"obstacle_5", "obstacle_7"} <= hits
    assert not hits & {"obstacle_6", "obstacle_8", "obstacle_9"}


def test_collision_search_skips_boxes_beyond_reach(monkeypatch):
    """Boxes more than a capsule radius beyond the swept capsule axis on
    any side cost no distance evaluation."""
    px, py, pz = 400.0, 0.0, 5.0
    program = _straight_program(Vec3(px, py, pz), Vec3(100.0, 0.0, 0.0), 10.0)
    r = ENV.capsule_radius_mm + 0.01
    box = lambda lo, hi: Aabb((px + lo[0], py + lo[1], pz + lo[2]),
                              (px + hi[0], py + hi[1], pz + hi[2]))
    env = replace(ENV, obstacles=(
        box((-100, -20, 0), (-r, 20, 400)), box((100 + r, -20, 0), (200, 20, 400)),
        box((0, -100, 0), (100, -r, 400)), box((0, r, 0), (100, 100, 400)),
        box((0, -20, 320 + r), (100, 20, 500)), box((0, -20, -100), (100, 20, 70 - r)),
    ))
    calls = []
    monkeypatch.setattr(cell, "_point_box_distance",
                        lambda *args: calls.append(1) or _point_box_distance(*args))
    assert check_collisions(program, CFG, env, 0.02) == []
    assert not calls


def _program_through(times, points):
    """Tool-down TCP through the given (x, y, z) points at the given times."""
    prev = JointConfig(cfg_home())
    joints = []
    for xyz in points:
        prev = select_branch(ik(Pose(Vec3(*xyz), TOOL_DOWN), DH, TCP), prev)
        joints.append(prev.q)
    return _program(times, joints)


def _assert_culled_matches_unculled(program, env, dt, want):
    got = check_collisions(program, CFG, env, dt)
    assert got == _unculled_check_collisions(program, CFG, env, dt)
    assert [what for _, what in got] == [what for _, what in want]
    for (t, _), (t_want, _) in zip(got, want):
        assert abs(t - t_want) < 1e-9


def test_segment_cull_finds_a_table_dip_between_sample_times():
    # the nozzle dips 0.5 mm below the table at a waypoint no sample
    # lands on; only the samples of its two segments are in contact
    program = _program_through([0.0, 1.005, 2.0, 3.0],
                               [(400, 0, 5), (410, 0, -0.5), (420, 0, 5), (430, 0, 5)])
    # tip z = 5 - 5.5 t / 1.005 falls below -1e-6 after t = 0.9136
    _assert_culled_matches_unculled(program, ENV, 0.01, [(0.92, "table")])


def test_segment_cull_finds_contacts_on_waypoint_times():
    # samples every 0.25 s land on the whole-second waypoints; the tip is
    # below the table at the middle waypoint only
    program = _program_through(np.arange(5.0), [(400 + 10 * i, 0, z)
                                                for i, z in enumerate((5, 5, -1, 5, 5))])
    _assert_culled_matches_unculled(program, ENV, 0.25, [(2.0, "table")])
    # the capsule axis runs x 400..500 at y = 0 over 10 s, waypoints at
    # x 400, 450, 500; each box is touched at one waypoint's sample only:
    # the first, the middle (the axis passes 59.99 mm beside a 0.2 mm wide
    # box) and the last
    r = ENV.capsule_radius_mm
    program = _straight_program(Vec3(400.0, 0.0, 5.0), Vec3(100.0, 0.0, 0.0), 10.0, n=3)
    env = replace(ENV, obstacles=(
        Aabb((300, -10, 100), (400 - r + 0.5, 10, 150)),
        Aabb((449.9, 59.99, 100), (450.1, 80, 150)),
        Aabb((500 + r - 0.5, -10, 100), (600, 10, 150)),
    ))
    _assert_culled_matches_unculled(program, env, 0.25, [
        (0.0, "obstacle_0"), (5.0, "obstacle_1"), (10.0, "obstacle_2")])
    # each target culls its own samples in one program: the tip is below
    # the table at the first waypoint only, two boxes lie within reach of
    # the last one (touched there, and missed by 0.5 um inside the pad),
    # and one box lies beside the dip
    program = _program_through([0.0, 1.0, 2.0, 3.0],
                               [(400, 0, -0.5), (410, 0, 5), (420, 0, 5), (430, 0, 5)])
    env = replace(ENV, obstacles=(
        Aabb((430 + r - 1e-4, -10, 100), (500, 10, 150)),
        Aabb((430 + r + 5e-4, -10, 160), (500, 10, 200)),
        Aabb((395, r - 1, 100), (405, 80, 150)),
    ))
    _assert_culled_matches_unculled(program, env, 0.01, [
        (0.0, "obstacle_2"), (0.0, "table"), (3.0, "obstacle_0")])


def test_segment_cull_finds_a_box_touched_only_mid_segment():
    # waypoints at x 400, 450, 500; the axis comes within 60 mm of the box
    # (59 mm beside it) only for x in (409.09, 440.91)
    program = _straight_program(Vec3(400.0, 0.0, 5.0), Vec3(100.0, 0.0, 0.0), 10.0, n=3)
    env = replace(ENV, obstacles=(Aabb((420, 59, 100), (430, 70, 150)),))
    _assert_culled_matches_unculled(program, env, 0.01, [(0.91, "obstacle_0")])


def test_segment_cull_at_the_edge_of_its_pad():
    # boxes ahead of the last waypoint (axis at x = 500) whose grown
    # bounds stop within the segment pad, within the per-sample margin,
    # or just inside the capsule radius
    r = ENV.capsule_radius_mm
    program = _straight_program(Vec3(400.0, 0.0, 5.0), Vec3(100.0, 0.0, 0.0), 10.0, n=3)
    gaps = (r + 1.5e-3, r + 0.5e-3, r - 1e-4)
    env = replace(ENV, obstacles=tuple(Aabb((500 + g, -10, 100), (600, 10, 150)) for g in gaps))
    for dt in (0.01, 0.3):
        _assert_culled_matches_unculled(program, env, dt, [(10.0, "obstacle_2")])


def test_segment_cull_on_one_waypoint_and_zero_duration_programs():
    r = ENV.capsule_radius_mm
    touching = replace(ENV, obstacles=(Aabb((400 + r - 1, -10, 100), (500, 10, 150)),
                                       Aabb((2000, 2000, 0), (2100, 2100, 100))))
    above = _program_through([3.0], [(400, 0, 5)])
    below = _program_through([3.0], [(400, 0, -1)])
    _assert_culled_matches_unculled(above, ENV, 0.01, [])
    _assert_culled_matches_unculled(above, touching, 0.01, [(3.0, "obstacle_0")])
    _assert_culled_matches_unculled(below, touching, 0.01, [(3.0, "obstacle_0"), (3.0, "table")])
    for points in ([(400, 0, 5), (400, 0, -1)], [(400, 0, -1), (400, 0, 5)],
                   [(400, 0, 5), (420, 0, 5)]):
        program = _program_through([3.0, 3.0], points)
        for env in (ENV, touching):
            got = check_collisions(program, CFG, env)
            assert got == _unculled_check_collisions(program, CFG, env)
            assert all(t == 3.0 for t, _ in got)


def synthetic_program(q5_values, dt=0.5):
    return _program([i * dt for i in range(len(q5_values))],
                    [(0.3, -1.2, 1.8, -0.9, q5, 0.7) for q5 in q5_values])


def test_singularity_clean_program_has_no_warnings():
    program = synthetic_program(np.linspace(-1.8, -0.8, 11))
    assert detect_singularity_traversal(program, CFG) == []


def test_singularity_crossing_q5_zero():
    program = synthetic_program(np.linspace(-0.3, 0.3, 25))
    warnings = detect_singularity_traversal(program, CFG)
    assert len(warnings) == 1
    t0, t1 = warnings[0]
    # q5 crosses zero at the middle waypoint, t = 12 * 0.5
    assert t0 <= 6.0 <= t1


def test_singularity_eps_monotone():
    program = synthetic_program(np.linspace(-0.3, 0.3, 25))
    wide = detect_singularity_traversal(program, CFG, eps=1e-3)
    narrow = detect_singularity_traversal(program, CFG, eps=1e-6)
    dur = lambda iv: sum(b - a for a, b in iv)
    assert dur(narrow) <= dur(wide)


def _low_mask_program(mask, rng):
    """A program whose joint 0 reads 0 at the waypoints of mask and 1
    elsewhere, at strictly increasing random times."""
    n = len(mask)
    joints = np.zeros((n, 6))
    joints[:, 0] = np.where(mask, 0.0, 1.0)
    return _program(np.cumsum(rng.uniform(0.01, 1.0, n)), joints)


def test_singularity_intervals_match_per_waypoint_oracle(monkeypatch):
    # manipulability reads joint 0, so eps 0.5 marks exactly the masked
    # waypoints low
    monkeypatch.setattr(cell, "manipulability_batch", lambda qs, dh: qs[:, 0])
    monkeypatch.setattr(branch_oracle, "manipulability_batch", lambda qs, dh, tcp: qs[:, 0])
    rng = np.random.RandomState(8)
    masks = [[], [False], [True], [True] * 7, [True, False, False, True],
             [True, False, True, False, True], [False, True, True, False]]
    masks += [rng.rand(rng.randint(1, 40)) < rng.choice([0.2, 0.5, 0.8]) for _ in range(200)]
    for mask in masks:
        program = _low_mask_program(np.array(mask, bool), rng)
        got = detect_singularity_traversal(program, CFG, eps=0.5)
        assert got == detect_singularity_per_node(program, CFG, eps=0.5)
        assert len(got) == np.count_nonzero(np.diff(np.r_[0, np.array(mask, int)]) == 1)
    program = _low_mask_program(np.ones(3, bool), rng)
    assert detect_singularity_traversal(program, CFG, eps=0.5) == [
        (program.times[0], program.times[-1])]


def test_singularity_crossing_matches_per_waypoint_oracle():
    program = synthetic_program(np.r_[np.linspace(-0.3, 0.3, 25), -1.2,
                                      np.linspace(0.2, -0.2, 9)])
    got = detect_singularity_traversal(program, CFG)
    assert len(got) == 2
    assert got == detect_singularity_per_node(program, CFG)


def _specimen_program(shape, material):
    cfg = replace(CFG, job=replace(CFG.job, shape=shape, material=material))
    job = pipeline.build_job(cfg, shape, pipeline.build_toolpath_from_shape(cfg, shape))
    sched = extrusion.schedule(job.local_path, job.flow, job.drive,
                               cfg.cell.reorient_rate_rad_s)
    return plan_trajectory(job.world_path, cfg, ENV, sched.events,
                           (("specimen", shape), ("material", material)))


SPECIMENS = [("rectangle-90x60", "dlp-gf50"), ("wall-50x10", "dlp-fs9"),
             ("square-30x30x8.5", "dlp-fs9")]


@pytest.mark.parametrize("shape, material", [("q5-crossing", None), *SPECIMENS])
def test_singularity_intervals_match_the_lu_oracle(shape, material):
    # the specimens' manipulability spans about 0.045 to 0.075; eps = 0.06
    # lies at least 4e-5 (relative) from every waypoint's
    program = (synthetic_program(np.linspace(-0.3, 0.3, 25)) if material is None
               else _specimen_program(shape, material))
    for eps in (None, 0.06):
        got = detect_singularity_traversal(program, CFG, eps)
        assert got == detect_singularity_per_node(program, CFG, eps)
        assert got or (eps is None and material is not None)


@pytest.mark.parametrize("shape, material", SPECIMENS)
def test_emit_matches_per_float_oracle(shape, material):
    program = _specimen_program(shape, material)
    assert_same_text(emit_program(program), emit_program_per_float(program))


def test_emit_formats_signed_zero_tiny_and_pi_like_the_oracle():
    values = [-0.0, 0.0, 1e-7, -1e-7, 5e-7, -5e-7, math.pi, -math.pi, 2.0 * math.pi,
              0.1234565, -0.1234565, 1e9]
    rng = np.random.RandomState(9)
    joints = rng.choice(values, (40, 6))
    program = RobotProgram(np.cumsum(rng.choice([0.0, 1e-7, 0.5], 40)), joints,
                           rng.choice(values, 40), (IOEvent(0.5, "uv", True),),
                           (("specimen", "x"),))
    text = emit_program(program)
    assert_same_text(text, emit_program_per_float(program))
    assert "-0.000000," in text and "3.141593," in text and "-3.141593" in text


def test_emit_empty_program():
    text = emit_program(_program([], []))
    lines = text.splitlines()
    assert lines[0].startswith("#")
    assert lines[-1] == "# end"
    assert all(l.startswith("#") for l in lines)


def test_emit_one_waypoint_one_event():
    program = _program([0.0], [(0, -1.57, 1.57, -1.57, -1.57, 0)],
                       (IOEvent(0.0, "extruder", True),))
    text = emit_program(program)
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(body) == 3
    assert body[0].startswith("movej ")
    assert body[1].startswith("set_digital_out ")
    assert body[2].startswith("stopj ")


def test_emit_refuses_failed_report():
    report = SimReport(specimen="x", material="y")
    report.reach_failures.append((0.0, 1.0, 2.0, 3.0))
    program = _program([0.0], [(0, 0, 0, 0, 0, 0)])
    with pytest.raises(PlanningError):
        emit_program(program, report)


def test_emit_deterministic():
    job = rectangle_world()
    p1 = plan_trajectory(job.world_path, CFG, ENV)
    p2 = plan_trajectory(job.world_path, CFG, ENV)
    assert emit_program(p1) == emit_program(p2)


def test_report_round_trip():
    """Every field of a report survives to_lines and from_text: the lines
    written again from the report read back are the original lines."""
    rep = SimReport(specimen="wall-50x10", material="dlp-fs9")
    rep.reach_failures.append((0.0, 990.75, 0.0, 0.85))
    # an integer time is written as a float
    rep.collisions += [(0.25, "table"), (1.75, "obstacle_0"), (2, "obstacle_1")]
    rep.jump_failures.append((0.243421, "configuration jump of 3.837 rad at "
                                        "(391.724, 0.000, 0.850)"))
    rep.singularity_warnings.append((1.5, 2.5))
    rep.dimensions = {"length_mm": 50.59, "height_mm": 10.36, "width_mm": math.nan}
    rep.min_alpha = 0.812345
    rep.min_dose_ratio = 0.96
    rep.extrusion_time_s = 145.5
    rep.total_volume_mm3 = 1234.5678
    rep.undercured_count = 2
    rep.undercured_worst = [(0.1, 1.0, 2.0, 0.85), (0.2, 3.0, 4.0, 0.85)]
    rep.notes += ["override: printed past the dose check", "a:b=c"]
    lines = rep.to_lines()
    again = SimReport.from_text("\n".join(lines))
    assert again.to_lines() == lines
    assert "printable=0" in lines and not again.printable
    assert again.specimen == rep.specimen and again.material == rep.material
    assert again.reach_failures == rep.reach_failures
    assert again.collisions == rep.collisions
    assert again.jump_failures == rep.jump_failures
    assert again.singularity_warnings == [(1.5, 2.5)]
    assert math.isnan(again.dimensions.pop("width_mm"))
    assert again.dimensions == pytest.approx({"length_mm": 50.59, "height_mm": 10.36})
    assert again.undercured_worst == rep.undercured_worst
    assert again.notes == rep.notes
    assert (again.min_alpha, again.total_volume_mm3) == (0.812345, 1234.5678)
    with pytest.raises(ValueError):
        SimReport.from_text("not a report")


# report text: anything but a line boundary, spaces, tabs, ':' and '=' often
_TEXT = st.text(st.one_of(st.sampled_from(" \t:="),
                          st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"))),
                max_size=12)
_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_POINTS = st.lists(st.tuples(_FLOAT, _FLOAT, _FLOAT, _FLOAT), max_size=3)


@st.composite
def _reports(draw) -> SimReport:
    worst = draw(_POINTS)
    return SimReport(
        specimen=draw(_TEXT), material=draw(_TEXT), reach_failures=draw(_POINTS),
        collisions=draw(st.lists(st.tuples(_FLOAT, _TEXT), max_size=3)),
        jump_failures=draw(st.lists(st.tuples(_FLOAT, _TEXT), max_size=3)),
        singularity_warnings=draw(st.lists(st.tuples(_FLOAT, _FLOAT), max_size=3)),
        undercured_count=len(worst) + draw(st.integers(0, 3)), undercured_worst=worst,
        min_alpha=draw(_FLOAT), min_dose_ratio=draw(_FLOAT),
        dimensions=draw(st.dictionaries(st.sampled_from(
            ["length_mm", "width_mm", "height_mm", "line_width_mm"]), _FLOAT)),
        extrusion_time_s=draw(_FLOAT), total_volume_mm3=draw(_FLOAT),
        notes=draw(st.lists(_TEXT, max_size=3)))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(rep=_reports())
def test_report_lines_read_back_are_the_lines_written(rep):
    """to_lines, from_text, to_lines is the identity: a value keeps its
    edge spaces, and ':' and '=' in a text field stay in it."""
    lines = rep.to_lines()
    assert SimReport.from_text("\n".join(lines)).to_lines() == lines


def _plan_outcome(plan, path, cfg):
    try:
        program = plan(path, cfg)
    except PlanningError as err:
        return ("error", str(err), err.time_s, err.kind, err.position)
    return tuple(c.view(np.int64).tolist() for c in (program.times, program.joints,
                                                     program.speeds))


def _wall_path(cfg, shape="wall-50x10"):
    local = pipeline.build_toolpath_from_shape(cfg, shape)
    return pipeline.build_job(cfg, shape, local).world_path


def _zigzag_path():
    """Moves with a zero-length and a 2e-12 mm segment (nodes within 1e-12 s
    of the one before, which add no waypoint) and yaw turns between them."""
    p = [Vec3(380.0, -20.0, 2.0), Vec3(420.0, -20.0, 2.0), Vec3(420.0, -20.0, 2.0),
         Vec3(420.0, 20.0, 2.0), Vec3(420.0, 20.0 + 2e-12, 2.0), Vec3(380.0, 20.0, 2.0)]
    yaws = [0.0, 0.0, 2.5, 2.5, -2.9]
    return columns(Segment(a, b, 4.0, True, True, 0, yaw) for a, b, yaw in zip(p, p[1:], yaws))


def test_a_node_within_1e_12_s_after_the_node_before_adds_no_waypoint():
    # two 6e-13 s moves: their second end lies 1.2e-12 s after the last
    # waypoint, but only 6e-13 s after the node before it
    p = [Vec3(380.0, -20.0, 2.0), Vec3(420.0, -20.0, 2.0), Vec3(420.0, -20.0, 2.0 + 6e-10),
         Vec3(420.0, -20.0, 2.0 + 1.2e-9), Vec3(420.0, 20.0, 2.0)]
    path = columns(Segment(a, b, v, True, True, 0)
                   for a, b, v in zip(p, p[1:], (4.0, 1e3, 1e3, 4.0)))
    times = _plan_nodes(path, CFG)[0]
    assert 0.0 < times[2] - times[1] < 1e-12 and 0.0 < times[3] - times[2] < 1e-12
    assert times[3] - times[1] > 1e-12
    program = plan_trajectory(path, CFG, ENV)
    assert program.times.tolist() == times[[0, 1, 4]].tolist()


def _kin(**kw):
    return replace(CFG, kinematics=replace(CFG.kinematics, **kw))


def _cell(**kw):
    return replace(CFG, cell=replace(CFG.cell, **kw))


@functools.cache
def _oracle_case(case):
    """The path and config of a planner case and its per-node plan outcome;
    the oracle's outcome does not depend on the IK chunk size, so it is
    worked out once per case."""
    path, cfg = {
        "rectangle": lambda: (rectangle_world().world_path, CFG),
        "wall-limit-3": lambda: (_wall_path(CFG), _kin(joint_limit_rad=3.0)),
        # the planner moves the targets along the tool axis; the oracle
        # inverts the offset as a 4x4 pose
        "wall-tcp-0": lambda: (_wall_path(CFG), _kin(tcp_offset_z_mm=0.0)),
        "wall-tcp-250": lambda: (_wall_path(CFG), _kin(tcp_offset_z_mm=250.0)),
        "wall-tcp-minus-50": lambda: (_wall_path(CFG), _kin(tcp_offset_z_mm=-50.0)),
        "square": lambda: (_wall_path(CFG, "square-30x30x8.5"), CFG),
        "zigzag": lambda: (_zigzag_path(), CFG),
        "unreachable": lambda: (_wall_path(_cell(origin_x_mm=1000.0)), CFG),
        # reachable up to the wall's far end (t ~ 9.90 s): the branch choice
        # stops mid-path at a node with no kept candidate
        "unreachable-far-end": lambda: (_wall_path(_cell(origin_x_mm=900.0)), CFG),
        "jump": lambda: (_wall_path(CFG), _kin(joint_limit_rad=2.0)),
        "joint-speed": lambda: (_wall_path(CFG), _cell(max_joint_speed_rad_s=0.05)),
    }[case]()
    return path, cfg, _plan_outcome(plan_per_node, path, cfg)


# chunk boundaries must not matter; one node per chunk puts every node
# first in its chunk, and the production size plans each case but the
# square in one chunk
@pytest.mark.parametrize("case, chunk", [
    *((case, chunk) for chunk in (64, 512, IK_CHUNK_NODES)
      for case in ("rectangle", "wall-limit-3", "wall-tcp-0", "wall-tcp-250",
                   "wall-tcp-minus-50", "square", "zigzag", "unreachable",
                   "unreachable-far-end", "jump", "joint-speed")),
    *((case, chunk) for case in ("rectangle", "zigzag", "unreachable", "unreachable-far-end",
                                 "jump")
      for chunk in (1, 7))])
def test_plan_matches_per_node_oracle(case, chunk, monkeypatch):
    monkeypatch.setattr(cell, "IK_CHUNK_NODES", chunk)
    calls = []
    real = cell._branch_columns
    monkeypatch.setattr(cell, "_branch_columns",
                        lambda t06, dh: calls.append(1) or real(t06, dh))
    path, cfg, want = _oracle_case(case)
    got = _plan_outcome(lambda p, c: plan_trajectory(p, c, ENV), path, cfg)
    assert got == want
    kind = {"unreachable": "unreachable", "unreachable-far-end": "unreachable", "jump": "jump",
            "joint-speed": "limit"}.get(case)
    assert (got[0] == "error" and got[3] == kind) if kind else len(got[0]) > 10
    # the planner solves a chunk of `chunk` nodes a call, up to the chunk
    # of the node where it fails
    times, pos = _plan_nodes(path, cfg)[:2]
    n = len(times)
    if kind in ("unreachable", "jump"):
        at = got[4]
        n = 1 + np.flatnonzero((times == got[2]) & (pos == (at.x, at.y, at.z)).all(axis=1))[0]
    assert len(calls) == -(-n // chunk)
    if case == "zigzag":
        assert len(got[0]) < len(times)


# traced heap peak of planning wall-50x10 alone: 1095 KB in one 1536-node
# chunk with branch-major columns (Python 3.11, numpy 2.4), 1126 KB with
# node-major ones, against 1339 KB in three 512-node chunks before the
# candidate columns were made compact.  numpy's temporaries, and
# so the traced peak, move with its version, so the bound holds on the
# numpy it was measured on and is to be re-measured for another.
WALL_PLAN_PEAK_KB = 1250
WALL_PLAN_PEAK_NUMPY = (2, 4)


def test_wall_plans_in_one_chunk_within_its_heap_bound(monkeypatch):
    """wall-50x10 plans in one IK chunk, and the heap that planning it
    allocates (tracemalloc) peaks below WALL_PLAN_PEAK_KB on the numpy
    that bound was measured on."""
    path = _wall_path(CFG)
    plan_trajectory(path, CFG, ENV)  # first-call caches stay out of the peak
    chunks = []
    real = cell._branch_columns
    monkeypatch.setattr(cell, "_branch_columns",
                        lambda t06, dh: chunks.append(len(t06)) or real(t06, dh))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plan_trajectory(path, CFG, ENV)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert chunks == [len(_plan_nodes(path, CFG)[0])]
    if tuple(int(v) for v in np.__version__.split(".")[:2]) != WALL_PLAN_PEAK_NUMPY:
        pytest.skip(f"WALL_PLAN_PEAK_KB was measured on numpy {WALL_PLAN_PEAK_NUMPY}, "
                    f"not {np.__version__}")
    assert peak < WALL_PLAN_PEAK_KB * 1024, peak / 1024


def test_chain_stops_just_after_the_first_jump(monkeypatch):
    """At a 2 rad joint limit the wall's second node jumps, and every
    node after it settles in a round of its own.  With the planner's
    max_step, select_chain ends the chain just after that node in one
    round, with the bits of the chain run without it."""
    cfg = _kin(joint_limit_rad=2.0)
    dh = DHParams.from_config(cfg.kinematics)
    times, _, _, t06 = _plan_nodes(_wall_path(cfg), cfg)
    added = np.r_[True, np.diff(times) > 1e-12]
    # the planner's flange targets
    t06[:, :, 3] = cell._along_tool_axis(t06, -cfg.kinematics.tcp_offset_z_mm)
    rounds = []
    real = kinematics._guessed_prev
    monkeypatch.setattr(kinematics, "_guessed_prev",
                        lambda *args: rounds.append(1) or real(*args))

    def chain(n, max_step):
        rounds.clear()
        with np.errstate(divide="ignore", invalid="ignore"):
            cands = kinematics._branch_columns(t06[:n], dh)
        return kinematics.select_chain(cands, t06[:n], dh, np.array(cfg_home()), None,
                                       cfg.kinematics.joint_limit_rad, added[:n], max_step)

    got = chain(len(t06), cell.MAX_JOINT_STEP_RAD)
    assert len(got[0]) == 2 and got[1][1] > cell.MAX_JOINT_STEP_RAD
    assert len(rounds) == 1
    whole = chain(64, math.inf)  # without the stop, a round a node
    assert len(rounds) == 63
    for a, b in zip(got, whole):
        assert (a.view(np.int64) == b[:2].view(np.int64)).all()


# nearest_branch calls of one plan and the nodes they choose: only the
# path's first node, which continues from home, takes the full path; every
# other node settles on the branch of the node it continues from, across
# IK chunks too.
@pytest.mark.parametrize("shape", ["wall-50x10", "square-30x30x8.5"])
def test_branch_choice_makes_one_pass_per_round(shape, monkeypatch):
    count = []
    real = kinematics.nearest_branch

    def counted(rows, *args):
        count.append(len(rows))
        return real(rows, *args)

    monkeypatch.setattr(kinematics, "nearest_branch", counted)
    plan_trajectory(_wall_path(CFG, shape), CFG, ENV)
    assert count == [1]  # one call, choosing one node


def _speed_outcome(program, limit):
    for check in (RobotProgram.validate_speeds, validate_speeds_per_node):
        try:
            check(program, limit)
        except PlanningError as err:
            yield (str(err), err.time_s, err.kind)
        else:
            yield None


def test_validate_speeds_reports_the_first_offender():
    rng = np.random.RandomState(16)
    seen = set()
    for _ in range(200):
        n = rng.randint(1, 12)
        times = np.cumsum(rng.choice([0.5, 0.5, 0.5, 0.0, -0.1], n))
        qs = np.cumsum(rng.normal(0.0, rng.choice([0.1, 1.0]), (n, 6)), axis=0)
        program = _program(times, qs)
        got, want = _speed_outcome(program, 1.5)
        assert got == want
        seen.add(got[2] if got else None)
    assert seen == {None, "unreachable", "limit"}  # a time error has the default kind

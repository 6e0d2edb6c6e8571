import math
from dataclasses import replace

import numpy as np
import pytest

from ramcell import pipeline
from ramcell.cell import (TOOL_DOWN, Aabb, CellEnvironment, PlanningError,
                          RobotProgram, SimReport, cfg_home, check_collisions,
                          detect_singularity_traversal, emit_program,
                          plan_trajectory)
from ramcell.config import default_config
from ramcell.extrusion import IOEvent
from ramcell.geometry import Pose, Rotation, Vec3
from ramcell.kinematics import DHParams, JointConfig, fk, ik, select_branch
from ramcell.toolpath import Toolpath

CFG = default_config()
ENV = CellEnvironment.from_config(CFG.cell)
DH = DHParams.from_config(CFG.kinematics)
TCP = Pose(Vec3(0.0, 0.0, CFG.kinematics.tcp_offset_z_mm), Rotation.identity())


def rectangle_world():
    local = pipeline.build_toolpath_from_shape(CFG, "rectangle-90x60")
    job = pipeline.build_job(CFG, "rectangle-90x60", local)
    return job


def test_plan_rectangle_at_desk_scale():
    job = rectangle_world()
    program = plan_trajectory(job.world_path, CFG, ENV)
    assert len(program.waypoints) > 300
    # nozzle path stays on the commanded polyline
    poly = [(s.start, s.end) for s in job.world_path.segments]
    for _, q in program.waypoints[:: 25]:
        p = fk(q, DH, TCP).position
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
    checked = 0
    for ((t0, q0), (t1, q1), v) in zip(program.waypoints, program.waypoints[1:],
                                       program.speeds[1:]):
        if v != 4.0:
            continue
        p0 = fk(q0, DH, TCP).position
        p1 = fk(q1, DH, TCP).position
        measured = (p1 - p0).norm() / (t1 - t0)
        assert abs(measured - v) / v < 0.01
        checked += 1
    assert checked > 100


def test_branch_continuity_along_path():
    job = rectangle_world()
    program = plan_trajectory(job.world_path, CFG, ENV)
    moves = list(zip(program.waypoints, program.speeds))
    checked = 0
    for ((_, q0), _), ((_, q1), v1) in zip(moves, moves[1:]):
        if v1 == 0.0:
            continue  # dwell steps reorient the wrist on purpose
        assert q0.max_distance(q1) < 0.1
        checked += 1
    assert checked > 400


def test_plan_unreachable_far_origin():
    cfg = replace(CFG, cell=replace(CFG.cell, origin_x_mm=1200.0))
    local = pipeline.build_toolpath_from_shape(cfg, "rectangle-90x60")
    job = pipeline.build_job(cfg, "rectangle-90x60", local)
    with pytest.raises(PlanningError) as err:
        plan_trajectory(job.world_path, cfg, ENV)
    assert err.value.position is not None
    assert err.value.position.x > 1000.0


def test_plan_empty_path():
    program = plan_trajectory(Toolpath(()), CFG, ENV)
    assert program.waypoints == ()


def test_collision_tcp_below_table():
    q_ok = plan_trajectory(rectangle_world().world_path, CFG, ENV).waypoints[0][1]
    pose = fk(q_ok, DH, TCP)
    # command the same xy but 5 mm below the table
    from ramcell.kinematics import ik, select_branch
    target = Pose(Vec3(pose.position.x, pose.position.y, -5.0), pose.orientation)
    q_bad = select_branch(ik(target, DH, TCP), q_ok)
    program = RobotProgram(((0.0, q_ok), (10.0, q_bad)), (0.0, 1.0))
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
        wps.append((frac * duration, prev))
    return RobotProgram(tuple(wps), tuple(0.0 for _ in wps))


def _brute_force_first_contacts(program, env, dt, axis_points=501):
    """First sample time per obstacle at which any of a dense set of points
    on the capsule axis comes within the capsule radius of the box."""
    times = np.array([t for t, _ in program.waypoints])
    lo_end, hi_end = [], []
    for _, q in program.waypoints:
        pose = fk(q, DH, TCP)
        up = pose.orientation.rotate(Vec3(0.0, 0.0, -1.0))
        lo_end.append((pose.position + up * env.capsule_clearance_mm).to_array())
        hi_end.append((pose.position + up * (env.capsule_clearance_mm
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


def synthetic_program(q5_values, dt=0.5):
    wps = []
    for i, q5 in enumerate(q5_values):
        wps.append((i * dt, JointConfig.of(0.3, -1.2, 1.8, -0.9, q5, 0.7)))
    return RobotProgram(tuple(wps), tuple(0.0 for _ in wps))


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


def test_emit_empty_program():
    text = emit_program(RobotProgram((), ()))
    lines = text.splitlines()
    assert lines[0].startswith("#")
    assert lines[-1] == "# end"
    assert all(l.startswith("#") for l in lines)


def test_emit_one_waypoint_one_event():
    program = RobotProgram(
        ((0.0, JointConfig.of(0, -1.57, 1.57, -1.57, -1.57, 0)),),
        (0.0,),
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
    program = RobotProgram(((0.0, JointConfig.of(0, 0, 0, 0, 0, 0)),), (0.0,))
    with pytest.raises(PlanningError):
        emit_program(program, report)


def test_emit_deterministic():
    job = rectangle_world()
    p1 = plan_trajectory(job.world_path, CFG, ENV)
    p2 = plan_trajectory(job.world_path, CFG, ENV)
    assert emit_program(p1) == emit_program(p2)


def test_report_round_trip():
    rep = SimReport(specimen="wall-50x10", material="dlp-fs9")
    rep.singularity_warnings.append((1.5, 2.5))
    rep.dimensions = {"length_mm": 50.59, "height_mm": 10.36}
    rep.min_dose_ratio = 0.96
    rep.extrusion_time_s = 145.5
    rep.undercured_count = 2
    rep.undercured_worst = [(0.1, 1.0, 2.0, 0.85), (0.2, 3.0, 4.0, 0.85)]
    text = "\n".join(rep.to_lines())
    again = SimReport.from_text(text)
    assert again.specimen == rep.specimen
    assert again.singularity_warnings == [(1.5, 2.5)]
    assert again.dimensions == pytest.approx(rep.dimensions)
    assert again.undercured_worst == rep.undercured_worst
    assert again.printable == rep.printable
    with pytest.raises(ValueError):
        SimReport.from_text("not a report")

import math

import numpy as np
import pytest

from ramcell.config import default_config
from ramcell.extrusion import (DriveTrain, ExtrusionError, FlowModel,
                               InfeasibleDriveError, IOEvent, Nozzle,
                               StepSchedule, bead_area, drive_feasibility,
                               schedule, step_rate)
from ramcell.geometry import Vec3
from ramcell.shapes import generate
from ramcell.toolpath import (ExtensionPolicy, Segment, Toolpath,
                              add_cure_extensions, assign_orientations,
                              path_stats)

DRIVE = DriveTrain()
FLOW = FlowModel()


def test_bead_area_flat_speed():
    assert bead_area(5.3, 3.0) == pytest.approx(1.7667, abs=1e-4)


def test_bead_area_matches_nozzle_cross_section():
    # the published flow and travel speed reproduce the nozzle bore to 0.5%
    area = bead_area(5.3, 3.0)
    nozzle = Nozzle().area_mm2()
    assert abs(area - nozzle) / nozzle < 0.005


def test_bead_area_stacked_speed():
    assert bead_area(5.3, 4.0) == pytest.approx(1.325, abs=1e-6)


def test_bead_area_rejects_bad_speed():
    with pytest.raises(ExtrusionError):
        bead_area(5.3, 0.0)
    with pytest.raises(ExtrusionError):
        bead_area(5.3, -1.0)


def test_bead_area_conserves_flow():
    rng = np.random.RandomState(41)
    for _ in range(200):
        q = float(rng.uniform(0.1, 20.0))
        v = float(rng.uniform(0.1, 50.0))
        assert bead_area(q, v) * v == pytest.approx(q, rel=1e-12)


def test_step_rate_reference_value():
    # plunger speed 5.3/1256.64 mm/s times 200 steps/mm
    assert step_rate(5.3, DRIVE) == pytest.approx(0.8435, abs=1e-4)


def test_step_rate_zero_and_linear():
    assert step_rate(0.0, DRIVE) == 0.0
    assert step_rate(10.6, DRIVE) == pytest.approx(2 * step_rate(5.3, DRIVE), rel=1e-12)


def test_drivetrain_capacity_consistency_enforced():
    with pytest.raises(ExtrusionError):
        DriveTrain(plunger_travel_mm=60.0)


def oriented_rectangle():
    corners = [(0, 0, 0.85), (90, 0, 0.85), (90, 60, 0.85), (0, 60, 0.85)]
    segs = [Segment(Vec3(*a), Vec3(*b), 3.0, True, True, 1)
            for a, b in zip(corners, corners[1:] + corners[:1])]
    return assign_orientations(Toolpath(tuple(segs)))


def test_schedule_rectangle_volume():
    sched = schedule(oriented_rectangle(), FLOW, DRIVE)
    volume = sched.total_steps() * DRIVE.volume_per_step_mm3()
    assert volume == pytest.approx(530.0, rel=1e-3)
    stats = path_stats(oriented_rectangle())
    assert volume == pytest.approx(FLOW.q_mm3_s * stats["extrusion_time"], rel=1e-6)


def test_schedule_no_extrusion_only_uv_events():
    path = assign_orientations(Toolpath((
        Segment(Vec3(0, 0, 0), Vec3(25, 0, 0), 3.0, False, True, 0),
    )))
    sched = schedule(path, FLOW, DRIVE)
    assert sched.total_steps() == 0.0
    channels = {e.channel for e in sched.events}
    assert channels == {"uv"}


def test_schedule_rate_independent_of_speed():
    segs = [
        Segment(Vec3(0, 0, 0), Vec3(30, 0, 0), 3.0, True, True, 0),
        Segment(Vec3(30, 0, 0), Vec3(60, 0, 0), 4.0, True, True, 0),
    ]
    path = assign_orientations(Toolpath(tuple(segs)))
    sched = schedule(path, FLOW, DRIVE)
    rate = step_rate(FLOW.q_mm3_s, DRIVE)
    # cumulative steps rise at one constant rate through both segments,
    # so the two ramps merge into a single breakpoint pair
    times = [t for t, _ in sched.breakpoints]
    steps = [s for _, s in sched.breakpoints]
    t2 = 10.0 + 7.5
    assert float(np.interp(10.0, times, steps)) == pytest.approx(rate * 10.0, rel=1e-9)
    assert float(np.interp(t2, times, steps)) == pytest.approx(rate * t2, rel=1e-9)
    assert len(sched.breakpoints) == 2


def test_schedule_respects_motor_limit():
    weak = DriveTrain(max_step_rate_hz=0.1)
    with pytest.raises(ExtrusionError):
        schedule(oriented_rectangle(), FLOW, weak)


def test_schedule_events_well_formed():
    path = assign_orientations(add_cure_extensions(
        generate("rectangle-90x60", 3.0, 4.0, 0.85, 1.5), ExtensionPolicy(25.0)))
    sched = schedule(path, FLOW, DRIVE)
    times = [t for t, _ in sched.breakpoints]
    assert times == sorted(times)
    steps = [s for _, s in sched.breakpoints]
    assert all(b >= a - 1e-12 for a, b in zip(steps, steps[1:]))
    # extruder on/off counts balance (validated by the constructor too)
    ons = sum(1 for e in sched.events if e.channel == "extruder" and e.on)
    offs = sum(1 for e in sched.events if e.channel == "extruder" and not e.on)
    assert ons == offs > 0


def test_step_count_between_events_matches_rate():
    path = assign_orientations(add_cure_extensions(
        generate("rectangle-90x60", 3.0, 4.0, 0.85, 1.5), ExtensionPolicy(25.0)))
    sched = schedule(path, FLOW, DRIVE)
    rate = step_rate(FLOW.q_mm3_s, DRIVE)
    times = np.array([t for t, _ in sched.breakpoints])
    steps = np.array([s for _, s in sched.breakpoints])
    ext_state = False
    for ev in sched.events:
        if ev.channel != "extruder":
            continue
        if not ev.on and ext_state:
            pass
        ext_state = ev.on
    # between consecutive breakpoints the slope is either 0 or the rate
    slopes = np.diff(steps) / np.diff(times)
    for s in slopes:
        assert abs(s) < 1e-9 or abs(s - rate) < 1e-9


def test_schedule_invariants_enforced():
    with pytest.raises(ExtrusionError):
        StepSchedule(((0.0, 0.0), (0.0, 1.0)), ())
    with pytest.raises(ExtrusionError):
        StepSchedule(((0.0, 1.0), (1.0, 0.0)), ())
    with pytest.raises(ExtrusionError):
        StepSchedule((), (IOEvent(0.0, "extruder", True),))


def test_csv_lines_format():
    sched = schedule(oriented_rectangle(), FLOW, DRIVE)
    lines = sched.csv_lines()
    assert lines[0] == "time_s,cumulative_steps"
    assert all(len(l.split(",")) == 2 for l in lines[1:])
    ev = sched.event_lines()
    assert ev[0] == "time_s,channel,state"


def test_schedule_golden_files():
    from pathlib import Path
    from ramcell import pipeline
    from ramcell.config import default_config
    from dataclasses import replace as dc_replace
    cfg = default_config()
    cfg = dc_replace(cfg, job=dc_replace(cfg.job, shape="rectangle-90x60",
                                         material="dlp-gf50"))
    local = pipeline.build_toolpath_from_shape(cfg, "rectangle-90x60")
    job = pipeline.build_job(cfg, "rectangle-90x60", local)
    sched = schedule(job.local_path, job.flow, job.drive,
                     cfg.cell.reorient_rate_rad_s)
    golden = Path(__file__).parent / "golden"
    assert "\n".join(sched.csv_lines()) + "\n" == \
        (golden / "rectangle-90x60.steps.csv").read_text()
    assert "\n".join(sched.event_lines()) + "\n" == \
        (golden / "rectangle-90x60.io.csv").read_text()


def test_drive_feasibility_reference_values():
    out = drive_feasibility(10.0, Nozzle(), DRIVE, FLOW)
    # Poiseuille with mu=10, land 10mm, Q=5.3mm^3/s, r=0.75mm in SI units
    assert out["pressure_pa"] == pytest.approx(4265.5, rel=1e-3)
    assert out["plunger_force_n"] == pytest.approx(5.36, rel=1e-2)
    assert out["required_torque_nm"] == pytest.approx(0.01365, rel=1e-2)
    assert out["margin"] > 100.0


def test_drive_feasibility_zero_viscosity():
    out = drive_feasibility(0.0, Nozzle(), DRIVE, FLOW)
    assert out["required_torque_nm"] == 0.0
    assert out["margin"] == math.inf


def test_drive_feasibility_linear_in_viscosity():
    t1 = drive_feasibility(5.0, Nozzle(), DRIVE, FLOW)["required_torque_nm"]
    t2 = drive_feasibility(10.0, Nozzle(), DRIVE, FLOW)["required_torque_nm"]
    assert t2 == pytest.approx(2 * t1, rel=1e-12)


def test_drive_feasibility_infeasible_raises_with_torque():
    with pytest.raises(InfeasibleDriveError) as err:
        drive_feasibility(2000.0, Nozzle(), DRIVE, FLOW)
    assert err.value.result["required_torque_nm"] > DRIVE.rated_torque_nm
    assert err.value.result["margin"] < 1.0

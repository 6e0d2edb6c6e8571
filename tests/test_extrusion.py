import numpy as np
import pytest

from toolpath_oracle import from_segments
from ramcell import pipeline
from ramcell.config import ConfigError, default_config, loads_config
from ramcell.extrusion import (ExtrusionError, FlowModel, IOEvent, Nozzle, StepSchedule,
                               bead_area, schedule)
from ramcell.gcode import parse, to_toolpath
from ramcell.geometry import Vec3
from ramcell.shapes import generate
from ramcell.toolpath import (ExtensionPolicy, Segment, add_cure_extensions,
                              assign_orientations, path_stats, time_profile)

DRIVE = default_config().drivetrain
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
    assert DRIVE.step_rate(5.3) == pytest.approx(0.8435, abs=1e-4)


def test_step_rate_zero_and_linear():
    assert DRIVE.step_rate(0.0) == 0.0
    assert DRIVE.step_rate(10.6) == pytest.approx(2 * DRIVE.step_rate(5.3), rel=1e-12)


def test_drivetrain_capacity_consistency_enforced():
    for key, value in (("plunger_travel_mm", "60"), ("syringe_capacity_ml", "100")):
        with pytest.raises(ConfigError, match=r"\[drivetrain\] syringe_capacity_ml must be "
                                              r"within 5% of plunger_travel_mm x bore area"):
            loads_config(f"[drivetrain]\n{key} = {value}\n")


def oriented_rectangle():
    corners = [(0, 0, 0.85), (90, 0, 0.85), (90, 60, 0.85), (0, 60, 0.85)]
    segs = [Segment(Vec3(*a), Vec3(*b), 3.0, True, True, 1)
            for a, b in zip(corners, corners[1:] + corners[:1])]
    return assign_orientations(from_segments(tuple(segs)))


def test_schedule_rectangle_volume():
    sched = schedule(oriented_rectangle(), FLOW, DRIVE)
    volume = sched.breakpoints[-1][1] * (DRIVE.bore_area_mm2() / DRIVE.steps_per_mm())
    assert volume == pytest.approx(530.0, rel=1e-3)
    stats = path_stats(oriented_rectangle())
    assert volume == pytest.approx(FLOW.q_mm3_s * stats["extrusion_time"], rel=1e-6)


def test_schedule_no_extrusion_only_uv_events():
    path = assign_orientations(from_segments((
        Segment(Vec3(0, 0, 0), Vec3(25, 0, 0), 3.0, False, True, 0),
    )))
    sched = schedule(path, FLOW, DRIVE)
    assert sched.breakpoints[-1][1] == 0.0
    channels = {e.channel for e in sched.events}
    assert channels == {"uv"}


def test_schedule_rate_independent_of_speed():
    segs = [
        Segment(Vec3(0, 0, 0), Vec3(30, 0, 0), 3.0, True, True, 0),
        Segment(Vec3(30, 0, 0), Vec3(60, 0, 0), 4.0, True, True, 0),
    ]
    path = assign_orientations(from_segments(tuple(segs)))
    sched = schedule(path, FLOW, DRIVE)
    rate = DRIVE.step_rate(FLOW.q_mm3_s)
    # cumulative steps rise at one constant rate through both segments,
    # and the extruder never switches between them, so the only knots are
    # the start and the end
    times = [t for t, _ in sched.breakpoints]
    steps = [s for _, s in sched.breakpoints]
    t2 = 10.0 + 7.5
    assert float(np.interp(10.0, times, steps)) == pytest.approx(rate * 10.0, rel=1e-9)
    assert float(np.interp(t2, times, steps)) == pytest.approx(rate * t2, rel=1e-9)
    assert len(sched.breakpoints) == 2


def test_schedule_respects_motor_limit():
    # the rate is checked once, at load, so no schedule runs past the motor
    with pytest.raises(ConfigError, match=r"\[extrusion\] flow_mm3_s needs a step rate of "
                                          r"0\.844/s, more than \[drivetrain\] max_step_rate_hz"):
        loads_config("[drivetrain]\nmax_step_rate_hz = 0.1\n")


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
    rate = DRIVE.step_rate(FLOW.q_mm3_s)
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


def _assert_knots_at_switches(sched, path, rate):
    """The knots are (0, 0), the extruder switches and the end; the curve
    rises at the step rate from each switch-on to the next knot and is
    flat from every other knot."""
    switches = [e.time_s for e in sched.events if e.channel == "extruder"]
    ons = {e.time_s for e in sched.events if e.channel == "extruder" and e.on}
    end = float(time_profile(path)[-1].t1)
    assert sched.breakpoints[0] == (0.0, 0.0)
    assert [t for t, _ in sched.breakpoints] == sorted({0.0, *switches, end})
    for (t0, s0), (t1, s1) in zip(sched.breakpoints, sched.breakpoints[1:]):
        if t0 in ons:
            assert s1 - s0 == pytest.approx(rate * (t1 - t0), rel=1e-9)
        else:
            assert s1 == s0


def test_knots_of_a_run_with_a_sub_nanosecond_move_are_its_switches():
    # the 1e-4 mm move at 1e7 mm/min takes 6e-10 s right after a switch-on
    text = ("G1 F240\nM42 P2 S1\nM106\nG1 X10\nG1 X10 Y2\nG1 X10.0001 Y2 F1e7\n"
            "G1 X15 Y2 F240\nM107\n")
    path = assign_orientations(to_toolpath(parse(text)))
    sched = schedule(path, FLOW, DRIVE)
    _assert_knots_at_switches(sched, path, DRIVE.step_rate(FLOW.q_mm3_s))
    assert len(sched.breakpoints) == 6
    assert sched.breakpoints[4][0] == pytest.approx(6.141593, abs=1e-6)


def test_knots_at_a_step_rate_below_1e_9_per_s_keep_every_pause():
    cfg = default_config()
    local = pipeline.build_toolpath_from_shape(cfg, "rectangle-90x60")
    path = pipeline.build_job(cfg, "rectangle-90x60", local).local_path
    flow = FlowModel(1e-9)
    sched = schedule(path, flow, DRIVE)
    _assert_knots_at_switches(sched, path, DRIVE.step_rate(flow.q_mm3_s))
    assert len(sched.breakpoints) == 9


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



def test_plan_golden_files(tmp_path, monkeypatch):
    """The g-code and path dump that `plan` writes for rectangle-90x60."""
    from pathlib import Path
    from ramcell.cli import main
    monkeypatch.delenv("RAMCELL_CONFIG", raising=False)
    assert main(["plan", "--shape", "rectangle-90x60", "--out", str(tmp_path)]) == 0
    golden = Path(__file__).parent / "golden"
    for name in ("rectangle-90x60.gcode", "rectangle-90x60.path.txt"):
        assert (tmp_path / name).read_text() == (golden / name).read_text(), name

import math
from dataclasses import replace

import numpy as np
import pytest

from ramcell import pipeline
from ramcell.config import Material, default_config
from ramcell.cure import (CureError, DepositionMap, UVSpot, accumulate_dose,
                          deposit, flag_undercured, gel_dose, predict_dimensions,
                          spread, update_cure)
from ramcell.extrusion import FlowModel
from ramcell.geometry import Vec3
from ramcell.shapes import generate
from ramcell.toolpath import (ExtensionPolicy, Segment, Toolpath,
                              add_cure_extensions, assign_orientations,
                              resample, time_profile)

CFG = default_config()
FLOW = FlowModel()
SPOT = UVSpot.from_config(CFG.uv)
FS9 = CFG.materials["dlp-fs9"]
GF0 = CFG.materials["dlp-gf0"]


def line_path(length=50.0, speed=4.0, lead=25.0, z=0.85):
    path = Toolpath((Segment(Vec3(0, 0, z), Vec3(length, 0, z), speed,
                             True, True, 1),))
    if lead > 0:
        path = add_cure_extensions(path, ExtensionPolicy(lead))
    return resample(assign_orientations(path), 1.0)


def rectangle_path(lead=25.0):
    path = generate("rectangle-90x60", 3.0, 4.0, 0.85, 1.5)
    if lead > 0:
        path = add_cure_extensions(path, ExtensionPolicy(lead))
    return resample(assign_orientations(path), 1.0)


def run_dose(path, material):
    dmap = deposit(path, FLOW, material, 1.0, 0.85, CFG.cure.bead_aspect)
    accumulate_dose(dmap, path, SPOT, CFG.cure.sweep_dt_s)
    return dmap


def test_spot_geometry():
    assert SPOT.footprint_radius_mm() == pytest.approx(
        15.0 * math.tan(math.radians(24.0)))
    assert SPOT.irradiance_w_mm2() == pytest.approx(
        3.0 / (math.pi * SPOT.footprint_radius_mm() ** 2))
    with pytest.raises(CureError):
        UVSpot(standoff_mm=0.0)


def test_deposit_rectangle_counts_and_volume():
    dmap = deposit(rectangle_path(), FLOW, FS9, 1.0, 0.85)
    assert len(dmap) == 300
    assert dmap.total_volume() == pytest.approx(530.0, rel=1e-9)


def test_deposit_nothing_without_extrusion():
    path = assign_orientations(Toolpath((
        Segment(Vec3(0, 0, 0), Vec3(10, 0, 0), 3.0, False, True, 0),)))
    dmap = deposit(resample(path, 1.0), FLOW, FS9, 1.0, 0.85)
    assert len(dmap) == 0


def test_deposit_element_volume_conservation():
    dmap = deposit(line_path(), FLOW, FS9, 1.0, 0.85)
    for i in range(len(dmap)):
        e = dmap.element(i)
        expected = FLOW.q_mm3_s * e.length_mm / 4.0
        assert e.volume_mm3 == pytest.approx(expected, rel=1e-12)
        assert e.width0_mm * e.height_mm * e.length_mm == pytest.approx(
            e.volume_mm3, rel=1e-9)


def test_deposit_requires_fine_resampling():
    path = assign_orientations(Toolpath((
        Segment(Vec3(0, 0, 0), Vec3(10, 0, 0), 3.0, True, True, 0),)))
    with pytest.raises(CureError):
        deposit(path, FLOW, FS9, 1.0, 0.85)


def test_interior_dose_matches_swept_footprint_integral():
    dmap = run_dose(line_path(), FS9)
    # an interior element sees the full footprint chord: 2R/v seconds
    expected = SPOT.irradiance_w_mm2() * 2 * SPOT.footprint_radius_mm() / 4.0
    interior = dmap.dose[len(dmap) // 2]
    assert interior == pytest.approx(expected, rel=0.01)


def test_interior_dose_converges_as_sweep_step_shrinks():
    # the exact dose of a mid-run centerline element is irradiance * 2R/v;
    # the sampled sweep counts whole samples, so it may miss the chord by
    # less than one sample, irradiance * dt (0.06 % of the dose at 2 ms)
    speed = 4.0
    path = line_path(speed=speed)
    irr = SPOT.irradiance_w_mm2()
    exact = irr * 2 * SPOT.footprint_radius_mm() / speed
    errors = []
    for dt in (0.02, 0.002):
        dmap = deposit(path, FLOW, FS9, 1.0, 0.85, CFG.cure.bead_aspect)
        accumulate_dose(dmap, path, SPOT, dt)
        mid = len(dmap) // 2
        assert dmap.y[mid] == 0.0 and dmap.z[mid] == 0.85  # on the line, unburied
        errors.append(abs(dmap.dose[mid] - exact))
        assert errors[-1] < irr * dt
    assert errors[1] < errors[0] / 5.0


def test_every_element_fully_swept_with_lead():
    dmap = run_dose(line_path(lead=25.0), FS9)
    assert dmap.dose.min() / np.median(dmap.dose) > 0.97


def test_unextended_line_end_starved():
    dmap = run_dose(line_path(lead=0.0), FS9)
    median = np.median(dmap.dose)
    # the final stretch never sees the trailing footprint
    assert dmap.dose[-1] < 0.2 * median
    assert dmap.dose[len(dmap) // 2] == pytest.approx(
        SPOT.irradiance_w_mm2() * 2 * SPOT.footprint_radius_mm() / 4.0, rel=0.01)


def test_zero_efficiency_gives_zero_dose():
    spot = replace(SPOT, optical_efficiency=0.0)
    path = line_path()
    dmap = deposit(path, FLOW, FS9, 1.0, 0.85)
    accumulate_dose(dmap, path, spot, CFG.cure.sweep_dt_s)
    update_cure(dmap, FS9)
    assert np.all(dmap.dose == 0.0)
    assert np.all(dmap.alpha == 0.0)


def test_removing_uv_never_increases_dose():
    path = rectangle_path()
    with_uv = run_dose(path, FS9)
    muted = Toolpath(tuple(replace(s, uv_on=False) if i % 3 == 0 else s
                           for i, s in enumerate(path.segments)))
    without = run_dose(muted, FS9)
    assert np.all(without.dose <= with_uv.dose + 1e-12)


def test_update_cure_algebra():
    dmap = deposit(line_path(), FLOW, FS9, 1.0, 0.85)
    k = FS9.cure_rate_per_j_mm2
    dmap.dose = np.zeros(len(dmap))
    update_cure(dmap, FS9)
    assert np.all(dmap.alpha == 0.0)
    dmap.dose = np.full(len(dmap), math.log(2.0) / k)
    update_cure(dmap, FS9)
    assert dmap.alpha == pytest.approx(np.full(len(dmap), 0.5), rel=1e-12)


def test_alpha_bounded_and_monotone_in_dose():
    dmap = run_dose(rectangle_path(), FS9)
    update_cure(dmap, FS9)
    assert np.all((dmap.alpha >= 0.0) & (dmap.alpha <= 1.0))
    order = np.argsort(dmap.dose)
    assert np.all(np.diff(dmap.alpha[order]) >= -1e-15)


def square_sim(material=FS9):
    path = resample(assign_orientations(add_cure_extensions(
        generate("square-30x30x8.5", 3.0, 4.0, 0.85, 1.5),
        ExtensionPolicy(25.0))), 1.0)
    dmap = deposit(path, FLOW, material, 1.0, 0.85, CFG.cure.bead_aspect)
    accumulate_dose(dmap, path, SPOT, CFG.cure.sweep_dt_s)
    update_cure(dmap, material)
    return dmap


def test_buried_layers_gain_reexposure():
    dmap = square_sim()
    single_pass = SPOT.irradiance_w_mm2() * 2 * SPOT.footprint_radius_mm() / 4.0
    bottom = dmap.dose[dmap.layer == 1]
    # every bottom-layer element got strictly more than its own pass
    assert np.all(bottom > single_pass * 1.001)
    top_alpha = np.median(dmap.alpha[dmap.layer == 10])
    bottom_alpha = np.median(dmap.alpha[dmap.layer == 1])
    assert bottom_alpha > top_alpha


def test_spread_limits():
    dmap = run_dose(line_path(), FS9)
    update_cure(dmap, FS9)
    stiff = replace(FS9, viscosity_index=1e12)
    spread(dmap, stiff, CFG.cure)
    assert dmap.width == pytest.approx(dmap.width0, rel=1e-9)

    dmap2 = run_dose(line_path(), FS9)
    update_cure(dmap2, FS9)
    dmap2.gel_time = dmap2.deposit_time.copy()  # instant gel
    spread(dmap2, FS9, CFG.cure)
    assert dmap2.width == pytest.approx(dmap2.width0, rel=1e-9)


def test_spread_conserves_volume():
    dmap = run_dose(rectangle_path(), GF0)
    update_cure(dmap, GF0)
    before = dmap.volume.copy()
    spread(dmap, GF0, CFG.cure)
    after = dmap.width * dmap.height * dmap.length
    assert np.max(np.abs(after - before) / before) < 1e-9


def test_spread_monotone_in_viscosity():
    widths = {}
    for name in ("dlp-gf0", "dlp-gf35", "dlp-gf50"):
        m = CFG.materials[name]
        dmap = run_dose(rectangle_path(), m)
        update_cure(dmap, m)
        spread(dmap, m, CFG.cure)
        widths[name] = float(np.max(dmap.width))
    assert widths["dlp-gf0"] >= widths["dlp-gf35"] >= widths["dlp-gf50"]
    assert widths["dlp-gf50"] < widths["dlp-gf35"]


def test_never_gelled_spread_capped():
    spot = replace(SPOT, optical_efficiency=0.0)
    path = line_path()
    dmap = deposit(path, FLOW, FS9, 1.0, 0.85)
    accumulate_dose(dmap, path, spot, CFG.cure.sweep_dt_s)
    update_cure(dmap, FS9)
    spread(dmap, FS9, CFG.cure)
    cap = 1.0 + CFG.cure.c_spread * CFG.cure.max_dwell_s / FS9.viscosity_index
    assert dmap.width == pytest.approx(dmap.width0 * cap, rel=1e-9)


def test_predict_dimensions_zero_spread():
    dmap = run_dose(rectangle_path(), FS9)
    update_cure(dmap, FS9)
    stiff = replace(FS9, viscosity_index=1e12)
    spread(dmap, stiff, CFG.cure)
    dims = predict_dimensions(dmap, CFG.cure)
    w0 = float(dmap.width0[0])
    assert dims["length_mm"] == pytest.approx(90.0 + w0, abs=1e-6)
    assert dims["width_mm"] == pytest.approx(60.0 + w0, abs=1e-6)
    assert dims["line_width_mm"] == pytest.approx(w0, rel=1e-9)


def test_predict_dimensions_empty_map_errors():
    empty = DepositionMap(material=FS9, layer_height_mm=0.85)
    with pytest.raises(CureError):
        predict_dimensions(empty)


def test_flag_undercured_trivial_cases():
    dmap = run_dose(line_path(), FS9)
    update_cure(dmap, FS9)
    dmap.alpha = np.ones(len(dmap)) * 0.99
    assert flag_undercured(dmap, 0.9) == []
    assert flag_undercured(dmap, 0.0) == []


def test_layer_summary_aggregates():
    dmap = square_sim()
    summary = dmap.layer_summary()
    assert sorted(summary) == list(range(1, 11))
    assert sum(s["count"] for s in summary.values()) == len(dmap)
    assert sum(s["volume_mm3"] for s in summary.values()) == pytest.approx(
        dmap.total_volume(), rel=1e-9)
    # buried layers carry the re-exposure bonus
    assert summary[1]["min_dose"] > summary[10]["min_dose"]


def test_material_invariants():
    from ramcell.config import ConfigError
    with pytest.raises(ConfigError):
        Material("bad", filler_wt_pct=120.0)
    with pytest.raises(ConfigError):
        Material("bad", viscosity_index=0.0)
    with pytest.raises(ConfigError):
        Material("bad", cure_rate_per_j_mm2=-1.0)


def test_flag_undercured_corner_first_without_lead():
    dmap = run_dose(rectangle_path(lead=0.0), FS9)
    update_cure(dmap, FS9)
    flagged = flag_undercured(dmap, CFG.cure.alpha_min)
    assert flagged
    # the least-cured elements sit at the loop closure corner (0, 0)
    first = flagged[0]
    corner_dist = math.hypot(first.centroid[0], first.centroid[1])
    assert corner_dist < 12.0
    alphas = [e.alpha for e in flagged]
    assert alphas == sorted(alphas)


def _dense_sweep(dmap, path, spot, dt_s, reorient_rate=1.0):
    """Reference sweep: every element at every sample of every entry.

    The culled `accumulate_dose` must reproduce its dose and gel times
    bit for bit.
    """
    irr = spot.irradiance_w_mm2()
    radius2 = spot.footprint_radius_mm() ** 2
    threshold = gel_dose(dmap.material)
    att = dmap.material.attenuation_depth_mm
    ex, ey, ez = dmap.x, dmap.y, dmap.z
    for e in time_profile(path, reorient_rate):
        if not e.uv_on or irr <= 0.0:
            continue
        dur = e.t1 - e.t0
        if dur <= 0.0:
            continue
        n = max(1, math.ceil(dur / dt_s))
        dtj = dur / n
        tau = e.t0 + (np.arange(n) + 0.5) * dtj
        frac = (tau - e.t0) / dur
        nx = e.start.x + frac * (e.end.x - e.start.x)
        ny = e.start.y + frac * (e.end.y - e.start.y)
        nz = e.start.z + frac * (e.end.z - e.start.z)
        yaw = e.yaw0 + frac * (e.yaw1 - e.yaw0)
        sx = nx + spot.trail_mm * np.cos(yaw)
        sy = ny + spot.trail_mm * np.sin(yaw)
        d2 = (ex[None, :] - sx[:, None]) ** 2 + (ey[None, :] - sy[:, None]) ** 2
        lit = (d2 <= radius2) & (dmap.deposit_time[None, :] <= tau[:, None])
        depth = np.clip(nz[:, None] - ez[None, :], 0.0, None)
        contrib = np.where(lit, irr * dtj * np.exp(-depth / att), 0.0)
        cum = dmap.dose[None, :] + np.cumsum(contrib, axis=0)
        newly = ~np.isfinite(dmap.gel_time) & (cum[-1] >= threshold)
        if np.any(newly):
            first = np.argmax(cum[:, newly] >= threshold, axis=0)
            dmap.gel_time[newly] = tau[first]
        dmap.dose = cum[-1]
    return dmap


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


def _job(source, material="dlp-fs9", dt_s=None, trail_mm=None):
    cfg = replace(CFG, job=replace(CFG.job, material=material))
    if dt_s is not None:
        cfg = replace(cfg, cure=replace(cfg.cure, sweep_dt_s=dt_s))
    if trail_mm is not None:
        cfg = replace(cfg, uv=replace(cfg.uv, trail_offset_mm=trail_mm))
    if source == "hexagon-gcode":
        local = pipeline.build_toolpath_from_gcode(cfg, HEXAGON_GCODE)
    else:
        local = pipeline.build_toolpath_from_shape(cfg, source)
    return pipeline.build_job(cfg, source, local)


def _deposit(job):
    cfg = job.cfg
    return deposit(job.local_path, job.flow, job.material, 1.0, cfg.job.layer_height_mm,
                   cfg.cure.bead_aspect, cfg.cell.reorient_rate_rad_s)


def _assert_sweeps_agree(job, reference=None):
    cfg = job.cfg
    if reference is None:
        reference = _dense_sweep(_deposit(job), job.local_path, job.spot,
                                 cfg.cure.sweep_dt_s, cfg.cell.reorient_rate_rad_s)
    culled = accumulate_dose(_deposit(job), job.local_path, job.spot,
                             cfg.cure.sweep_dt_s, cfg.cell.reorient_rate_rad_s)
    assert np.any(np.isfinite(reference.gel_time))  # the gel-time path is exercised
    assert np.array_equal(culled.dose, reference.dose)
    assert np.array_equal(culled.gel_time, reference.gel_time)
    return reference


@pytest.mark.parametrize("source, material, dt_s, trail_mm", [
    ("rectangle-90x60", "dlp-gf50", None, None),   # the three specimens
    ("wall-50x10", "dlp-fs9", None, None),
    ("square-30x30x8.5", "dlp-fs9", None, None),
    ("hexagon-gcode", "dlp-fs9", None, None),      # diagonal moves, no extensions
    ("wall-50x10", "dlp-fs9", 0.007, None),        # does not divide the entry durations
    ("square-20x20x2.55", "dlp-fs9", None, 0.0),   # footprint centred on the nozzle
    # one sample per move: with no trail that sample sits on the element
    # the move deposits, at its deposit time
    ("square-20x20x2.55", "dlp-fs9", 0.5, 0.0),
])
def test_culled_sweep_matches_dense_sweep_bit_for_bit(source, material, dt_s, trail_mm):
    _assert_sweeps_agree(_job(source, material, dt_s, trail_mm))


def test_culled_sweep_matches_dense_sweep_on_the_material_ladder():
    jobs = [_job("square-50x50x8.5", m) for m in ("dlp-gf0", "dlp-gf35", "dlp-gf50")]
    # the ladder differs only in viscosity, which the sweep never reads,
    # so one dense run is the reference for all three
    physics = {(gel_dose(j.material), j.material.attenuation_depth_mm) for j in jobs}
    assert len(physics) == 1
    reference = _assert_sweeps_agree(jobs[0])
    for job in jobs[1:]:
        _assert_sweeps_agree(job, reference)


@pytest.mark.parametrize("source", ["rectangle-90x60", "wall-50x10", "square-30x30x8.5",
                                    "hexagon-gcode"])
def test_deposit_times_strictly_increase(source):
    # the culled sweep finds an entry's deposited elements as a prefix
    dmap = _deposit(_job(source))
    assert len(dmap) > 0
    assert np.all(np.diff(dmap.deposit_time) > 0.0)


def test_sweep_rejects_unordered_deposit_times():
    path = line_path()
    dmap = deposit(path, FLOW, FS9, 1.0, 0.85)
    dmap.deposit_time = dmap.deposit_time[::-1].copy()
    with pytest.raises(CureError, match="deposit times"):
        accumulate_dose(dmap, path, SPOT, CFG.cure.sweep_dt_s)

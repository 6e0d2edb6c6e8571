import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from ramcell import cure, pipeline
from ramcell.config import ConfigError, UVConfig, default_config, loads_config
from ramcell.cure import (CureError, DepositionMap, _column_sums, _runs,
                          _sample_blocks, accumulate_dose, deposit, flag_undercured,
                          predict_dimensions, spread, update_cure)
from ramcell.extrusion import FlowModel
from ramcell.geometry import Vec3
from ramcell.shapes import generate
from ramcell.toolpath import (ExtensionPolicy, Segment, Toolpath,
                              add_cure_extensions, assign_orientations,
                              resample, time_profile)

CFG = default_config()
FLOW = FlowModel()
SPOT = CFG.uv
FS9 = CFG.materials["dlp-fs9"]
GF0 = CFG.materials["dlp-gf0"]


def line_path(length=50.0, speed=4.0, lead=25.0, z=0.85):
    path = Toolpath.from_segments((Segment(Vec3(0, 0, z), Vec3(length, 0, z), speed,
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
    with pytest.raises(ConfigError, match=r"\[uv\] standoff_mm must be finite and > 0"):
        loads_config("[uv]\nstandoff_mm = 0\n")
    # a footprint whose area underflows, or a lamp too bright for a float
    with pytest.raises(ConfigError, match=r"\[uv\] standoff_mm .*positive radius and area"):
        loads_config("[uv]\nstandoff_mm = 1e-300\n")
    with pytest.raises(ConfigError, match=r"\[uv\] standoff_mm .*finite irradiance"):
        loads_config("[uv]\npower_w = 1e9\noptical_efficiency = 1e9\nstandoff_mm = 1e-150\n")


def test_sweep_refuses_more_samples_than_a_job_can_run():
    path = line_path()
    dmap = deposit(path, FLOW, FS9, 1.0, 0.85)
    with pytest.raises(CureError, match="more than 1e\\+07; raise \\[cure\\] sweep_dt_s"):
        accumulate_dose(dmap, path, SPOT, 1e-6)
    assert np.all(dmap.dose == 0.0)
    # a finite irradiance times a 2 s step can still overflow; the sweep
    # multiplies the lit mask by the dose factor, so that must be finite
    slow = line_path(speed=0.5)
    glaring = UVConfig(power_w=1e9, optical_efficiency=1e9, standoff_mm=1.2e-145)
    assert 9e307 < glaring.irradiance_w_mm2() < math.inf
    with pytest.raises(CureError, match="overflows"):
        accumulate_dose(deposit(slow, FLOW, FS9, 1.0, 0.85), slow, glaring, 10.0)


def test_deposit_rectangle_counts_and_volume():
    dmap = deposit(rectangle_path(), FLOW, FS9, 1.0, 0.85)
    assert len(dmap) == 300
    assert dmap.total_volume() == pytest.approx(530.0, rel=1e-9)


def test_deposit_nothing_without_extrusion():
    path = assign_orientations(Toolpath.from_segments((
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
    path = assign_orientations(Toolpath.from_segments((
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


@pytest.mark.parametrize("offset", [0.0, 0.5, 0.9, 1.01])
def test_off_centre_chord_dose(offset):
    # a bead laid with UV off, then one UV pass along it at lateral offset
    # y that overruns both ends by r + trail: each element sits on a chord
    # of the footprint, lit for 2 sqrt(r^2 - y^2) / v seconds
    r, trail, v, z, n = SPOT.footprint_radius_mm(), SPOT.trail_offset_mm, 4.0, 0.85, 20
    y, run = offset * r, r + trail
    path = Toolpath.from_segments((
        Segment(Vec3(0, 0, z), Vec3(n, 0, z), v, True, False, 1),
        Segment(Vec3(n, 0, z), Vec3(-run, y, z), 20.0, False, False, 1),
        Segment(Vec3(-run, y, z), Vec3(n + run, y, z), v, False, True, 1)))
    path = resample(assign_orientations(path), 1.0)
    dmap = deposit(path, FLOW, FS9, 1.0, z)
    accumulate_dose(dmap, path, SPOT, CFG.cure.sweep_dt_s)
    assert len(dmap) == n and np.all(dmap.y == 0.0) and np.all(dmap.z == z)
    irr = SPOT.irradiance_w_mm2()
    if offset > 1.0:
        assert np.all(dmap.dose == 0.0)
        return
    # the pass is cut into equal subsegments, each swept in equal steps
    # of at most sweep_dt_s; one step's dose is the sampling error bound
    step_s = (n + 2 * run) / math.ceil(n + 2 * run) / v
    dt = step_s / math.ceil(step_s / CFG.cure.sweep_dt_s)
    exact = irr * 2.0 * math.sqrt(r * r - y * y) / v
    assert np.abs(dmap.dose - exact).max() <= irr * dt


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
    muted = Toolpath.from_segments(tuple(replace(s, uv_on=False) if i % 3 == 0 else s
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
    for key, value in (("filler_wt_pct", "120"), ("viscosity_index", "0"),
                       ("cure_rate_per_j_mm2", "-1")):
        with pytest.raises(ConfigError, match=rf"\[material:bad\] {key} must be "):
            loads_config(f"[material:bad]\n{key} = {value}\n")


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


def _sorted_flags(dmap, alpha_min):
    """The under-cured elements, ordered by sorted() on (alpha, index)."""
    idx = np.flatnonzero(dmap.alpha < alpha_min)
    return [dmap.element(int(i)) for i in sorted(idx, key=lambda i: (dmap.alpha[i], i))]


def test_flag_undercured_matches_the_sorted_order():
    path = rectangle_path(lead=0.0)
    dark = deposit(path, FLOW, FS9, 1.0, 0.85, CFG.cure.bead_aspect)
    accumulate_dose(dark, path, replace(SPOT, power_w=0.0), CFG.cure.sweep_dt_s)
    update_cure(dark, FS9)
    partly = run_dose(path, FS9)
    update_cure(partly, FS9)
    # most elements cure to the same alpha at 3 decimals; the threshold
    # flags all but those at the highest
    partly.alpha = np.round(partly.alpha, 3)
    cases = ((dark, CFG.cure.alpha_min), (partly, float(np.max(partly.alpha))))
    for dmap, alpha_min in cases:
        want = _sorted_flags(dmap, alpha_min)
        assert len({e.alpha for e in want}) < len(want) - 10  # ties decide the order
        assert flag_undercured(dmap, alpha_min) == want
        assert [dmap.element(i) for i in cure.undercured(dmap, alpha_min)] == want
    assert len(_sorted_flags(dark, CFG.cure.alpha_min)) == len(dark)
    assert len(dark) // 2 < len(_sorted_flags(*cases[1])) < len(partly)


def _dense_sweep(dmap, path, spot, dt_s, reorient_rate=1.0):
    """Reference sweep: every element at every sample of every entry.

    The culled `accumulate_dose` must reproduce its dose and gel times
    bit for bit.
    """
    irr = spot.irradiance_w_mm2()
    radius2 = spot.footprint_radius_mm() ** 2
    threshold = dmap.material.gel_dose_j_mm2()
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
        nx = e.x0 + frac * (e.x1 - e.x0)
        ny = e.y0 + frac * (e.y1 - e.y0)
        nz = e.z0 + frac * (e.z1 - e.z0)
        yaw = e.yaw0 + frac * (e.yaw1 - e.yaw0)
        sx = nx + spot.trail_offset_mm * np.cos(yaw)
        sy = ny + spot.trail_offset_mm * np.sin(yaw)
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


# a square loop that climbs 0.4 mm a side with UV on, then a second loop
# over it: the nozzle height varies within every timeline entry
RAMP_GCODE = """\
G0 X0 Y0 Z0.85
M42 P2 S1
M106
G1 X20 Y0 Z1.25 F240
G1 X20 Y20 Z1.65
G1 X0 Y20 Z2.05
G1 X0 Y0 Z2.45
G1 X20 Y0 Z2.85
G1 X20 Y20 Z3.25
M107
M42 P2 S0
"""

# two layers of an L; between them the UV is off for the last stretch,
# the layer change and a turn, so the sweep steps over a UV-off dwell.
# The second layer runs at half speed: a pass over both pads the short
# entries of the first
LAYERS_GCODE = """\
G0 X0 Y0 Z0.85
M42 P2 S1
M106
G1 X24 Y0 F240
G1 X24 Y12
M107
M42 P2 S0
G1 X24 Y16
G1 Z1.7
G1 X24 Y12
M42 P2 S1
M106
G1 X24 Y0 F120
G1 X0 Y0
M107
M42 P2 S0
"""

# a flat square loop, a loop that ramps up one layer height and a flat
# loop on top, all with the UV on, then a run-out with the extruder off:
# one sample block holds flat and ramped entries
MIXED_GCODE = """\
G0 X0 Y0 Z0.85
M42 P2 S1
M106
G1 X20 Y0 F240
G1 X20 Y20
G1 X0 Y20
G1 X0 Y0
G1 X20 Y0 Z1.0625
G1 X20 Y20 Z1.275
G1 X0 Y20 Z1.4875
G1 X0 Y0 Z1.7
G1 X20 Y0
G1 X20 Y20
G1 X0 Y20
G1 X0 Y0
M107
G1 X20 Y0
M42 P2 S0
"""

GCODES = {"hexagon-gcode": HEXAGON_GCODE, "ramp-gcode": RAMP_GCODE,
          "layers-gcode": LAYERS_GCODE, "mixed-gcode": MIXED_GCODE}


def _job(source, material="dlp-fs9", dt_s=None, trail_mm=None):
    cfg = replace(CFG, job=replace(CFG.job, material=material))
    if dt_s is not None:
        cfg = replace(cfg, cure=replace(cfg.cure, sweep_dt_s=dt_s))
    if trail_mm is not None:
        cfg = replace(cfg, uv=replace(cfg.uv, trail_offset_mm=trail_mm))
    if source in GCODES:
        local = pipeline.build_toolpath_from_gcode(cfg, GCODES[source])
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
        reference = _dense_sweep(_deposit(job), job.local_path, cfg.uv,
                                 cfg.cure.sweep_dt_s, cfg.cell.reorient_rate_rad_s)
    culled = accumulate_dose(_deposit(job), job.local_path, cfg.uv,
                             cfg.cure.sweep_dt_s, cfg.cell.reorient_rate_rad_s)
    assert np.any(np.isfinite(reference.gel_time))  # the gel-time path is exercised
    # int64 views: array_equal holds -0.0 equal to 0.0
    assert np.array_equal(culled.dose.view(np.int64), reference.dose.view(np.int64))
    assert np.array_equal(culled.gel_time.view(np.int64), reference.gel_time.view(np.int64))
    return reference


@pytest.mark.parametrize("source, material, dt_s, trail_mm", [
    ("rectangle-90x60", "dlp-gf50", None, None),   # the three specimens
    ("wall-50x10", "dlp-fs9", None, None),
    ("square-30x30x8.5", "dlp-fs9", None, None),
    ("hexagon-gcode", "dlp-fs9", None, None),      # diagonal moves, no extensions
    ("ramp-gcode", "dlp-fs9", None, None),         # the depth of every sample
    ("layers-gcode", "dlp-fs9", None, None),       # a UV-off stretch between layers
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
    physics = {(j.material.gel_dose_j_mm2(), j.material.attenuation_depth_mm) for j in jobs}
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


def _uv_entries(job):
    tl = time_profile(job.local_path, job.cfg.cell.reorient_rate_rad_s)
    return tl[tl.uv_on & (tl.t1 > tl.t0)]


def test_ramp_gcode_varies_the_nozzle_height_within_uv_entries():
    # no built-in shape does, so only this case takes the per-sample depth
    on = _uv_entries(_job("ramp-gcode"))
    assert np.all(on.z1[~on.dwell] > on.z0[~on.dwell])


@pytest.mark.parametrize("source", ["rectangle-90x60", "wall-50x10", "square-30x30x8.5",
                                    "ramp-gcode", "hexagon-gcode"])
def test_uv_is_off_in_every_dwell_and_every_move_keeps_its_yaw(source):
    # so the sweep takes each entry's trail offset once, from its yaw0
    job = _job(source)
    tl = time_profile(job.local_path, job.cfg.cell.reorient_rate_rad_s)
    assert tl.dwell.any() and tl.uv_on.any()
    assert not (tl.uv_on & tl.dwell).any()
    moves = tl[~tl.dwell]
    assert np.array_equal(moves.yaw0.view(np.int64), moves.yaw1.view(np.int64))


@pytest.mark.parametrize("source", ["square-20x20x2.55", "ramp-gcode", "hexagon-gcode"])
def test_sweep_with_one_entry_a_pass_matches_dense_sweep(monkeypatch, source):
    # a budget of one pair-sample closes every run after its first entry
    monkeypatch.setattr(cure, "_PAIR_SAMPLE_BUDGET", 1)
    _assert_sweeps_agree(_job(source))


def test_runs_close_before_the_entry_that_breaks_the_budget():
    count = np.array([4, 4, 9, 1, 1])
    assert list(_runs(np.array([2, 1, 3, 1, 5]), count, 1)) == [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    # a run is laid out as its longest entry times its width
    assert list(_runs(np.ones(5, int), count, 12)) == [(0, 2), (2, 3), (3, 5)]
    assert list(_runs(np.ones(5, int), count, 1000)) == [(0, 5)]
    assert list(_runs(np.zeros(0, int), np.zeros(0, int), 10)) == []


def _runs_per_entry(width, count, budget):
    """_runs, growing the run one entry at a time."""
    out, lo, rows, cols = [], 0, 0, 0
    for i, (w, n) in enumerate(zip(width.tolist(), count.tolist())):
        rows, cols = max(rows, n), cols + w
        if rows * cols > budget and i > lo:
            out.append((lo, i))
            lo, rows, cols = i, n, w
    return out + [(lo, len(count))] if len(count) else out


def test_runs_match_the_per_entry_cut():
    """Seeded widths and counts, zeros and single entries past the budget
    included: every cut is the per-entry loop's."""
    rng = np.random.RandomState(61)
    cuts = 0
    for trial in range(3000):
        n = rng.randint(0, 60)
        width = rng.randint(0, rng.randint(1, 30), n)
        count = rng.randint(trial % 2, rng.randint(2, 40), n)
        budget = rng.randint(0, 2000)
        want = _runs_per_entry(width, count, budget)
        assert list(_runs(width, count, budget)) == want
        cuts += max(0, len(want) - 1)
    assert cuts > 10000


def test_passes_straddle_a_layer_change_a_uv_off_dwell_and_block_boundaries(monkeypatch):
    job = _job("layers-gcode")
    cfg = job.cfg
    tl = time_profile(job.local_path, cfg.cell.reorient_rate_rad_s)
    # the UV is off for the turn back at the top of the L and for the hop
    gap = np.flatnonzero(~tl.uv_on)
    assert np.any(tl.dwell[gap]) and len(np.unique(tl.layer[tl.uv_on])) == 2
    on = _uv_entries(job)
    change = int(np.argmax(on.layer != on.layer[0]))  # first entry of layer 2
    reference = _dense_sweep(_deposit(job), job.local_path, cfg.uv,
                             cfg.cure.sweep_dt_s, cfg.cell.reorient_rate_rad_s)
    straddled = inside = 0
    # the sizes in use, then no budget cut, so that a pass is a whole
    # block, at block sizes from 5 entries to all, with sub-blocks of 1,
    # 3 and 16 entries
    layouts = [(cure._BLOCK_SAMPLES, cure._PAIR_SAMPLE_BUDGET, cure._SUB_BLOCK)]
    layouts += [(entries * 13, 1 << 40, sub) for entries in (5, 13, 29, 1000)
                for sub in (1, 3, 16)]
    for block, budget, sub in layouts:
        monkeypatch.setattr(cure, "_BLOCK_SAMPLES", block)
        monkeypatch.setattr(cure, "_PAIR_SAMPLE_BUDGET", budget)
        monkeypatch.setattr(cure, "_SUB_BLOCK", sub)
        sizes = [len(b.count) for b in _sample_blocks(job.local_path, cfg.uv,
                                                       cfg.cure.sweep_dt_s,
                                                       cfg.cell.reorient_rate_rad_s)]
        bounds = np.cumsum(sizes)
        assert bounds[-1] == len(on)
        first = int(np.searchsorted(bounds, change, side="right"))  # block of the change
        start = bounds[first - 1] if first else 0
        straddled += start < change and len(sizes) > 1
        # the layer change falls inside a sub-block of its block
        inside += (change - start) % sub != 0
        _assert_sweeps_agree(job, reference)
    assert straddled >= 2 and inside >= 2


@pytest.mark.parametrize("source", ["rectangle-90x60", "wall-50x10", "square-30x30x8.5",
                                    "ramp-gcode", "layers-gcode"])
def test_each_spot_track_lies_between_its_first_and_last_sample(source):
    """The sweep boxes each entry's spot track by its first and last spot
    samples: over an entry's real samples the smallest and largest spot
    coordinate are those of the two, bit for bit, since every step that
    makes a sample rounds monotonically; in blocks that mix sample counts
    (layers-gcode) and where the nozzle height varies (ramp-gcode) too."""
    interior = mixed = 0
    for blk in _blocks(_job(source)):
        real = blk.tau < np.inf
        for table, (first, final) in zip((blk.spot_x, blk.spot_y), blk.spot_ends()):
            low = np.min(table, axis=0, where=real, initial=np.inf)
            high = np.max(table, axis=0, where=real, initial=-np.inf)
            assert np.array_equal(low.view(np.int64), np.minimum(first, final).view(np.int64))
            assert np.array_equal(high.view(np.int64), np.maximum(first, final).view(np.int64))
        interior += np.count_nonzero(blk.count > 2)
        mixed += blk.count.min() < blk.count.max()
    assert interior > 0
    assert mixed > 0 or source != "layers-gcode"


def test_sweep_without_uv_entries_leaves_dose_at_zero():
    path = line_path()
    dark = Toolpath.from_segments(tuple(replace(s, uv_on=False) for s in path.segments))
    dmap = run_dose(dark, FS9)
    assert np.all(dmap.dose == 0.0) and np.all(np.isinf(dmap.gel_time))


def test_outer_axis_reduce_is_sequential_bit_for_bit():
    # the sweep sums each (sample, pair) column with add.reduce along axis
    # 0 in place of cumsum(...)[-1]: numpy adds whole rows in order there,
    # so a release that changes that order fails here, not in the goldens
    rng = np.random.default_rng(11)

    def doses(rows, cols):
        x = rng.random((rows, cols)) * 10.0 ** rng.integers(-8, 2, (rows, cols))
        x[rng.random((rows, cols)) < 0.4] = 0.0
        return x

    for rows, cols in [(1, 2), (2, 3), (9, 2), (13, 40), (80, 7), (300, 600)]:
        x = doses(rows, cols)
        sequential = np.cumsum(x, axis=0)[-1].view(np.int64)
        assert np.array_equal(np.add.reduce(x, axis=0).view(np.int64), sequential)
        assert np.array_equal(_column_sums(x).view(np.int64), sequential)
    # along the contiguous axis numpy sums pairwise, which differs
    x = doses(64, 200)
    assert not np.array_equal(np.add.reduce(np.ascontiguousarray(x.T), axis=1),
                              np.cumsum(x, axis=0)[-1])
    # so does a single column, a 1-D reduction to numpy: _column_sums
    # takes the cumsum there
    single = [x[:, j:j + 1].copy() for j in range(20)]
    assert any(np.add.reduce(c, axis=0)[0] != np.cumsum(c, axis=0)[-1, 0] for c in single)
    assert all(_column_sums(c)[0] == np.cumsum(c, axis=0)[-1, 0] for c in single)
    # a whole-footprint pair's column is one weight added count times, a
    # reduce down a row broadcast at stride 0, masked where the entries of
    # a group differ in length; numpy adds whole rows in order there too
    sequential_sums = 0
    for rows, cols in [(1, 2), (2, 3), (9, 2), (13, 40), (25, 300), (171, 7), (300, 600)]:
        w = rng.random(cols) * 10.0 ** rng.integers(-8, 2, cols)
        row = np.broadcast_to(w, (rows, cols))
        assert row.strides[0] == 0
        dense = np.ascontiguousarray(row)
        mask = np.arange(rows)[:, None] < rng.integers(1, rows + 1, cols)
        for table in (row, dense):
            want = np.cumsum(dense, axis=0)[-1].view(np.int64)
            assert np.array_equal(np.add.reduce(table, axis=0).view(np.int64), want)
            assert np.array_equal(_column_sums(table).view(np.int64), want)
            want = np.cumsum(np.where(mask, dense, 0.0), axis=0)[-1].view(np.int64)
            assert np.array_equal(np.add.reduce(table, axis=0, where=mask).view(np.int64), want)
            assert np.array_equal(_column_sums(table, mask).view(np.int64), want)
            sequential_sums += 1
    assert sequential_sums == 14
    # a width-1 table is a 1-D reduction to numpy, summed pairwise whether
    # broadcast or masked; _column_sums takes the cumsum there
    rows = 300
    k = np.arange(rows)[:, None]
    pairwise = 0
    for w in rng.random(20) * 10.0 ** rng.integers(-8, 2, 20):
        row = np.broadcast_to(np.array([w]), (rows, 1))
        mask = k < rng.integers(200, rows + 1)
        want = np.cumsum(np.ascontiguousarray(row), axis=0)[-1, 0]
        pairwise += np.add.reduce(row, axis=0)[0] != want
        assert _column_sums(row)[0] == want
        want = np.cumsum(np.where(mask, row, 0.0), axis=0)[-1, 0]
        pairwise += np.add.reduce(row, axis=0, where=mask)[0] != want
        assert _column_sums(row, mask)[0] == want
    assert pairwise > 0


def test_add_at_adds_repeated_indices_in_index_order_bit_for_bit():
    # the sweep adds each pair's total to its element's dose with
    # np.add.at, in pair order, in place of a sequential reduce down the
    # chain of entries: ufunc.at adds one index at a time, in index
    # order, so a release that changes that order fails here
    rng = np.random.default_rng(12)
    repeated = 0
    for size, elements in [(1, 1), (2, 1), (7, 3), (500, 40), (5000, 300), (40000, 2000)]:
        el = rng.integers(0, elements, size).astype(np.intp)  # the sweep's index dtype
        sums = rng.random(size) * 10.0 ** rng.integers(-12, 3, size)
        sums[rng.random(size) < 0.3] = 0.0
        dose = rng.random(elements) * 10.0 ** rng.integers(-6, 1, elements)
        want = dose.copy()
        for i, v in zip(el.tolist(), sums.tolist()):
            want[i] = want[i] + v
        got = dose.copy()
        np.add.at(got, el, sums)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        repeated += len(el) - len(np.unique(el))
    assert repeated > 30000
    # the same values added in reverse order round differently, so the
    # checks above pin the order, not only the sum
    sums = rng.random(2000) * 10.0 ** rng.integers(-12, 3, 2000)
    got = np.zeros(1)
    np.add.at(got, np.zeros(len(sums), np.intp), sums)
    assert got[0] == np.cumsum(sums)[-1] != np.cumsum(sums[::-1])[-1]


class _SweepSpy:
    """Records what `accumulate_dose` hands its three skips.

    ``broadcast`` counts the whole-footprint columns summed down a
    broadcast row, ``masked`` the calls among them masked by sample
    count, ``corners`` holds each group's (x, y, corner bound) of its
    flat entries' pairs, ``horizon`` each depth horizon test of a flat
    block, on the elements near the block under its lowest nozzle
    plane, then on its candidates, before the groups and in each group,
    under their own sub-block's lowest nozzle plane: (elements, their
    depth, kept mask, block, their dose), and ``groups`` each group's
    (entries and elements of its pairs, their flatness, rows,
    whole-footprint columns).
    """

    def __init__(self, monkeypatch):
        self.broadcast = self.masked = 0
        self.corners, self.horizon, self.groups = [], [], []
        column_sums, corner_bound, above_horizon, sweep_group = (
            cure._column_sums, cure._corner_bound, cure._above_horizon, cure._sweep_group)

        def spy_column_sums(a, where=True):
            if a.strides[0] == 0:
                self.broadcast += a.shape[1]
                self.masked += where is not True
            return column_sums(a, where)

        def spy_corner_bound(ends, entry, x, y):
            bound = corner_bound(ends, entry, x, y)
            self.corners.append((x, y, bound))
            return bound

        def spy_above_horizon(el, depth, blk, dose, att):
            keep = above_horizon(el, depth, blk, dose, att)
            self.horizon.append((el, depth, keep, blk, dose[el].copy()))
            return keep

        def spy_sweep_group(blk, ends, pe, el, settled, rows, *args):
            broadcast = self.broadcast
            sweep_group(blk, ends, pe, el, settled, rows, *args)
            self.groups.append((pe, el, blk.flat[pe], rows, self.broadcast - broadcast))

        monkeypatch.setattr(cure, "_column_sums", spy_column_sums)
        monkeypatch.setattr(cure, "_corner_bound", spy_corner_bound)
        monkeypatch.setattr(cure, "_above_horizon", spy_above_horizon)
        monkeypatch.setattr(cure, "_sweep_group", spy_sweep_group)

    def pairs(self):
        """The pairs of the flat entries: whole-footprint or on the table."""
        return sum(len(bound) for _, _, bound in self.corners)

    def cut(self):
        return sum(np.count_nonzero(~keep) for _, _, keep, _, _ in self.horizon)


@pytest.fixture
def spy(monkeypatch):
    return _SweepSpy(monkeypatch)


@dataclass(frozen=True)
class _ExactSpot(UVConfig):
    """A footprint of an exact radius, whatever the cone's tangent rounds to."""
    radius_mm: float = 1.0

    def footprint_radius_mm(self) -> float:
        return self.radius_mm


def _custom_job(gcode, material=FS9, uv=SPOT):
    cfg = replace(CFG, uv=uv, materials={**CFG.materials, material.name: material},
                  job=replace(CFG.job, material=material.name))
    return pipeline.build_job(cfg, "custom", pipeline.build_toolpath_from_gcode(cfg, gcode))


def _blocks(job):
    cfg = job.cfg
    return _sample_blocks(job.local_path, cfg.uv, cfg.cure.sweep_dt_s,
                          cfg.cell.reorient_rate_rad_s)


def _run(job):
    cfg = job.cfg
    return accumulate_dose(_deposit(job), job.local_path, cfg.uv, cfg.cure.sweep_dt_s,
                           cfg.cell.reorient_rate_rad_s)


def test_both_sweep_paths_run_on_the_ten_layer_square(spy):
    _run(_job("square-30x30x8.5"))
    # most pairs lie in the footprint at every sample of their entry; the
    # others take the table
    assert 0.7 * spy.pairs() < spy.broadcast < spy.pairs()
    # ten layers lie within the horizon: nothing is cut
    assert spy.horizon and spy.cut() == 0


def test_whole_footprint_pairs_one_ulp_either_side_of_the_radius(spy):
    job = _job("hexagon-gcode")
    dmap = _deposit(job)
    r2 = SPOT.footprint_radius_mm() ** 2
    # corner bounds near the radius, of elements deposited by the entry's
    # first sample, taken with the sweep's own helper; each is the squared
    # distance to the entry's first or last spot, so a radius below it
    # leaves that sample unlit
    bounds, elements = [], []
    for blk in _blocks(job):
        entry, el = np.nonzero(dmap.deposit_time <= blk.tau[0][:, None])
        bound = cure._corner_bound(blk.spot_ends(), entry, dmap.x[el], dmap.y[el])
        reached = np.zeros(len(entry), bool)
        for (x, y) in zip(*blk.spot_ends()):
            reached |= (dmap.x[el] - x[entry]) ** 2 + (dmap.y[el] - y[entry]) ** 2 == bound
        close = reached & (np.abs(bound - r2) < 0.01 * r2)
        bounds += bound[close].tolist()
        elements += el[close].tolist()
    assert bounds

    def radius(square):
        """A float radius whose square, as the sweep takes it, is ``square``."""
        r = math.sqrt(square)
        for _ in range(8):
            r = math.nextafter(r, math.inf)
        for _ in range(17):
            if r ** 2 == square:
                return r
            r = math.nextafter(r, 0.0)
        return None

    for bound, el in sorted(zip(bounds, elements), key=lambda c: abs(c[0] - r2)):
        # the bound one ulp below the radius's square, then one ulp above
        radii = (radius(math.nextafter(bound, math.inf)), radius(math.nextafter(bound, 0.0)))
        if None not in radii:
            break
    else:
        pytest.fail("no corner bound near the radius has both neighbouring squares")
    for r, whole in zip(radii, (True, False)):
        spy.corners.clear()
        spy.broadcast = 0
        _assert_sweeps_agree(_custom_job(HEXAGON_GCODE, uv=_ExactSpot(radius_mm=r)))
        assert (bound <= r ** 2) == whole
        assert abs(bound - r ** 2) == math.ulp(bound) or abs(bound - r ** 2) == math.ulp(r ** 2)
        # the sweep met this pair's bound, and took both paths
        assert any(np.any((b == bound) & (x == dmap.x[el]) & (y == dmap.y[el]))
                   for x, y, b in spy.corners)
        assert 0 < spy.broadcast < spy.pairs()


def test_a_group_of_mixed_sample_counts_masks_its_whole_footprint_sums(spy):
    # the second layer of the L runs at half speed: its entries have twice
    # the samples of the first layer's, and a group spans both
    job = _job("layers-gcode")
    assert len(np.unique(np.concatenate([blk.count for blk in _blocks(job)]))) > 1
    _assert_sweeps_agree(job)
    assert spy.masked > 0


def test_fresh_elements_never_take_the_whole_footprint_path(spy):
    # with the spot on the nozzle, an element deposited during an entry is
    # inside the footprint at its first and last samples, yet unlit before
    # its deposit time: only the deposit test keeps it on the table
    job = _job("square-20x20x2.55", trail_mm=0.0)
    dmap = _deposit(job)
    r2 = job.cfg.uv.footprint_radius_mm() ** 2
    inside = 0
    for blk in _blocks(job):
        last_tau = blk.tau[blk.count - 1, np.arange(len(blk.count))]
        entry, el = np.nonzero((dmap.deposit_time > blk.tau[0][:, None])
                               & (dmap.deposit_time <= last_tau[:, None]))
        bound = cure._corner_bound(blk.spot_ends(), entry, dmap.x[el], dmap.y[el])
        inside += np.count_nonzero(bound <= r2)
    assert inside > 0
    _assert_sweeps_agree(job)
    assert spy.broadcast > 0


def test_ramped_entries_keep_every_pair_on_the_table(spy):
    _assert_sweeps_agree(_job("ramp-gcode"))
    assert spy.corners == [] and spy.broadcast == 0 and spy.horizon == []


def test_flat_entries_beside_ramped_ones_keep_the_whole_footprint_path(spy):
    """A flat loop, a loop ramping up one layer and a flat loop on top, all
    UV-on, lie in one sample block, and groups mix flat and ramped
    entries.  Flatness is read per entry: every flat entry's pair, and no
    ramped one's, has its corner bound taken, and the flat pairs of the
    mixed groups still take the broadcast path."""
    job = _job("mixed-gcode")
    blocks = list(_blocks(job))
    assert len(blocks) == 1 and blocks[0].flat.any() and not blocks[0].flat.all()
    _assert_sweeps_agree(job)
    flat_pairs = sum(np.count_nonzero(flat) for _, _, flat, _, _ in spy.groups)
    assert spy.pairs() == flat_pairs
    assert 0.5 * flat_pairs < spy.broadcast < flat_pairs
    mixed = [whole for _, _, flat, _, whole in spy.groups if flat.any() and not flat.all()]
    assert mixed and all(whole > 0 for whole in mixed)
    # a block with a ramped entry has no depth horizon
    assert spy.horizon == []


@pytest.mark.parametrize("source, radius", [("square-20x20x2.55", None), ("layers-gcode", None),
                                            ("mixed-gcode", None), ("hexagon-gcode", 25.0)])
def test_each_pass_lays_out_at_most_the_budget(spy, monkeypatch, source, radius):
    """A pass's (samples, pairs) layout fits `_PAIR_SAMPLE_BUDGET` whatever
    the block's length, unless it is a single entry: its pairs are among
    its second-level box cells, the runs are cut on those, and a
    sub-block whose cells alone pass the budget is cut into windows of
    entries, a pass each.  A footprint wider than the hexagon puts every
    element in every box, so its one block's sub-blocks are cut."""
    budget = 1 << 12
    monkeypatch.setattr(cure, "_PAIR_SAMPLE_BUDGET", budget)
    job = _job(source) if radius is None else _custom_job(HEXAGON_GCODE,
                                                          uv=_ExactSpot(radius_mm=radius))
    _assert_sweeps_agree(job)
    assert len(spy.groups) > len(list(_blocks(job)))
    split = last = 0
    for pe, el, _, rows, _ in spy.groups:
        # passes of whole sub-blocks never share one within a block
        split += len(pe) > 0 and pe[0] // cure._SUB_BLOCK == last
        last = pe[-1] // cure._SUB_BLOCK if len(pe) else -1
        assert len(pe) * rows <= budget or len(np.unique(pe)) == 1
        # in sub-block order, and each element's pairs in entry order
        assert np.all(np.diff(pe // cure._SUB_BLOCK) >= 0)
        order = np.argsort(el, kind="stable")
        same = np.diff(el[order]) == 0
        assert np.all(np.diff(pe[order])[same] > 0)
    assert split > 0 or radius is None


def _stack_gcode(layers, length=24, uv=True, top_pass_feed=None):
    """``layers`` straight beads along +x, one a layer, each laid at 4 mm/s
    with the UV on or off; then, given a feed, one UV pass along the top
    bead at that feed with the extruder off."""
    h = CFG.job.layer_height_mm
    lines = []
    for i in range(1, layers + 1):
        lines += [f"G0 X0 Y0 Z{i * h:.2f}", "M106"] + ["M42 P2 S1"] * uv + [
                  f"G1 X{length} F240", "M107", "M42 P2 S0"]
    if top_pass_feed is not None:
        lines += [f"G0 X0 Y0 Z{layers * h:.2f}", "M42 P2 S1",
                  f"G1 X{length} F{top_pass_feed}", "M42 P2 S0"]
    return "\n".join(lines) + "\n"


def _sample_dt(speed):
    """One sample's duration on a 1 mm subsegment at ``speed``."""
    step_s = 1.0 / speed
    return step_s / math.ceil(step_s / CFG.cure.sweep_dt_s)


def test_burial_dose_of_a_stack_deeper_than_the_horizon(spy):
    # L passes over one line, each laying a bead with the UV on: a bottom
    # interior element gets a full chord 2r/v from every pass, at depth j h
    layers, h, v, att = 14, CFG.job.layer_height_mm, 4.0, FS9.attenuation_depth_mm
    job = _custom_job(_stack_gcode(layers))
    dmap = _assert_sweeps_agree(job)
    irr, r = SPOT.irradiance_w_mm2(), SPOT.footprint_radius_mm()
    bottom = int(np.flatnonzero((dmap.layer == dmap.layer.min()) & (dmap.x == 8.5))[0])
    exact = irr * 2.0 * r / v * sum(math.exp(-j * h / att) for j in range(layers))
    assert abs(dmap.dose[bottom] - exact) <= layers * irr * _sample_dt(v)
    # the horizon left buried elements out of later sub-blocks, though the
    # footprint covered them with a non-zero weight that rounds away
    covered = 0
    for el, _, keep, blk, _ in spy.horizon:
        out = el[~keep]
        real = blk.tau < np.inf
        d2 = ((dmap.x[out] - blk.spot_x[real][:, None]) ** 2
              + (dmap.y[out] - blk.spot_y[real][:, None]) ** 2)
        depth = np.max(blk.nozzle_z[0]) - dmap.z[out]
        weight = np.min(blk.weight) * np.exp(-depth / att)
        covered += np.count_nonzero(np.any(d2 <= r * r, axis=0) & (weight > 0.0))
    assert covered > 0
    assert dmap.dose[bottom] > 0.0


def test_a_block_cuts_an_element_under_its_upper_sub_blocks_only(spy):
    """On the 14-layer stack, at the block size in use, a horizon test
    cuts an element under the upper sub-blocks of its block and keeps it
    under the lower ones: each candidate's depth is taken under its own
    sub-block's lowest nozzle plane.  With the block's lowest plane for
    every sub-block, an element would have one depth, and so one verdict,
    throughout a test."""
    dmap = _assert_sweeps_agree(_custom_job(_stack_gcode(14)))
    sub, split = cure._SUB_BLOCK, 0
    for el, depth, keep, blk, _ in spy.horizon:
        tops = blk.nozzle_z[0]
        planes = np.array([tops[i:i + sub].min() for i in range(0, len(tops), sub)])
        # every depth is that under the lowest plane of one sub-block
        assert np.all(np.any(depth == planes[:, None] - dmap.z[el], axis=0))
        for e in np.unique(el[~keep]):
            kept = depth[(el == e) & keep]
            split += len(kept) > 0 and kept.max() < depth[(el == e) & ~keep].min()
    assert split > 0


def test_working_curve_of_one_exposure_over_a_buried_stack(spy):
    # L beads laid with the UV off, then one UV pass along the top bead: an
    # interior element at depth d gets E exp(-d / att), E = I 2r / v, and
    # gels down to the cure depth att ln(E / E_gel) (Jacobs' working curve).
    # The pass is slow enough to gel one and a half layers down
    layers, h, att = 14, CFG.job.layer_height_mm, FS9.attenuation_depth_mm
    irr, r, gel_dose = SPOT.irradiance_w_mm2(), SPOT.footprint_radius_mm(), FS9.gel_dose_j_mm2()
    feed = round(60.0 * irr * 2.0 * r / (gel_dose * math.exp(1.5 * h / att)), 3)
    v = feed / 60.0
    exposure = irr * 2.0 * r / v
    job = _custom_job(_stack_gcode(layers, uv=False, top_pass_feed=feed))
    dmap = _assert_sweeps_agree(job)
    # the spot runs from -trail to 24 - trail: these sit on a full chord
    interior = (dmap.x > 1.0) & (dmap.x < 9.0)
    depth = dmap.z.max() - dmap.z[interior]
    assert np.unique(depth).size == layers
    attenuated = np.exp(-depth / att)
    assert np.all(np.abs(dmap.dose[interior] - exposure * attenuated)
                  <= irr * _sample_dt(v) * attenuated)
    gelled = np.isfinite(dmap.gel_time[interior])
    cure_depth = att * math.log(exposure / gel_dose)
    assert np.array_equal(gelled, depth <= cure_depth)
    assert depth[gelled].max() == pytest.approx(h)
    # elements never lit before the pass have a dose of 0, so no horizon,
    # however deep: the horizon kept every one of them
    deep_and_dark = 0
    for _, depth, keep, _, dose in spy.horizon:
        dark = (dose == 0.0) & (depth > 40 * att)
        assert keep[dark].all()
        deep_and_dark += np.count_nonzero(dark)
    assert deep_and_dark > 0


def _gel_delay(v, material=FS9):
    """The delay from deposit to gel of an interior element of a straight
    single-layer UV-on line at speed v: the spot's edge reaches the
    element (trail - r) / v after the nozzle laid it, and the element
    then gels after E_gel / I in the footprint, unburied."""
    r, irr = SPOT.footprint_radius_mm(), SPOT.irradiance_w_mm2()
    assert r < SPOT.trail_offset_mm and material.gel_dose_j_mm2() / irr < 2.0 * r / v
    return (SPOT.trail_offset_mm - r) / v + material.gel_dose_j_mm2() / irr


def test_gel_time_of_a_straight_line_matches_the_spot_geometry():
    v, dt = 4.0, CFG.cure.sweep_dt_s
    dmap = run_dose(line_path(speed=v), FS9)
    r = SPOT.footprint_radius_mm()
    # a full chord of the footprint lies on the laid line
    interior = (dmap.x > r) & (dmap.x < 50.0 - r)
    assert np.count_nonzero(interior) > 20
    delay = dmap.gel_time[interior] - dmap.deposit_time[interior]
    assert np.all(np.abs(delay - _gel_delay(v)) <= dt)


def test_line_width_of_a_straight_line_matches_the_gel_delay():
    # the probe's beads spread by c t_gel / viscosity for t_gel = the gel
    # delay, so the sweep's one-sample error moves the width by at most
    # w0 c dt / viscosity
    v, dt, cure_cfg = 4.0, CFG.cure.sweep_dt_s, CFG.cure
    dmap = run_dose(line_path(speed=v), FS9)
    dims = predict_dimensions(spread(dmap, FS9, cure_cfg), cure_cfg)
    w0 = math.sqrt(cure_cfg.bead_aspect * FLOW.q_mm3_s / v)
    want = w0 * (1.0 + cure_cfg.c_spread * _gel_delay(v) / FS9.viscosity_index)
    assert dims["line_width_mm"] > w0
    assert abs(dims["line_width_mm"] - want) <= w0 * cure_cfg.c_spread * dt / FS9.viscosity_index


def test_a_long_attenuation_depth_puts_the_stack_within_the_horizon(spy):
    clear = replace(FS9, name="dlp-fs9-clear", attenuation_depth_mm=2.5)
    _assert_sweeps_agree(_custom_job(_stack_gcode(14), clear))
    assert spy.horizon and spy.cut() == 0


def test_a_short_attenuation_depth_cuts_all_but_the_top_layer(spy):
    """At an attenuation depth of a micron a sample adds exp(-850) of its
    weight one layer down, so the horizon cuts there, and the bound of an
    element a layer above the plane it is tested under overflows to
    +inf, which keeps it, without a warning."""
    thin = replace(FS9, name="dlp-fs9-thin", attenuation_depth_mm=1e-3)
    _assert_sweeps_agree(_custom_job(_stack_gcode(14), thin))
    assert spy.cut() > 0
    above = [keep[depth < -CFG.job.layer_height_mm / 2] for _, depth, keep, _, _ in spy.horizon]
    assert sum(len(a) for a in above) > 0 and all(a.all() for a in above)


def test_an_element_within_the_margin_of_its_horizon_is_kept(spy):
    # the attenuation depth is solved so that one buried element lies
    # between its horizon att ln(cw / spacing) and that plus the margin,
    # in a block that cuts others; doses move with the attenuation depth,
    # so the spacing is read again until it holds
    margin, gcode = cure._HORIZON_MARGIN, _stack_gcode(14)
    att, pick = FS9.attenuation_depth_mm, None
    for _ in range(6):
        job = _custom_job(gcode, replace(FS9, name="dlp-fs9-margin", attenuation_depth_mm=att))
        spy.horizon.clear()
        dmap = _run(job)
        calls = []
        for el, depth, keep, blk, dose in spy.horizon:
            with np.errstate(divide="ignore", over="ignore"):
                log_ratio = np.log(4.0 * np.max(blk.count * blk.weight) / np.spacing(dose))
            calls.append((el, keep, depth, log_ratio))
        if pick is None:
            # the candidate whose depth under its sub-block needs the least
            # change of att, in a test that cuts
            best = math.inf
            for i, (el, keep, depth, log_ratio) in enumerate(calls):
                if not keep.all():
                    need = np.abs(depth / (log_ratio + margin / 2) - att)
                    j = int(np.argmin(need))
                    if need[j] < best:
                        best, pick = need[j], (i, j, int(el[j]))
        i, j, element = pick
        el, keep, depth, log_ratio = calls[i]
        assert el[j] == element
        if att * log_ratio[j] < depth[j] <= att * (log_ratio[j] + margin) and not keep.all():
            assert keep[j]
            break
        att = float(depth[j] / (log_ratio[j] + margin / 2))
    else:
        pytest.fail("no attenuation depth put the element within its margin")
    _assert_sweeps_agree(job)


@pytest.mark.parametrize("weight", [2.0 ** -40, 2.0 ** 30], ids=["small-block", "large-block"])
def test_a_dose_below_the_horizon_floor_is_never_cut(weight):
    """A dose whose spacing is below 2**-1022 (the small block) or below
    cw 2**-1000 (the large one) is kept at any depth, though its bound
    cw exp(margin - depth / att) lies below that spacing or has
    underflowed to 0; a dose whose spacing is the floor is cut there."""
    one = np.zeros(1)
    blk = cure._SampleBlock(count=np.array([4]), weight=np.array([weight]), flat=np.ones(1, bool),
                            tau=one, spot_x=one[:, None], spot_y=one[:, None],
                            nozzle_z=one[:, None])
    floor, att = max(2.0 ** -1022, blk.column_bound * 2.0 ** -1000), 0.25
    assert floor == (2.0 ** -1022 if weight < 1.0 else blk.column_bound * 2.0 ** -1000)
    # the least spacing (a dose of 0 takes the least subnormal's), the
    # least and the largest dose of spacing floor / 2, and the floor
    dose = np.array([0.0, 5e-324, floor * 2.0 ** 51, np.nextafter(floor * 2.0 ** 52, 0.0),
                     floor * 2.0 ** 52])
    assert np.all(np.spacing(dose[:4]) < floor) and np.spacing(dose[4]) == floor
    el = np.arange(len(dose))
    # the bound at a quarter of the floor, and underflowed to 0
    for depth in (att * (cure._HORIZON_MARGIN + math.log(4.0 * blk.column_bound / floor)),
                  1000.0 * att):
        depths = np.full(len(dose), depth)
        keep = cure._above_horizon(el, depths, blk, dose, att)
        assert keep.tolist() == [True, True, True, True, False]

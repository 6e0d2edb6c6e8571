import math
from dataclasses import replace

import numpy as np
import pytest

from ramcell.config import Material, default_config
from ramcell.cure import (CureError, DepositionMap, UVSpot, accumulate_dose,
                          deposit, flag_undercured, predict_dimensions,
                          spread, update_cure)
from ramcell.extrusion import FlowModel
from ramcell.geometry import Vec3
from ramcell.shapes import generate
from ramcell.toolpath import (ExtensionPolicy, Segment, Toolpath,
                              add_cure_extensions, assign_orientations,
                              resample)

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

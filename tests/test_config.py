import math

import pytest

from ramcell.config import (ConfigError, default_config, dump_config,
                            loads_config, parse_obstacles)


def test_defaults_sane():
    cfg = default_config()
    assert cfg.extrusion.flow_mm3_s == 5.3
    assert cfg.extrusion.nozzle_diameter_mm == 1.5
    assert cfg.drivetrain.rated_torque_nm == 1.9
    assert cfg.uv.power_w == 10.0
    assert cfg.uv.wavelength_nm == 365.0
    assert math.isclose(cfg.uv.cone_half_angle_deg, 24.0)
    assert cfg.job.layer_height_mm == 0.85


def test_material_library_entries():
    mats = default_config().materials
    for name in ("acrylic", "dlp-gf0", "dlp-gf35", "dlp-gf50", "dlp-fs2.8", "dlp-fs9"):
        assert name in mats
    # the viscosity ladder orders strictly upward where the study found
    # improving dimensional stability
    assert mats["dlp-gf0"].viscosity_index < mats["dlp-gf35"].viscosity_index
    assert mats["dlp-gf35"].viscosity_index < mats["dlp-gf50"].viscosity_index
    assert mats["dlp-gf50"].viscosity_index <= mats["dlp-fs9"].viscosity_index
    assert mats["dlp-fs2.8"].viscosity_index == mats["dlp-gf50"].viscosity_index


def test_dump_load_round_trip():
    cfg = default_config()
    text = dump_config(cfg)
    again = loads_config(text)
    assert again == cfg
    # a second round trip is byte-stable
    assert dump_config(again) == text


def test_override_section_and_material():
    text = """
[job]
shape = wall-50x10
material = dlp-fs9

[uv]
optical_efficiency = 0.0

[material:custom]
viscosity_index = 12.0
cure_rate_per_j_mm2 = 5.0
"""
    cfg = loads_config(text)
    assert cfg.job.shape == "wall-50x10"
    assert cfg.uv.optical_efficiency == 0.0
    assert cfg.materials["custom"].viscosity_index == 12.0
    # untouched sections keep defaults
    assert cfg.extrusion.flow_mm3_s == 5.3


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError):
        loads_config("[nope]\nx = 1\n")
    with pytest.raises(ConfigError):
        loads_config("[job]\nbogus_key = 1\n")


def test_bad_schema_version_rejected():
    with pytest.raises(ConfigError):
        loads_config("[meta]\nschema_version = 99\n")


def test_obstacle_parsing():
    cfg = loads_config("[cell]\nobstacles = 0,0,0,10,10,10; -5,-5,0,-1,-1,20\n")
    boxes = parse_obstacles(cfg.cell)
    assert len(boxes) == 2
    assert boxes[0] == (0, 0, 0, 10, 10, 10)
    with pytest.raises(ConfigError):
        parse_obstacles(loads_config("[cell]\nobstacles = 1,2,3\n").cell)
    with pytest.raises(ConfigError):
        parse_obstacles(loads_config("[cell]\nobstacles = 0,0,0,0,1,1\n").cell)


@pytest.mark.parametrize("section, key", [
    ("cell", "reorient_rate_rad_s"), ("cell", "collision_dt_s"), ("cure", "sweep_dt_s"),
    ("job", "speed_2d_mm_s"), ("job", "speed_3d_mm_s"), ("job", "travel_speed_mm_s"),
    ("job", "layer_height_mm"), ("job", "resolution_mm"),
    ("kinematics", "singular_eps"), ("cell", "capsule_radius_mm"),
    ("cell", "capsule_length_mm"), ("material:dlp-fs9", "cure_rate_per_j_mm2"),
    ("material:dlp-fs9", "scattering"), ("material:dlp-fs9", "attenuation_depth_mm"),
    ("material:dlp-fs9", "viscosity_index"), ("material:new-resin", "scattering")])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_rate_and_length_keys_must_be_finite_and_positive(section, key, value):
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key} .*{value}"):
        loads_config(f"[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize("section, key", [("cure", "alpha_min"),
                                          ("material:dlp-fs9", "alpha_gel")])
@pytest.mark.parametrize("value", ["0", "1", "-0.5", "nan", "inf"])
def test_cure_degree_keys_must_lie_strictly_between_0_and_1(section, key, value):
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must be in \(0, 1\)"):
        loads_config(f"[{section}]\n{key} = {value}\n")

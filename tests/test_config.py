import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from ramcell import config
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
    ("cell", "capsule_length_mm"), ("cell", "max_joint_speed_rad_s"),
    ("kinematics", "joint_limit_rad"), ("material:dlp-fs9", "cure_rate_per_j_mm2"),
    ("material:dlp-fs9", "scattering"), ("material:dlp-fs9", "attenuation_depth_mm"),
    ("material:dlp-fs9", "viscosity_index"), ("material:new-resin", "scattering"),
    ("drivetrain", "syringe_bore_mm"), ("drivetrain", "syringe_capacity_ml"),
    ("drivetrain", "plunger_travel_mm"), ("drivetrain", "lead_mm_per_rev"),
    ("drivetrain", "screw_efficiency"), ("drivetrain", "rated_torque_nm"),
    ("drivetrain", "max_step_rate_hz"), ("extrusion", "flow_mm3_s"),
    ("extrusion", "nozzle_diameter_mm"), ("extrusion", "nozzle_land_mm"),
    ("uv", "wavelength_nm"), ("uv", "standoff_mm"), ("cure", "bead_aspect"),
    ("cure", "max_dwell_s")])
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


@pytest.mark.parametrize("section, key, nonzero", [
    ("kinematics", "d1_mm", False), ("kinematics", "a3_mm", True), ("kinematics", "d4_mm", False),
    ("kinematics", "d5_mm", False), ("kinematics", "d6_mm", True),
    ("kinematics", "tcp_offset_z_mm", False), ("cell", "origin_x_mm", False),
    ("cell", "origin_y_mm", False), ("cell", "origin_z_mm", False),
    ("uv", "trail_offset_mm", False)])
def test_link_and_placement_keys_must_be_finite(section, key, nonzero):
    rule = "finite and non-zero" if nonzero else "finite"
    for value in ("nan", "inf", "-inf", *(("0",) if nonzero else ())):
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must be {rule}, got .*{value}"):
            loads_config(f"[{section}]\n{key} = {value}\n")
    # either sign is a valid link constant or placement
    assert getattr(getattr(loads_config(f"[{section}]\n{key} = -12.5\n"), section), key) == -12.5
    if not nonzero:
        assert getattr(getattr(loads_config(f"[{section}]\n{key} = 0\n"), section), key) == 0.0


def test_a2_must_be_finite_and_negative():
    # the closed-form q2 of the inverse kinematics holds for a2 < 0 only
    for value in ("nan", "inf", "-inf", "0", "425", "1e-300"):
        with pytest.raises(ConfigError,
                           match=rf"\[kinematics\] a2_mm must be finite and < 0, got .*{value}"):
            loads_config(f"[kinematics]\na2_mm = {value}\n")
    assert loads_config("[kinematics]\na2_mm = -12.5\n").kinematics.a2_mm == -12.5


@pytest.mark.parametrize("key", ["full_steps_per_rev", "microstepping"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_integer_drive_keys_must_be_positive(key, value):
    with pytest.raises(ConfigError, match=rf"\[drivetrain\] {key} must be finite and > 0"):
        loads_config(f"[drivetrain]\n{key} = {value}\n")


@pytest.mark.parametrize("section, key", [
    ("uv", "power_w"), ("uv", "optical_efficiency"), ("cure", "crown_fraction"),
    ("cure", "c_spread")])
def test_dose_and_spread_keys_must_be_finite_and_non_negative(section, key):
    for value in ("-1", "nan", "inf"):
        with pytest.raises(ConfigError,
                           match=rf"\[{section}\] {key} must be finite and >= 0, got .*{value}"):
            loads_config(f"[{section}]\n{key} = {value}\n")
    # a dark lamp or no spread is a valid job
    assert getattr(getattr(loads_config(f"[{section}]\n{key} = 0\n"), section), key) == 0.0


def test_extension_is_zero_or_at_least_a_floor():
    # an overrun of 1e-300 mm vanishes in its run end's coordinates
    for value in ("-1", "1e-300", "0.0099", "nan", "inf"):
        with pytest.raises(ConfigError, match=r"\[job\] extension_mm must be finite and "
                                              rf"0 or >= 0.01, got .*{value}"):
            loads_config(f"[job]\nextension_mm = {value}\n")
    # no lead is a valid job
    for value in (0.0, 0.01):
        assert loads_config(f"[job]\nextension_mm = {value!r}\n").job.extension_mm == value


@pytest.mark.parametrize("section, key, upper", [
    ("uv", "cone_half_angle_deg", "90"), ("job", "corner_threshold_deg", "180")])
def test_angle_keys_must_lie_in_their_open_interval(section, key, upper):
    for value in ("0", "-1", upper, "nan", "inf"):
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must be in \(0, {upper}\)"):
            loads_config(f"[{section}]\n{key} = {value}\n")
    assert getattr(getattr(loads_config(f"[{section}]\n{key} = 45\n"), section), key) == 45.0


@pytest.mark.parametrize("section, key, value", [
    ("kinematics", "a2_mm", "-1e308"), ("kinematics", "d1_mm", "-2e9"),
    ("cell", "origin_x_mm", "1.5e9"), ("drivetrain", "syringe_bore_mm", "1e308"),
    ("job", "layer_height_mm", "1e308"), ("job", "extension_mm", "1e308"),
    ("uv", "trail_offset_mm", "-1e308")])
def test_magnitudes_above_1e9_are_rejected(section, key, value):
    # they overflow where lengths are squared
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must be at most 1e\+09"):
        loads_config(f"[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize("section, key, floor", [
    ("job", "layer_height_mm", "0.01"),
    ("cure", "sweep_dt_s", "0.0001"),
    ("cell", "collision_dt_s", "0.0001"),
    ("job", "speed_2d_mm_s", "0.001"), ("job", "speed_3d_mm_s", "0.001"),
    ("job", "travel_speed_mm_s", "0.001"), ("cell", "reorient_rate_rad_s", "0.001")])
def test_step_keys_have_a_floor(section, key, floor):
    # a tiny step asks for more samples or subsegments than an array
    # holds, and a tiny speed or rate makes a move's time overflow
    for value in ("1e-300", f"{float(floor) * 0.99!r}"):
        with pytest.raises(ConfigError,
                           match=rf"\[{section}\] {key} must be finite and >= {floor}, got "):
            loads_config(f"[{section}]\n{key} = {value}\n")
    cfg = loads_config(f"[{section}]\n{key} = {floor}\n")
    assert getattr(getattr(cfg, section), key) == float(floor)


def test_resolution_lies_between_its_floor_and_1_mm():
    # deposition takes one element per subsegment of at most 1 mm
    for value in ("1e-300", "0.0099", "1.01", "7", "nan"):
        with pytest.raises(ConfigError, match=r"\[job\] resolution_mm must be in "
                                              rf"\[0.01, 1\], got .*{value}"):
            loads_config(f"[job]\nresolution_mm = {value}\n")
    for value in (0.01, 1.0):
        assert loads_config(f"[job]\nresolution_mm = {value!r}\n").job.resolution_mm == value


def test_every_numeric_key_has_exactly_one_load_rule():
    # the 54 keys the no-traceback property sets, with "material" for its
    # [material:NAME]; a field holds one rule, a (text, test) pair, and
    # the only other fields with a rule are a material's base and filler
    from test_no_traceback import KEYS
    numeric = {(sec.split(":")[0], key) for sec, key in KEYS}
    assert len(numeric) == len(KEYS) == 54
    records = [(sec.name, sec.default_factory) for sec in fields(config.Config)
               if sec.name != "materials"] + [("material", config.Material)]
    for sec, cls in records:
        for f in fields(cls):
            ruled = (sec, f.name) in numeric or (sec == "material"
                                                 and f.name in ("base", "filler"))
            assert ("rule" in f.metadata) == ruled, (sec, f.name)
            if ruled:
                text, ok = f.metadata["rule"]
                assert isinstance(text, str) and callable(ok), (sec, f.name)


@pytest.mark.parametrize("section, key, value", [
    ("material:dlp-fs9", "cure_rate_per_j_mm2", "2e9"),
    ("material:new-resin", "scattering", "1e300"),
    ("material:dlp-fs9", "viscosity_index", "1e308")])
def test_material_magnitudes_above_1e9_are_rejected(section, key, value):
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must be at most 1e\+09"):
        loads_config(f"[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize("text, match", [
    # gel dose -0.0: 1 - 1e-300 rounds to 1
    ("[material:dlp-fs9]\nalpha_gel = 1e-300\n",
     r"\[material:dlp-fs9\] alpha_gel must give a finite gel dose > 0, got 1e-300 .*-0\.0"),
    # k = 1e-200 x 1e-200 underflows to 0
    ("[material:x]\ncure_rate_per_j_mm2 = 1e-200\nscattering = 1e-200\n",
     r"\[material:x\] alpha_gel must give a finite gel dose > 0, got 0.3 .*inf"),
    ("[drivetrain]\nsyringe_capacity_ml = 100\n",
     r"\[drivetrain\] syringe_capacity_ml must be within 5% .*201.062 ml, got 100.0"),
    ("[extrusion]\nflow_mm3_s = 1e5\n",
     r"\[extrusion\] flow_mm3_s needs a step rate of 15915\.494/s, more than "
     r"\[drivetrain\] max_step_rate_hz"),
    ("[drivetrain]\nlead_mm_per_rev = 5e-324\n[extrusion]\nflow_mm3_s = 5e-324\n",
     r"\[extrusion\] flow_mm3_s needs a step rate of nan/s"),
    ("[uv]\nstandoff_mm = 1e-200\n", r"\[uv\] standoff_mm must give a spot of positive radius"),
], ids=["gel-dose-0", "k-underflow", "capacity", "step-rate", "step-rate-nan", "spot-area"])
def test_cross_key_invariants_name_a_key(text, match):
    with pytest.raises(ConfigError, match=match):
        loads_config(text)


def test_default_section_is_refused():
    # configparser copies [DEFAULT] keys into every section
    for text in ("[DEFAULT]\nresolution_mm = 1e-300\n",
                 "[DEFAULT]\nresolution_mm = 0.5\n[job]\nshape = wall-20x3\n"):
        with pytest.raises(ConfigError, match=r"^<string>: \[DEFAULT\] resolution_mm would apply"):
            loads_config(text)
    assert loads_config("[DEFAULT]\n[job]\nshape = wall-20x3\n").job.shape == "wall-20x3"


@pytest.mark.parametrize("key", ["schema_versoin", "version", "shape"])
def test_meta_holds_only_the_schema_version(key):
    # a misspelt schema_version would otherwise load as the current schema
    with pytest.raises(ConfigError, match=rf"^<string>: \[meta\] {key} is not a known key"):
        loads_config(f"[meta]\n{key} = 2\n")
    assert loads_config("[meta]\nschema_version = 1\n") == default_config()


def test_job_material_names_a_material_of_the_loaded_library():
    with pytest.raises(ConfigError, match=r"^<string>: \[job\] material must be one of "
                                          r"acrylic \| dlp-fs2\.8 \| .*, got 'custom'$"):
        loads_config("[job]\nmaterial = custom\n")
    cfg = loads_config("[job]\nmaterial = custom\n[material:custom]\nviscosity_index = 2\n")
    assert cfg.job.material == "custom" and cfg.materials["custom"].viscosity_index == 2.0


@pytest.mark.parametrize("shape, error", [
    ("nan", "unknown shape id 'nan'"), ("wall-50", "shape 'wall' needs 2 positive dimensions"),
    ("square-1x.x1", "bad dimensions in shape id 'square-1x.x1'")])
def test_job_shape_parses_as_a_shape_id(shape, error):
    with pytest.raises(ConfigError, match=rf"^<string>: \[job\] shape: {re.escape(error)}$"):
        loads_config(f"[job]\nshape = {shape}\n")
    for good in ("rectangle-90x60", "wall-0.5x2", "square-30x30x8.5"):
        assert loads_config(f"[job]\nshape = {good}\n").job.shape == good


def test_obstacle_errors_name_the_file_and_a_material_name_key_is_refused():
    with pytest.raises(ConfigError, match=r"^<string>: \[cell\] obstacles: '1,2,3': a box "):
        loads_config("[cell]\nobstacles = 1,2,3\n")
    # a material is named by its header; the key would be dropped unseen
    for sec in ("material:dlp-fs9", "material:new-resin"):
        with pytest.raises(ConfigError, match=rf"^<string>: \[{sec}\] name is not a key"):
            loads_config(f"[{sec}]\nname = {sec[9:]}\n")


@pytest.mark.parametrize("section, key, value", [
    ("material:dlp-fs9", "base", "unobtainium"),
    ("material:dlp-fs9", "filler", "gold"),
    ("material:new-resin", "filler", "Fumed-Silica"),
    ("material:acrylic", "base", "")])
def test_material_base_and_filler_take_one_of_their_listed_values(section, key, value):
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must be one of .*{value!r}"):
        loads_config(f"[{section}]\n{key} = {value}\n")


def _readme_choices() -> dict[str, list[str]]:
    """The values the README's Configuration section lists for base and filler."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return {key: re.findall(r"`([^`]+)`", re.search(rf"`{key}` is ([^.]*)\.", text)[1])
            for key in ("base", "filler")}


def test_every_listed_base_and_filler_loads():
    choices = _readme_choices()
    assert choices == {"base": ["dlp", "acrylic"],
                       "filler": ["none", "milled-gf", "fumed-silica"]}
    for key, allowed in choices.items():
        for value in allowed:
            cfg = loads_config(f"[material:x]\n{key} = {value}\n")
            assert getattr(cfg.materials["x"], key) == value
    for m in default_config().materials.values():
        assert m.base in choices["base"] and m.filler in choices["filler"]


def test_a_material_with_two_bad_keys_names_the_first_in_field_order():
    # base and filler are declared before the numeric keys
    with pytest.raises(ConfigError, match=r"^<string>: \[material:dlp-fs9\] filler must be one of "):
        loads_config("[material:dlp-fs9]\nviscosity_index = 0\nfiller = gold\n")

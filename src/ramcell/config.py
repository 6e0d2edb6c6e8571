"""Cell configuration: sectioned key=value file with a versioned schema.

Every tunable constant of the toolkit lives here so a job is fully
described by one file. `default_config()` is the documented baseline;
`load_config()` applies a file's overrides on top of it and
`dump_config()` writes the effective configuration back out such that
reloading reproduces it exactly.
"""

from __future__ import annotations

import configparser
import io
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import RamcellError

SCHEMA_VERSION = 1


class ConfigError(RamcellError):
    pass


@dataclass(frozen=True)
class KinematicsConfig:
    # manufacturer link constants for the 6-DOF arm, mm / rad
    d1_mm: float = 162.5
    a2_mm: float = -425.0
    a3_mm: float = -392.2
    d4_mm: float = 133.3
    d5_mm: float = 99.7
    d6_mm: float = 99.6
    joint_limit_rad: float = 2.0 * math.pi
    # nozzle tip relative to the wrist flange, along the tool axis
    tcp_offset_z_mm: float = 200.0
    singular_eps: float = 1e-4


@dataclass(frozen=True)
class CellConfig:
    # print origin: where the center of the part lands, in base frame
    origin_x_mm: float = 400.0
    origin_y_mm: float = 0.0
    origin_z_mm: float = 0.0
    capsule_radius_mm: float = 60.0
    capsule_length_mm: float = 250.0
    max_joint_speed_rad_s: float = 3.0
    reorient_rate_rad_s: float = 1.0
    collision_dt_s: float = 0.01
    # "xmin,ymin,zmin,xmax,ymax,zmax" boxes, semicolon separated
    obstacles: str = ""


@dataclass(frozen=True)
class DriveTrainConfig:
    syringe_bore_mm: float = 40.0
    syringe_capacity_ml: float = 200.0
    plunger_travel_mm: float = 160.0
    lead_mm_per_rev: float = 8.0
    full_steps_per_rev: int = 200
    microstepping: int = 8
    # accepted and checked, but read by no model
    screw_efficiency: float = 0.5
    rated_torque_nm: float = 1.9
    max_step_rate_hz: float = 5000.0

    def bore_area_mm2(self) -> float:
        return math.pi * (self.syringe_bore_mm / 2.0) ** 2

    def steps_per_mm(self) -> float:
        return self.full_steps_per_rev * self.microstepping / self.lead_mm_per_rev

    def step_rate(self, q_mm3_s: float) -> float:
        """Steps/s that push resin at the requested volumetric rate."""
        plunger_speed = q_mm3_s / self.bore_area_mm2()  # mm/s
        return plunger_speed * self.steps_per_mm()


@dataclass(frozen=True)
class ExtrusionConfig:
    flow_mm3_s: float = 5.3
    nozzle_diameter_mm: float = 1.5
    nozzle_land_mm: float = 10.0  # accepted and checked, but read by no model


@dataclass(frozen=True)
class UVConfig:
    power_w: float = 10.0
    optical_efficiency: float = 0.3
    wavelength_nm: float = 365.0  # accepted and checked, but read by no model
    cone_half_angle_deg: float = 24.0
    # standoff/trail place the footprint just behind the light-blocking
    # wall (near edge ~0.8 mm behind the tip, far edge ~14 mm), so the
    # 25 mm lead overrun sweeps the full spot past every path end
    standoff_mm: float = 15.0
    trail_offset_mm: float = 7.5

    def footprint_radius_mm(self) -> float:
        return self.standoff_mm * math.tan(math.radians(self.cone_half_angle_deg))

    def irradiance_w_mm2(self) -> float:
        r = self.footprint_radius_mm()
        return self.power_w * self.optical_efficiency / (math.pi * r * r)


@dataclass(frozen=True)
class CureConfig:
    sweep_dt_s: float = 0.02
    bead_aspect: float = 1.4
    crown_fraction: float = 0.25
    # single global spread coefficient, fit once against the commissioning
    # measurements and frozen (see README, calibration section)
    c_spread: float = 6.670888
    max_dwell_s: float = 60.0
    alpha_min: float = 0.8


@dataclass(frozen=True)
class Material:
    name: str
    base: str = "dlp"            # dlp | acrylic
    filler: str = "none"         # none | milled-gf | fumed-silica
    filler_wt_pct: float = 0.0
    viscosity_index: float = 1.0
    cure_rate_per_j_mm2: float = 60.0
    attenuation_depth_mm: float = 0.25
    alpha_gel: float = 0.3
    scattering: float = 1.0

    def gel_dose_j_mm2(self) -> float:
        """Dose at which 1 - exp(-k dose) reaches alpha_gel; inf where k is 0."""
        k = self.cure_rate_per_j_mm2 * self.scattering
        return -math.log(1.0 - self.alpha_gel) / k if k > 0.0 else math.inf


@dataclass(frozen=True)
class JobConfig:
    shape: str = "rectangle-90x60"
    material: str = "dlp-gf50"
    speed_2d_mm_s: float = 3.0
    speed_3d_mm_s: float = 4.0
    travel_speed_mm_s: float = 20.0
    # 0.85 mm makes the 8.5 mm square specimen exactly ten layers
    layer_height_mm: float = 0.85
    extension_mm: float = 25.0
    corner_threshold_deg: float = 30.0
    resolution_mm: float = 1.0
    out_dir: str = "out"


def default_materials() -> dict[str, Material]:
    """Bundled resin formulations.

    Viscosity indices are an ordinal scale: only the ordering across the
    filler ladder carries meaning.  Cure constants are phenomenological
    calibration values, not measured kinetics.
    """
    mats = [
        Material("acrylic", base="acrylic", viscosity_index=2.0,
                 cure_rate_per_j_mm2=2000.0),
        Material("dlp-gf0", filler="none", filler_wt_pct=0.0, viscosity_index=1.0),
        Material("dlp-gf35", filler="milled-gf", filler_wt_pct=35.0, viscosity_index=1.1),
        Material("dlp-gf50", filler="milled-gf", filler_wt_pct=50.0, viscosity_index=4.0),
        Material("dlp-fs2.8", filler="fumed-silica", filler_wt_pct=2.8, viscosity_index=4.0),
        Material("dlp-fs9", filler="fumed-silica", filler_wt_pct=9.0, viscosity_index=6.0),
    ]
    return {m.name: m for m in mats}


@dataclass(frozen=True)
class Config:
    kinematics: KinematicsConfig = field(default_factory=KinematicsConfig)
    cell: CellConfig = field(default_factory=CellConfig)
    drivetrain: DriveTrainConfig = field(default_factory=DriveTrainConfig)
    extrusion: ExtrusionConfig = field(default_factory=ExtrusionConfig)
    uv: UVConfig = field(default_factory=UVConfig)
    cure: CureConfig = field(default_factory=CureConfig)
    job: JobConfig = field(default_factory=JobConfig)
    materials: dict[str, Material] = field(default_factory=default_materials)


def default_config() -> Config:
    return Config()


_SECTIONS = {
    "kinematics": KinematicsConfig,
    "cell": CellConfig,
    "drivetrain": DriveTrainConfig,
    "extrusion": ExtrusionConfig,
    "uv": UVConfig,
    "cure": CureConfig,
    "job": JobConfig,
}


def _records(cfg: Config) -> list[tuple[str, str, object]]:
    """(header, rule table key, record) of each section, then each material."""
    return [(sec, sec, getattr(cfg, sec)) for sec in _SECTIONS] + [
        (f"material:{name}", "material", cfg.materials[name]) for name in sorted(cfg.materials)]


def _coerce(cls, sec: str, key: str, raw: str, origin: str):
    types = {f.name: f.type for f in fields(cls)}
    if key not in types:
        raise ConfigError(f"{origin}: unknown key '{key}' for section [{sec}]")
    convert = {"int": int, "float": float}.get(types[key], str)  # annotations are strings
    try:
        return convert(raw)
    except ValueError as exc:
        raise ConfigError(f"{origin}: [{sec}] {key}: {exc}") from exc


def load_config(path: str) -> Config:
    """Read a UTF-8 config file and overlay it on the defaults."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return _parse(text, path)


def loads_config(text: str) -> Config:
    return _parse(text, "<string>")


# A rule is the text of its message and the test a value must pass
Rule = tuple[str, Callable[[float], bool]]
FINITE: Rule = ("finite", math.isfinite)
NON_ZERO: Rule = ("finite and non-zero", lambda v: math.isfinite(v) and v != 0.0)
POSITIVE: Rule = ("finite and > 0", lambda v: math.isfinite(v) and v > 0.0)
NON_NEGATIVE: Rule = ("finite and >= 0", lambda v: math.isfinite(v) and v >= 0.0)


def _floor(lo: float, or_zero: bool = False) -> Rule:
    text = f"0 or >= {lo:g}" if or_zero else f">= {lo:g}"
    return f"finite and {text}", lambda v: math.isfinite(v) and (v >= lo or (or_zero and v == 0.0))


def _within(lo: float, hi: float, closed: bool = False) -> Rule:
    if closed:
        return f"in [{lo:g}, {hi:g}]", lambda v: lo <= v <= hi
    return f"in ({lo:g}, {hi:g})", lambda v: lo < v < hi  # also rejects NaN


# The one rule of every numeric key, checked once at load ("material"
# stands for each [material:NAME]).  A zero, negative or non-finite value
# ends in a division by zero, an endless sweep or a negative bead width,
# or (NaN) makes a check's comparison never true.  A tiny step asks for
# more samples than an array holds, and below its floor a speed or rate
# overflows a move's time (MAX_SUBSEGMENTS moves of MAX_MAGNITUDE mm at
# 1e-3 mm/s still take a finite 2e18 s).
RULES: dict[str, dict[str, Rule]] = {
    # link constants may take either sign; the closed-form IK divides by
    # a2, a3 and d6
    "kinematics": dict(d1_mm=FINITE, a2_mm=NON_ZERO, a3_mm=NON_ZERO, d4_mm=FINITE,
                       d5_mm=FINITE, d6_mm=NON_ZERO, joint_limit_rad=POSITIVE,
                       tcp_offset_z_mm=FINITE, singular_eps=POSITIVE),
    "cell": dict(origin_x_mm=FINITE, origin_y_mm=FINITE, origin_z_mm=FINITE,
                 capsule_radius_mm=POSITIVE, capsule_length_mm=POSITIVE,
                 max_joint_speed_rad_s=POSITIVE, reorient_rate_rad_s=_floor(1e-3),
                 collision_dt_s=_floor(1e-4)),
    "drivetrain": {f.name: POSITIVE for f in fields(DriveTrainConfig)},
    "extrusion": {f.name: POSITIVE for f in fields(ExtrusionConfig)},
    # a dark lamp is a valid job; the spot cone's tangent needs (0, 90)
    "uv": dict(power_w=NON_NEGATIVE, optical_efficiency=NON_NEGATIVE,
               wavelength_nm=POSITIVE, cone_half_angle_deg=_within(0.0, 90.0),
               standoff_mm=POSITIVE, trail_offset_mm=FINITE),
    # no spread is a valid job
    "cure": dict(sweep_dt_s=_floor(1e-4), bead_aspect=POSITIVE, crown_fraction=NON_NEGATIVE,
                 c_spread=NON_NEGATIVE, max_dwell_s=POSITIVE, alpha_min=_within(0.0, 1.0)),
    # a tiny lead vanishes in its run end's coordinates, so the lead is 0
    # (no overruns) or at least its floor; the corner test's acos needs
    # (0, 180); deposition never takes a step longer than 1 mm
    "job": dict(speed_2d_mm_s=_floor(1e-3), speed_3d_mm_s=_floor(1e-3),
                travel_speed_mm_s=_floor(1e-3), layer_height_mm=_floor(0.01),
                extension_mm=_floor(0.01, or_zero=True), corner_threshold_deg=_within(0.0, 180.0),
                resolution_mm=_within(0.01, 1.0, closed=True)),
    # an alpha_gel of 0 would gel every element at the first UV sample
    "material": dict(filler_wt_pct=_within(0.0, 100.0, closed=True), viscosity_index=POSITIVE,
                     cure_rate_per_j_mm2=POSITIVE, attenuation_depth_mm=POSITIVE,
                     alpha_gel=_within(0.0, 1.0), scattering=POSITIVE),
}
# the values a material's text keys may take
CHOICES: dict[str, tuple[str, ...]] = {
    "base": ("dlp", "acrylic"),
    "filler": ("none", "milled-gf", "fumed-silica"),
}
# larger magnitudes overflow where the kinematics, the syringe and the
# toolpath square lengths
MAX_MAGNITUDE = 1e9


def _check(where: str, record, rules: dict[str, Rule]) -> None:
    for key, (text, ok) in rules.items():
        value = getattr(record, key)
        if not ok(value):
            raise ConfigError(f"{where} {key} must be {text}, got {value!r}")
        if abs(value) > MAX_MAGNITUDE:
            raise ConfigError(f"{where} {key} must be at most {MAX_MAGNITUDE:g} "
                              f"in magnitude, got {value!r}")


def _check_cross_keys(cfg: Config, origin: str) -> None:
    """Invariants across keys, each of which passed its own rule."""
    drive, uv = cfg.drivetrain, cfg.uv
    capacity = drive.syringe_capacity_ml * 1000.0  # mm^3
    swept = drive.bore_area_mm2() * drive.plunger_travel_mm
    if abs(swept - capacity) > 0.05 * capacity:
        raise ConfigError(f"{origin}: [drivetrain] syringe_capacity_ml must be within 5% of "
                          f"plunger_travel_mm x bore area, {swept / 1000.0:g} ml, "
                          f"got {drive.syringe_capacity_ml!r}")
    # the bore area is > 0 once the capacity matches it
    rate = drive.step_rate(cfg.extrusion.flow_mm3_s)
    if not rate <= drive.max_step_rate_hz:  # also rejects NaN
        raise ConfigError(f"{origin}: [extrusion] flow_mm3_s needs a step rate of "
                          f"{rate:.3f}/s, more than [drivetrain] max_step_rate_hz, "
                          f"got {cfg.extrusion.flow_mm3_s!r}")
    r = uv.footprint_radius_mm()
    if not (r > 0.0 and math.pi * r * r > 0.0 and math.isfinite(uv.irradiance_w_mm2())):
        raise ConfigError(f"{origin}: [uv] standoff_mm must give a spot of positive radius and "
                          f"area and finite irradiance, got {uv.standoff_mm!r} (radius {r!r} mm)")
    # the dose sweep records a gel time only past a gel dose > 0
    for name, m in cfg.materials.items():
        gel = m.gel_dose_j_mm2()
        if not 0.0 < gel < math.inf:
            raise ConfigError(f"{origin}: [material:{name}] alpha_gel must give a finite gel "
                              f"dose > 0, got {m.alpha_gel!r} (gel dose {gel!r} J/mm^2)")


def _parse(text: str, origin: str) -> Config:
    # values are literal: dump_config writes them raw, '%' included
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(" ".join(str(exc).split())) from exc  # on one line
    if parser.defaults():
        # configparser would copy them into every section, unchecked
        raise ConfigError(f"{origin}: [DEFAULT] {', '.join(parser.defaults())} would apply "
                          "to every section; set each key in its own section")
    for key in parser.options("meta") if parser.has_section("meta") else ():
        if key != "schema_version":
            raise ConfigError(f"{origin}: [meta] {key} is not a known key; [meta] holds "
                              "only schema_version")
    version = parser.get("meta", "schema_version", fallback=str(SCHEMA_VERSION))
    if version != str(SCHEMA_VERSION):
        raise ConfigError(f"{origin}: unsupported schema_version {version!r}")
    cfg = default_config()
    sections: dict[str, object] = {}
    materials = dict(cfg.materials)
    for sec in parser.sections():
        if sec == "meta":
            continue
        cls = Material if sec.startswith("material:") else _SECTIONS.get(sec)
        if cls is None:
            raise ConfigError(f"{origin}: unknown section [{sec}]")
        kwargs = {key: _coerce(cls, sec, key, raw, origin) for key, raw in parser.items(sec)}
        if cls is Material:
            name = sec.split(":", 1)[1]
            kwargs.pop("name", None)
            materials[name] = replace(materials.get(name, Material(name)), **kwargs)
        else:
            sections[sec] = replace(getattr(cfg, sec), **kwargs)
    cfg = replace(cfg, materials=materials, **sections)
    for header, rules, record in _records(cfg):
        _check(f"{origin}: [{header}]", record, RULES[rules])
        for key, allowed in CHOICES.items() if rules == "material" else ():
            if getattr(record, key) not in allowed:
                raise ConfigError(f"{origin}: [{header}] {key} must be one of "
                                  f"{' | '.join(allowed)}, got {getattr(record, key)!r}")
    _check_cross_keys(cfg, origin)
    parse_obstacles(cfg.cell)
    return cfg


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def dump_config(cfg: Config) -> str:
    """Serialize the effective configuration; loads_config(dump) == cfg."""
    out = io.StringIO()
    out.write("[meta]\n")
    out.write(f"schema_version = {SCHEMA_VERSION}\n\n")
    for header, _, record in _records(cfg):
        out.write(f"[{header}]\n")
        for f in fields(record):
            if f.name != "name":  # a material's name is its header
                out.write(f"{f.name} = {_format_value(getattr(record, f.name))}\n")
        out.write("\n")
    return out.getvalue()


def parse_obstacles(cell: CellConfig) -> list[tuple[float, ...]]:
    """Expand the obstacle string into (xmin,ymin,zmin,xmax,ymax,zmax) boxes."""
    boxes = []
    for chunk in cell.obstacles.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            parts = [float(p) for p in chunk.split(",")]
        except ValueError as exc:
            raise ConfigError(f"[cell] obstacles: '{chunk}': {exc}") from exc
        if len(parts) != 6:
            raise ConfigError(f"[cell] obstacles: '{chunk}': a box needs 6 numbers")
        lo = parts[:3]
        hi = parts[3:]
        if not all(l < h for l, h in zip(lo, hi)):  # also rejects NaN
            raise ConfigError(f"[cell] obstacles: '{chunk}': needs min < max on every axis")
        boxes.append(tuple(parts))
    return boxes

"""Cell configuration: sectioned key=value file with a versioned schema.

Every tunable constant of the toolkit lives here so a job is fully
described by one file. `default_config()` is the documented baseline;
`load_config()` applies a file's overrides on top of it and
`dump_config()` writes the effective configuration back out such that
reloading reproduces it exactly.
"""

from __future__ import annotations

import io
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import RamcellError
from .shapes import ShapeError, parse_shape_id

SCHEMA_VERSION = 1


class ConfigError(RamcellError):
    pass


# A rule is the text of its message and the test a value must pass.  Each
# key's rule is declared with its default and checked once at load.  A
# zero, negative or non-finite value ends in a division by zero, an endless
# sweep or a negative bead width, or (NaN) makes a check's comparison never
# true.  A tiny step asks for more samples than an array holds, and below
# its floor a speed or rate overflows a move's time (MAX_SUBSEGMENTS moves
# of MAX_MAGNITUDE mm at 1e-3 mm/s still take a finite 2e18 s).
Rule = tuple[str, Callable[[object], bool]]
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


def _one_of(*values: str) -> Rule:
    return f"one of {' | '.join(values)}", lambda v: v in values


def _key(default, rule: Rule):
    """A config field with its default and the one rule its value must pass."""
    return field(default=default, metadata={"rule": rule})


@dataclass(frozen=True)
class KinematicsConfig:
    # manufacturer link constants for the 6-DOF arm, mm / rad; the others
    # may take either sign, and the closed-form IK divides by a2, a3 and d6
    d1_mm: float = _key(162.5, FINITE)
    # kinematics._arm_joints solves q2 = -atan2(p13_y, -p13_x) +
    # asin(a3 sin q3 / |p13|), which holds for a2 < 0 as on the UR arms
    # (Hawkins 2013); with a2 > 0 no target gets a branch
    a2_mm: float = _key(-425.0, ("finite and < 0", lambda v: math.isfinite(v) and v < 0.0))
    a3_mm: float = _key(-392.2, NON_ZERO)
    d4_mm: float = _key(133.3, FINITE)
    d5_mm: float = _key(99.7, FINITE)
    d6_mm: float = _key(99.6, NON_ZERO)
    joint_limit_rad: float = _key(2.0 * math.pi, POSITIVE)
    # nozzle tip relative to the wrist flange, along the tool axis
    tcp_offset_z_mm: float = _key(200.0, FINITE)
    singular_eps: float = _key(1e-4, POSITIVE)


@dataclass(frozen=True)
class CellConfig:
    # print origin: where the center of the part lands, in base frame
    origin_x_mm: float = _key(400.0, FINITE)
    origin_y_mm: float = _key(0.0, FINITE)
    origin_z_mm: float = _key(0.0, FINITE)
    capsule_radius_mm: float = _key(60.0, POSITIVE)
    capsule_length_mm: float = _key(250.0, POSITIVE)
    max_joint_speed_rad_s: float = _key(3.0, POSITIVE)
    reorient_rate_rad_s: float = _key(1.0, _floor(1e-3))
    collision_dt_s: float = _key(0.01, _floor(1e-4))
    # "xmin,ymin,zmin,xmax,ymax,zmax" boxes, semicolon separated
    obstacles: str = ""


@dataclass(frozen=True)
class DriveTrainConfig:
    syringe_bore_mm: float = _key(40.0, POSITIVE)
    syringe_capacity_ml: float = _key(200.0, POSITIVE)
    plunger_travel_mm: float = _key(160.0, POSITIVE)
    lead_mm_per_rev: float = _key(8.0, POSITIVE)
    full_steps_per_rev: int = _key(200, POSITIVE)
    microstepping: int = _key(8, POSITIVE)
    # accepted and checked, but read by no model
    screw_efficiency: float = _key(0.5, POSITIVE)
    rated_torque_nm: float = _key(1.9, POSITIVE)
    max_step_rate_hz: float = _key(5000.0, POSITIVE)

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
    flow_mm3_s: float = _key(5.3, POSITIVE)
    nozzle_diameter_mm: float = _key(1.5, POSITIVE)
    nozzle_land_mm: float = _key(10.0, POSITIVE)  # accepted and checked, but read by no model


@dataclass(frozen=True)
class UVConfig:
    # a dark lamp is a valid job
    power_w: float = _key(10.0, NON_NEGATIVE)
    optical_efficiency: float = _key(0.3, NON_NEGATIVE)
    wavelength_nm: float = _key(365.0, POSITIVE)  # accepted and checked, but read by no model
    # the spot cone's tangent needs (0, 90)
    cone_half_angle_deg: float = _key(24.0, _within(0.0, 90.0))
    # standoff/trail place the footprint just behind the light-blocking
    # wall (near edge ~0.8 mm behind the tip, far edge ~14 mm), so the
    # 25 mm lead overrun sweeps the full spot past every path end
    standoff_mm: float = _key(15.0, POSITIVE)
    trail_offset_mm: float = _key(7.5, FINITE)

    def footprint_radius_mm(self) -> float:
        return self.standoff_mm * math.tan(math.radians(self.cone_half_angle_deg))

    def irradiance_w_mm2(self) -> float:
        r = self.footprint_radius_mm()
        return self.power_w * self.optical_efficiency / (math.pi * r * r)


@dataclass(frozen=True)
class CureConfig:
    sweep_dt_s: float = _key(0.02, _floor(1e-4))
    bead_aspect: float = _key(1.4, POSITIVE)
    crown_fraction: float = _key(0.25, NON_NEGATIVE)
    # single global spread coefficient, fit once against the commissioning
    # measurements and frozen (see README, calibration section); no spread
    # is a valid job
    c_spread: float = _key(6.670888, NON_NEGATIVE)
    max_dwell_s: float = _key(60.0, POSITIVE)
    alpha_min: float = _key(0.8, _within(0.0, 1.0))


@dataclass(frozen=True)
class Material:
    name: str
    base: str = _key("dlp", _one_of("dlp", "acrylic"))
    filler: str = _key("none", _one_of("none", "milled-gf", "fumed-silica"))
    filler_wt_pct: float = _key(0.0, _within(0.0, 100.0, closed=True))
    viscosity_index: float = _key(1.0, POSITIVE)
    cure_rate_per_j_mm2: float = _key(60.0, POSITIVE)
    attenuation_depth_mm: float = _key(0.25, POSITIVE)
    # an alpha_gel of 0 would gel every element at the first UV sample
    alpha_gel: float = _key(0.3, _within(0.0, 1.0))
    scattering: float = _key(1.0, POSITIVE)

    def gel_dose_j_mm2(self) -> float:
        """Dose at which 1 - exp(-k dose) reaches alpha_gel; inf where k is 0."""
        k = self.cure_rate_per_j_mm2 * self.scattering
        return -math.log(1.0 - self.alpha_gel) / k if k > 0.0 else math.inf


@dataclass(frozen=True)
class JobConfig:
    shape: str = "rectangle-90x60"
    material: str = "dlp-gf50"
    speed_2d_mm_s: float = _key(3.0, _floor(1e-3))
    speed_3d_mm_s: float = _key(4.0, _floor(1e-3))
    travel_speed_mm_s: float = _key(20.0, _floor(1e-3))
    # 0.85 mm makes the 8.5 mm square specimen exactly ten layers
    layer_height_mm: float = _key(0.85, _floor(0.01))
    # a tiny lead vanishes in its run end's coordinates, so the lead is 0
    # (no overruns) or at least its floor
    extension_mm: float = _key(25.0, _floor(0.01, or_zero=True))
    # the corner test's acos needs (0, 180)
    corner_threshold_deg: float = _key(30.0, _within(0.0, 180.0))
    # deposition never takes a step longer than 1 mm
    resolution_mm: float = _key(1.0, _within(0.01, 1.0, closed=True))
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


def _sections(cfg: Config) -> dict[str, object]:
    """Each section's record by its header: every field of Config but the materials."""
    return {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "materials"}


def _records(cfg: Config) -> list[tuple[str, object]]:
    """(header, record) of each section, then of each material."""
    return list(_sections(cfg).items()) + [
        (f"material:{name}", cfg.materials[name]) for name in sorted(cfg.materials)]


def _coerce(record, sec: str, key: str, raw: str, origin: str):
    types = {f.name: f.type for f in fields(record)}
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


# larger magnitudes overflow where the kinematics, the syringe and the
# toolpath square lengths
MAX_MAGNITUDE = 1e9


def _check(where: str, record) -> None:
    """Each field of `record` against its rule, in field order."""
    for f in fields(record):
        if "rule" not in f.metadata:
            continue
        text, ok = f.metadata["rule"]
        value = getattr(record, f.name)
        if not ok(value):
            raise ConfigError(f"{where} {f.name} must be {text}, got {value!r}")
        if not isinstance(value, str) and abs(value) > MAX_MAGNITUDE:
            raise ConfigError(f"{where} {f.name} must be at most {MAX_MAGNITUDE:g} "
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
    if cfg.job.material not in cfg.materials:
        raise ConfigError(f"{origin}: [job] material must be one of "
                          f"{' | '.join(sorted(cfg.materials))}, got {cfg.job.material!r}")
    # the dose sweep records a gel time only past a gel dose > 0
    for name, m in cfg.materials.items():
        gel = m.gel_dose_j_mm2()
        if not 0.0 < gel < math.inf:
            raise ConfigError(f"{origin}: [material:{name}] alpha_gel must give a finite gel "
                              f"dose > 0, got {m.alpha_gel!r} (gel dose {gel!r} J/mm^2)")


def _parse(text: str, origin: str) -> Config:
    import configparser  # only a process that reads a config file needs it
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
    sections = _sections(cfg)
    materials = dict(cfg.materials)
    for sec in parser.sections():
        if sec == "meta":
            continue
        if sec.startswith("material:"):
            table, name = materials, sec.split(":", 1)[1]
            if parser.has_option(sec, "name"):
                raise ConfigError(f"{origin}: [{sec}] name is not a key; a material is "
                                  "named by its section header")
            materials.setdefault(name, Material(name))
        elif sec in sections:
            table, name = sections, sec
        else:
            raise ConfigError(f"{origin}: unknown section [{sec}]")
        kwargs = {key: _coerce(table[name], sec, key, raw, origin)
                  for key, raw in parser.items(sec)}
        table[name] = replace(table[name], **kwargs)
    cfg = replace(cfg, materials=materials, **sections)
    for header, record in _records(cfg):
        _check(f"{origin}: [{header}]", record)
    _check_cross_keys(cfg, origin)
    try:
        parse_obstacles(cfg.cell)
    except ConfigError as exc:
        raise ConfigError(f"{origin}: {exc}") from exc
    try:
        parse_shape_id(cfg.job.shape)
    except ShapeError as exc:
        raise ConfigError(f"{origin}: [job] shape: {exc}") from exc
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
    for header, record in _records(cfg):
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

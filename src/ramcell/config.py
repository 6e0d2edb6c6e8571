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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import RamcellError

SCHEMA_VERSION = 1


class ConfigError(RamcellError):
    pass


def _check_positive(where: str, key: str, value: float, or_zero: bool = False) -> None:
    if not (math.isfinite(value) and (value > 0.0 or (or_zero and value == 0.0))):
        rule = ">= 0" if or_zero else "> 0"
        raise ConfigError(f"{where} {key} must be finite and {rule}, got {value!r}")


def _check_finite(where: str, key: str, value: float, nonzero: bool = False) -> None:
    if not math.isfinite(value) or (nonzero and value == 0.0):
        rule = "finite and non-zero" if nonzero else "finite"
        raise ConfigError(f"{where} {key} must be {rule}, got {value!r}")


def _check_floor(where: str, key: str, value: float, floor: float,
                 or_zero: bool = False) -> None:
    if not (math.isfinite(value) and (value >= floor or (or_zero and value == 0.0))):
        rule = f"0 or >= {floor:g}" if or_zero else f">= {floor:g}"
        raise ConfigError(f"{where} {key} must be finite and {rule}, got {value!r}")


def _check_fraction(where: str, key: str, value: float, upper: float = 1.0) -> None:
    if not 0.0 < value < upper:  # also rejects NaN
        raise ConfigError(f"{where} {key} must be in (0, {upper:g}), got {value!r}")


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

    def __post_init__(self):
        where = f"[material:{self.name}]"
        if not 0.0 <= self.filler_wt_pct <= 100.0:
            raise ConfigError(f"{where} filler_wt_pct must be in [0, 100], "
                              f"got {self.filler_wt_pct!r}")
        for key in ("viscosity_index", "cure_rate_per_j_mm2", "attenuation_depth_mm",
                    "scattering"):
            _check_positive(where, key, getattr(self, key))
        # a gel dose of 0 would gel every element at the first UV sample
        _check_fraction(where, "alpha_gel", self.alpha_gel)


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


# Every numeric key outside the materials is checked once at load.  Zero,
# negative or non-finite values end in a division by zero, an endless
# sweep, a 0 s move or a negative bead width, or (NaN) switch off the
# collision check, the singularity scan, the joint-speed check, the
# unwrap fold, the corner test and the under-cure check, whose
# comparisons are then never true
_POSITIVE_KEYS = (
    *(("kinematics", k) for k in ("singular_eps", "joint_limit_rad")),
    *(("cell", k) for k in ("capsule_radius_mm", "capsule_length_mm",
                            "max_joint_speed_rad_s")),
    *(("drivetrain", f.name) for f in fields(DriveTrainConfig)),
    *(("extrusion", f.name) for f in fields(ExtrusionConfig)),
    ("uv", "wavelength_nm"), ("uv", "standoff_mm"),
    *(("cure", k) for k in ("bead_aspect", "max_dwell_s")))
# steps and rates: a tiny positive step asks for more samples,
# subsegments or layers than an array (or a lifetime) can hold, and a
# tiny speed or rate overflows a move's time (MAX_SUBSEGMENTS moves of
# MAX_MAGNITUDE mm at 1e-3 mm/s still take a finite 2e18 s); a tiny lead
# vanishes in its run end's coordinates, so the lead is 0 (no overruns)
# or at least its floor (the fourth entry sets or_zero)
_FLOOR_KEYS = (("job", "resolution_mm", 0.01), ("job", "layer_height_mm", 0.01),
               ("cure", "sweep_dt_s", 1e-4), ("cell", "collision_dt_s", 1e-4),
               *(("job", k, 1e-3) for k in ("speed_2d_mm_s", "speed_3d_mm_s",
                                            "travel_speed_mm_s")),
               ("cell", "reorient_rate_rad_s", 1e-3), ("job", "extension_mm", 0.01, True))
# a dark lamp or no spread is a valid job
_NON_NEGATIVE_KEYS = (("uv", "power_w"), ("uv", "optical_efficiency"),
                      ("cure", "crown_fraction"), ("cure", "c_spread"))
# link constants, placement and the spot offset may take either sign;
# the closed-form IK divides by a2, a3 and d6
_FINITE_KEYS = (("kinematics", "d1_mm"), ("kinematics", "d4_mm"), ("kinematics", "d5_mm"),
                ("kinematics", "tcp_offset_z_mm"), ("cell", "origin_x_mm"),
                ("cell", "origin_y_mm"), ("cell", "origin_z_mm"), ("uv", "trail_offset_mm"))
_NONZERO_KEYS = (("kinematics", "a2_mm"), ("kinematics", "a3_mm"), ("kinematics", "d6_mm"))
# open intervals: the spot cone's tangent and the corner test's acos range
_INTERVAL_KEYS = (("uv", "cone_half_angle_deg", 90.0), ("job", "corner_threshold_deg", 180.0),
                  ("cure", "alpha_min", 1.0))
# larger magnitudes overflow where the kinematics, the syringe and the
# toolpath square lengths; the rules above cover every numeric key
MAX_MAGNITUDE = 1e9


def _parse(text: str, origin: str) -> Config:
    # values are literal: dump_config writes them raw, '%' included
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(" ".join(str(exc).split())) from exc  # on one line
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
            try:
                materials[name] = replace(materials.get(name, Material(name)), **kwargs)
            except ConfigError as exc:
                raise ConfigError(f"{origin}: {exc}") from None
        else:
            sections[sec] = replace(getattr(cfg, sec), **kwargs)
    cfg = replace(cfg, materials=materials, **sections)
    for keys, check in ((_POSITIVE_KEYS, _check_positive),
                        (_NON_NEGATIVE_KEYS, lambda *a: _check_positive(*a, or_zero=True)),
                        (_FINITE_KEYS, _check_finite),
                        (_NONZERO_KEYS, lambda *a: _check_finite(*a, nonzero=True)),
                        (_FLOOR_KEYS, _check_floor),
                        (_INTERVAL_KEYS, _check_fraction)):
        for sec, key, *bound in keys:
            value = getattr(getattr(cfg, sec), key)
            check(f"{origin}: [{sec}]", key, value, *bound)
            if abs(value) > MAX_MAGNITUDE:
                raise ConfigError(f"{origin}: [{sec}] {key} must be at most "
                                  f"{MAX_MAGNITUDE:g} in magnitude, got {value!r}")
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
    for sec, cls in _SECTIONS.items():
        out.write(f"[{sec}]\n")
        obj = getattr(cfg, sec)
        for f in fields(cls):
            out.write(f"{f.name} = {_format_value(getattr(obj, f.name))}\n")
        out.write("\n")
    for name in sorted(cfg.materials):
        m = cfg.materials[name]
        out.write(f"[material:{name}]\n")
        for f in fields(Material):
            if f.name == "name":
                continue
            out.write(f"{f.name} = {_format_value(getattr(m, f.name))}\n")
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

"""Deposition, trailing-spot dose accumulation, cure and bead spreading.

Extruded material is discretized into bead elements, one per resampled
extruding subsegment, with a rectangular width x height cross-section
conserving the volumetric flow.  A time-stepped sweep moves the circular
UV footprint along the toolpath timeline and accumulates dose on every
deposited element inside it, attenuated exponentially with burial depth
under the current nozzle plane.  Cure degree follows a saturating
exponential in dose; beads spread sideways in proportion to how long
they sit uncured, divided by the formulation's viscosity index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import RamcellError
from .config import CureConfig, Material, UVConfig
from .extrusion import FlowModel
from .toolpath import Toolpath, time_profile


class CureError(RamcellError):
    pass


@dataclass(frozen=True)
class UVSpot:
    power_w: float = 10.0
    optical_efficiency: float = 0.3
    wavelength_nm: float = 365.0
    cone_half_angle_rad: float = math.radians(24.0)
    standoff_mm: float = 15.0
    trail_mm: float = 7.5

    def __post_init__(self):
        if self.footprint_radius_mm() <= 0.0:
            raise CureError("spot footprint must have positive radius")

    def footprint_radius_mm(self) -> float:
        return self.standoff_mm * math.tan(self.cone_half_angle_rad)

    def irradiance_w_mm2(self) -> float:
        r = self.footprint_radius_mm()
        return self.power_w * self.optical_efficiency / (math.pi * r * r)

    @staticmethod
    def from_config(cfg: UVConfig) -> "UVSpot":
        return UVSpot(cfg.power_w, cfg.optical_efficiency, cfg.wavelength_nm,
                      math.radians(cfg.cone_half_angle_deg), cfg.standoff_mm,
                      cfg.trail_offset_mm)


@dataclass(frozen=True)
class BeadElement:
    centroid: tuple[float, float, float]
    deposit_time: float
    length_mm: float
    width0_mm: float
    width_mm: float
    height_mm: float
    volume_mm3: float
    dose_j_mm2: float
    alpha: float
    layer: int


@dataclass
class DepositionMap:
    """Columnar store of bead elements plus the deposit-time material."""

    material: Material
    layer_height_mm: float
    x: np.ndarray = field(default_factory=lambda: np.zeros(0))
    y: np.ndarray = field(default_factory=lambda: np.zeros(0))
    z: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dir_x: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dir_y: np.ndarray = field(default_factory=lambda: np.zeros(0))
    deposit_time: np.ndarray = field(default_factory=lambda: np.zeros(0))
    length: np.ndarray = field(default_factory=lambda: np.zeros(0))
    width0: np.ndarray = field(default_factory=lambda: np.zeros(0))
    width: np.ndarray = field(default_factory=lambda: np.zeros(0))
    height: np.ndarray = field(default_factory=lambda: np.zeros(0))
    volume: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dose: np.ndarray = field(default_factory=lambda: np.zeros(0))
    alpha: np.ndarray = field(default_factory=lambda: np.zeros(0))
    gel_time: np.ndarray = field(default_factory=lambda: np.zeros(0))
    layer: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    def __len__(self) -> int:
        return len(self.x)

    def element(self, i: int) -> BeadElement:
        return BeadElement(
            centroid=(float(self.x[i]), float(self.y[i]), float(self.z[i])),
            deposit_time=float(self.deposit_time[i]),
            length_mm=float(self.length[i]),
            width0_mm=float(self.width0[i]),
            width_mm=float(self.width[i]),
            height_mm=float(self.height[i]),
            volume_mm3=float(self.volume[i]),
            dose_j_mm2=float(self.dose[i]),
            alpha=float(self.alpha[i]),
            layer=int(self.layer[i]),
        )

    def total_volume(self) -> float:
        return float(np.sum(self.volume))

    def layer_summary(self) -> dict[int, dict[str, float]]:
        out: dict[int, dict[str, float]] = {}
        for lay in sorted(set(int(v) for v in self.layer)):
            m = self.layer == lay
            out[lay] = {
                "count": float(np.count_nonzero(m)),
                "volume_mm3": float(np.sum(self.volume[m])),
                "min_dose": float(np.min(self.dose[m])),
                "mean_alpha": float(np.mean(self.alpha[m])),
            }
        return out


def gel_dose(material: Material) -> float:
    k = material.cure_rate_per_j_mm2 * material.scattering
    return -math.log(1.0 - material.alpha_gel) / k


def deposit(path: Toolpath, flow: FlowModel, material: Material, res_mm: float,
            layer_height_mm: float = 0.85, aspect: float = 1.4,
            reorient_rate: float = 1.0) -> DepositionMap:
    """One bead element per extruding subsegment of a resampled path.

    Cross-section area is flow over speed; the fresh bead starts at the
    configured width:height aspect.  Deposit times come off the shared
    timeline so dose accumulation sees elements appear mid-sweep.
    """
    cols: dict[str, list] = {k: [] for k in
                             ("x", "y", "z", "dx", "dy", "t", "len", "w0", "h", "vol", "lay")}
    for e in time_profile(path, reorient_rate):
        if e.kind != "move" or not e.extruding:
            continue
        seg_len = (e.end - e.start).norm()
        if seg_len > res_mm + 1e-9:
            raise CureError(
                f"extruding segment of {seg_len:.3f} mm exceeds deposit resolution {res_mm} mm")
        area = flow.q_mm3_s / e.speed
        w0 = math.sqrt(aspect * area)
        mid = e.start + (e.end - e.start) * 0.5
        d = e.end - e.start
        horiz = math.hypot(d.x, d.y)
        cols["x"].append(mid.x)
        cols["y"].append(mid.y)
        cols["z"].append(mid.z)
        cols["dx"].append(d.x / horiz if horiz > 1e-12 else 0.0)
        cols["dy"].append(d.y / horiz if horiz > 1e-12 else 0.0)
        cols["t"].append(0.5 * (e.t0 + e.t1))
        cols["len"].append(seg_len)
        cols["w0"].append(w0)
        cols["h"].append(area / w0)
        cols["vol"].append(area * seg_len)
        cols["lay"].append(e.layer)
    n = len(cols["x"])
    dmap = DepositionMap(
        material=material,
        layer_height_mm=layer_height_mm,
        x=np.array(cols["x"]), y=np.array(cols["y"]), z=np.array(cols["z"]),
        dir_x=np.array(cols["dx"]), dir_y=np.array(cols["dy"]),
        deposit_time=np.array(cols["t"]), length=np.array(cols["len"]),
        width0=np.array(cols["w0"]), width=np.array(cols["w0"]).copy(),
        height=np.array(cols["h"]), volume=np.array(cols["vol"]),
        dose=np.zeros(n), alpha=np.zeros(n),
        gel_time=np.full(n, np.inf), layer=np.array(cols["lay"], dtype=int),
    )
    return dmap


def accumulate_dose(dmap: DepositionMap, path: Toolpath, spot: UVSpot,
                    dt_s: float = 0.02, reorient_rate: float = 1.0) -> DepositionMap:
    """Sweep the trailing footprint over the timeline and integrate dose.

    Each sample adds irradiance x dt to every already-deposited element
    whose centroid lies inside the footprint circle, scaled by
    exp(-depth / attenuation) for material buried below the current
    nozzle plane.  Gel times are recorded at the first sample where an
    element's cumulative dose reaches the formulation's gel dose.
    """
    if len(dmap) == 0:
        return dmap
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


def update_cure(dmap: DepositionMap, material: Material) -> DepositionMap:
    """Map accumulated dose to cure degree: alpha = 1 - exp(-k dose)."""
    k = material.cure_rate_per_j_mm2 * material.scattering
    dmap.alpha = 1.0 - np.exp(-k * dmap.dose)
    return dmap


def spread(dmap: DepositionMap, material: Material,
           cure_cfg: CureConfig = CureConfig()) -> DepositionMap:
    """Widen beads by uncured dwell over viscosity; height conserves volume.

    Elements that never reach gel keep spreading up to the dwell cap.
    """
    t_gel = np.where(np.isfinite(dmap.gel_time),
                     dmap.gel_time - dmap.deposit_time, cure_cfg.max_dwell_s)
    t_gel = np.clip(t_gel, 0.0, cure_cfg.max_dwell_s)
    factor = 1.0 + cure_cfg.c_spread * t_gel / material.viscosity_index
    dmap.width = dmap.width0 * factor
    area = dmap.volume / dmap.length
    dmap.height = area / dmap.width
    return dmap


def predict_dimensions(dmap: DepositionMap,
                       cure_cfg: CureConfig = CureConfig()) -> dict[str, float]:
    """Bounding extents of the spread beads plus the probe line width.

    Horizontally each element is a stadium: half its length plus half its
    width along travel (the rounded end cap), half its width across.
    Vertically a bead reaches from the slot floor one layer height under
    its nozzle plane (the first layer settles on the platform) up to a
    small crown above the nozzle exit.  Line width is averaged over a
    fixed probe location: the middle elements of the lowest layer.
    """
    if len(dmap) == 0:
        raise CureError("empty deposition map")
    half_along = (dmap.length + dmap.width) / 2.0
    half_x = np.abs(dmap.dir_x) * half_along + np.abs(dmap.dir_y) * dmap.width / 2.0
    half_y = np.abs(dmap.dir_y) * half_along + np.abs(dmap.dir_x) * dmap.width / 2.0
    flat = (np.abs(dmap.dir_x) < 1e-12) & (np.abs(dmap.dir_y) < 1e-12)
    half_x = np.where(flat, dmap.width / 2.0, half_x)
    half_y = np.where(flat, dmap.width / 2.0, half_y)
    length = float(np.max(dmap.x + half_x) - np.min(dmap.x - half_x))
    width = float(np.max(dmap.y + half_y) - np.min(dmap.y - half_y))
    top = float(np.max(dmap.z + cure_cfg.crown_fraction * dmap.height))
    bottom = float(np.min(np.clip(dmap.z - dmap.layer_height_mm, 0.0, None)))
    first_layer = np.flatnonzero(dmap.layer == int(np.min(dmap.layer)))
    mid = first_layer[len(first_layer) // 2]
    probe_x, probe_y = dmap.x[mid], dmap.y[mid]
    near = (dmap.layer == dmap.layer[mid]) & \
           ((dmap.x - probe_x) ** 2 + (dmap.y - probe_y) ** 2 <= 9.0)
    return {
        "length_mm": length,
        "width_mm": width,
        "height_mm": top - bottom,
        "line_width_mm": float(np.mean(dmap.width[near])),
    }


def flag_undercured(dmap: DepositionMap, alpha_min: float) -> list[BeadElement]:
    """Elements below the cure threshold, least cured first."""
    idx = np.flatnonzero(dmap.alpha < alpha_min)
    order = sorted(idx, key=lambda i: (dmap.alpha[i], i))
    return [dmap.element(int(i)) for i in order]

"""Deposition, trailing-spot dose accumulation, cure and bead spreading.

Extruded material is discretized into bead elements, one per resampled
extruding subsegment, with a rectangular width x height cross-section
conserving the volumetric flow.  A time-stepped sweep moves the circular
UV footprint along the toolpath timeline and accumulates dose on every
deposited element inside it, attenuated exponentially with burial depth
under the current nozzle plane.  Cure degree follows a saturating
exponential in dose; beads spread sideways in proportion to how long
they sit uncured, divided by the formulation's viscosity index.

The sweep is culled: each timeline entry evaluates only the elements
already deposited by its last sample whose centroids lie within the
footprint radius of the box around its spot track, a few dozen of the
thousands on a multi-layer part.  Its cost is O(samples x candidates)
plus a box test over the deposited elements per entry, and its dose
and gel times are bit for bit those of evaluating every element at
every sample.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
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
    tl = time_profile(path, reorient_rate)
    tl = tl[tl.extruding]  # dwells never extrude
    dx, dy, dz = tl.x1 - tl.x0, tl.y1 - tl.y0, tl.z1 - tl.z0
    seg_len = np.sqrt((dx * dx + dy * dy) + dz * dz)
    too_long = np.flatnonzero(seg_len > res_mm + 1e-9)
    if len(too_long):
        raise CureError(f"extruding segment of {seg_len[too_long[0]]:.3f} mm exceeds "
                        f"deposit resolution {res_mm} mm")
    area = flow.q_mm3_s / tl.speed
    w0 = np.sqrt(aspect * area)
    n = len(tl)
    horiz = np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), float, n)
    return DepositionMap(
        material=material,
        layer_height_mm=layer_height_mm,
        x=tl.x0 + dx * 0.5, y=tl.y0 + dy * 0.5, z=tl.z0 + dz * 0.5,
        dir_x=np.divide(dx, horiz, out=np.zeros(n), where=horiz > 1e-12),
        dir_y=np.divide(dy, horiz, out=np.zeros(n), where=horiz > 1e-12),
        deposit_time=0.5 * (tl.t0 + tl.t1), length=seg_len,
        width0=w0, width=w0.copy(), height=area / w0, volume=area * seg_len,
        dose=np.zeros(n), alpha=np.zeros(n),
        gel_time=np.full(n, np.inf), layer=np.array(tl.layer),
    )


@dataclass(frozen=True)
class _SampleBlock:
    """Sweep samples of a run of consecutive UV-on timeline entries.

    Entry i of the block owns samples ``start[i]:stop[i]``: equal steps
    of dt centred in the entry, each worth ``weight[i]`` = irradiance x dt.
    """
    start: np.ndarray
    stop: np.ndarray
    weight: np.ndarray
    tau: np.ndarray
    spot_x: np.ndarray
    spot_y: np.ndarray
    nozzle_z: np.ndarray


# entries per sample block: bounds the stream's memory, whatever the
# path length, while keeping the per-block array overhead negligible
_BLOCK_ENTRIES = 256


def _sample_blocks(path: Toolpath, spot: UVSpot, dt_s: float,
                   reorient_rate: float) -> Iterator[_SampleBlock]:
    """Lay out the samples of the UV-on timeline, one block at a time.

    Element for element this is the arithmetic of a per-entry loop
    (tau = t0 + (k + 1/2) dt, then linear interpolation of nozzle and
    yaw), so every value matches it bit for bit.
    """
    tl = time_profile(path, reorient_rate)
    tl = tl[tl.uv_on & (tl.t1 > tl.t0)]
    t0, t1, x0, y0, z0, x1, y1, z1, yaw0, yaw1 = (
        np.array(tl[name]) for name in ("t0", "t1", "x0", "y0", "z0",
                                        "x1", "y1", "z1", "yaw0", "yaw1"))
    del tl  # a generator keeps its locals
    dur = t1 - t0
    count = np.maximum(1, np.ceil(dur / dt_s)).astype(np.int64)
    dt = dur / count
    weight = spot.irradiance_w_mm2() * dt
    dx, dy, dz, dyaw = x1 - x0, y1 - y0, z1 - z0, yaw1 - yaw0
    for lo in range(0, len(count), _BLOCK_ENTRIES):
        blk = slice(lo, lo + _BLOCK_ENTRIES)
        n = count[blk]

        def rep(v: np.ndarray) -> np.ndarray:
            return np.repeat(v[blk], n)

        stop = np.cumsum(n)
        start = stop - n
        # in-place steps keep the temporaries few; IEEE + and * commute,
        # so a * b + c is the same bits as c + b * a
        tau = np.arange(stop[-1]) - np.repeat(start, n) + 0.5
        tau *= rep(dt)
        tau += rep(t0)
        frac = tau - rep(t0)
        frac /= rep(dur)

        def along(v0: np.ndarray, dv: np.ndarray) -> np.ndarray:
            out = frac * rep(dv)
            out += rep(v0)
            return out

        spot_x = along(yaw0, dyaw)
        spot_y = np.sin(spot_x)
        np.cos(spot_x, out=spot_x)
        spot_x *= spot.trail_mm
        spot_x += along(x0, dx)
        spot_y *= spot.trail_mm
        spot_y += along(y0, dy)
        yield _SampleBlock(start=start, stop=stop, weight=weight[blk], tau=tau,
                           spot_x=spot_x, spot_y=spot_y, nozzle_z=along(z0, dz))


# the cull box is padded by a micron so that rounding at its edges can
# never drop an element the exact circle test would light
_CULL_PAD_MM = 1e-6


def accumulate_dose(dmap: DepositionMap, path: Toolpath, spot: UVSpot,
                    dt_s: float = 0.02, reorient_rate: float = 1.0) -> DepositionMap:
    """Sweep the trailing footprint over the timeline and integrate dose.

    Each sample adds irradiance x dt to every already-deposited element
    whose centroid lies inside the footprint circle, scaled by
    exp(-depth / attenuation) for material buried below the current
    nozzle plane.  Gel times are recorded at the first sample where an
    element's cumulative dose reaches the formulation's gel dose.

    Each timeline entry evaluates only its candidates: the elements
    deposited by the entry's last sample (a prefix, since deposit times
    are ordered) whose centroid lies in the box around the entry's spot
    track grown by the footprint radius.  Every other element would get
    exactly +0.0 from each sample, so dose and gel times are bit for bit
    those of a sweep over all elements, at O(samples x candidates) in
    place of O(samples x elements).  Relies on a gel dose > 0, which
    the `Material` invariants guarantee.
    """
    if len(dmap) == 0 or spot.irradiance_w_mm2() <= 0.0:
        return dmap
    if np.any(np.diff(dmap.deposit_time) < 0.0):
        raise CureError("deposit times must be in timeline order")
    radius2 = spot.footprint_radius_mm() ** 2
    reach = spot.footprint_radius_mm() + _CULL_PAD_MM
    threshold = gel_dose(dmap.material)
    att = dmap.material.attenuation_depth_mm
    ex, ey, ez, et = dmap.x, dmap.y, dmap.z, dmap.deposit_time
    dose, gel = dmap.dose, dmap.gel_time
    # the box test writes into two fixed masks: fresh ones, of a new
    # length in nearly every entry, would pile up in numpy's cache of
    # small freed blocks and raise peak memory by about a megabyte
    inside, scratch = np.empty(len(dmap), bool), np.empty(len(dmap), bool)
    for blk in _sample_blocks(path, spot, dt_s, reorient_rate):
        deposited = np.searchsorted(et, blk.tau[blk.stop - 1], side="right")
        lo_x = np.minimum.reduceat(blk.spot_x, blk.start) - reach
        hi_x = np.maximum.reduceat(blk.spot_x, blk.start) + reach
        lo_y = np.minimum.reduceat(blk.spot_y, blk.start) - reach
        hi_y = np.maximum.reduceat(blk.spot_y, blk.start) + reach
        for a, b, m, w, x0, x1, y0, y1 in zip(
                blk.start.tolist(), blk.stop.tolist(), deposited.tolist(),
                blk.weight.tolist(), lo_x.tolist(), hi_x.tolist(), lo_y.tolist(),
                hi_y.tolist()):
            px, py, box, tmp = ex[:m], ey[:m], inside[:m], scratch[:m]
            np.greater_equal(px, x0, out=box)
            box &= np.less_equal(px, x1, out=tmp)
            box &= np.greater_equal(py, y0, out=tmp)
            box &= np.less_equal(py, y1, out=tmp)
            cand = box.nonzero()[0]
            if len(cand) == 0:
                continue
            tau = blk.tau[a:b]
            sx, sy = blk.spot_x[a:b, None], blk.spot_y[a:b, None]
            d2 = (ex[cand] - sx) ** 2 + (ey[cand] - sy) ** 2
            lit = (d2 <= radius2) & (et[cand] <= tau[:, None])
            depth = np.maximum(blk.nozzle_z[a:b, None] - ez[cand], 0.0)
            contrib = np.where(lit, w * np.exp(-depth / att), 0.0)
            cum = dose[cand] + np.cumsum(contrib, axis=0)
            newly = np.isinf(gel[cand]) & (cum[-1] >= threshold)
            if newly.any():
                first = np.argmax(cum[:, newly] >= threshold, axis=0)
                gel[cand[newly]] = tau[first]
            dose[cand] = cum[-1]
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

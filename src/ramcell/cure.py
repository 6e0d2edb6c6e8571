"""Deposition, trailing-spot dose accumulation, cure and bead spreading.

Extruded material is discretized into bead elements, one per resampled
extruding subsegment, with a rectangular width x height cross-section
conserving the volumetric flow.  A time-stepped sweep moves the circular
UV footprint along the toolpath timeline and accumulates dose on every
deposited element inside it, attenuated exponentially with burial depth
under the current nozzle plane.  Cure degree follows a saturating
exponential in dose; beads spread sideways in proportion to how long
they sit uncured, divided by the formulation's viscosity index.

The sweep is culled and grouped.  Each timeline entry evaluates only
its candidates, the elements already deposited by its last sample whose
centroids lie within the footprint radius of the box around its spot
track: a few dozen of the thousands on a multi-layer part.  A run of
consecutive UV-on entries is swept in one array pass: its (entry,
candidate) pairs are laid out as a (samples, pairs) table padded at
+inf, summed down each column, and chained per element across the
entries by an accumulate.  Its cost is O(samples x candidates) plus a
box test per run, with a fixed count of numpy calls per run rather
than per entry, and its dose and gel times are bit for bit those of
evaluating every element at every sample, entry by entry: every sum
keeps its order (see `accumulate_dose`).
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

    The tables are ``(samples, entries)``: column i holds entry i's
    ``count[i]`` samples, equal steps of dt centred in the entry, each
    worth ``weight[i]`` = irradiance x dt, and then padding at +inf up
    to the longest entry of the block.  ``flat[i]`` marks an entry whose
    nozzle height is the same at every sample.
    """
    count: np.ndarray
    weight: np.ndarray
    flat: np.ndarray
    tau: np.ndarray
    spot_x: np.ndarray
    spot_y: np.ndarray
    nozzle_z: np.ndarray


# padded (sample, entry) cells per sample block, about 80 entries of a
# 1 mm move: one block is one box test and, unless the pair budget cuts
# it, one array pass
_BLOCK_SAMPLES = 1 << 10
# the most (sample, candidate) cells one array pass lays out
_PAIR_SAMPLE_BUDGET = 1 << 15
# a longer sweep would run for hours; past int64 its count cannot be cast
MAX_SWEEP_SAMPLES = 1e7


def _runs(width: np.ndarray, count: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """Cut consecutive entries into runs whose padded layout fits a budget.

    A run is laid out as (its longest sample ``count``) x (the sum of its
    ``width``), both non-negative integers; it is closed before the entry
    that would take it past ``budget``, so only a run of a single entry
    can exceed it.  This is what keeps peak memory flat whatever the path.
    Both factors only grow along a run: while no entry longer than the
    run's longest comes, one search in the cumulative width finds the
    entry that closes the run, and a longer entry that comes first takes
    one step of its own.
    """
    cols = np.concatenate(([0], np.cumsum(width)))
    counts = count.tolist()
    n, lo = len(counts), 0
    while lo < n:
        hi, rows = lo + 1, counts[lo]
        while hi < n:
            # with the run's longest count at rows, entry j is the first
            # whose width takes the run past the budget
            j = n
            if rows > 0:
                j = max(hi, int(cols.searchsorted(cols[lo] + budget // rows, "right")) - 1)
            if max(counts[hi:j], default=rows) <= rows:
                hi = j
                break
            # a longer entry k comes first: the run takes it if it still fits
            k = hi + int(np.argmax(count[hi:j] > rows))
            rows = counts[k]
            if rows * (cols[k + 1] - cols[lo]) > budget:
                hi = k
                break
            hi = k + 1
        yield lo, hi
        lo = hi


def _sample_blocks(path: Toolpath, spot: UVConfig, dt_s: float,
                   reorient_rate: float) -> Iterator[_SampleBlock]:
    """Lay out the samples of the UV-on timeline, one block at a time.

    Element for element this is the arithmetic of a per-entry loop
    (tau = t0 + (k + 1/2) dt, then linear interpolation of the nozzle),
    so every value matches it bit for bit.  UV is off in every dwell
    and a move keeps one yaw, so each entry's spot trails its nozzle by
    one fixed offset.
    """
    tl = time_profile(path, reorient_rate)
    tl = tl[tl.uv_on & (tl.t1 > tl.t0)]
    t0, t1, x0, y0, z0, x1, y1, z1, yaw = (
        np.array(tl[name]) for name in ("t0", "t1", "x0", "y0", "z0",
                                        "x1", "y1", "z1", "yaw0"))
    del tl  # a generator keeps its locals
    dur = t1 - t0
    count = np.maximum(1.0, np.ceil(dur / dt_s))
    if not count.sum() <= MAX_SWEEP_SAMPLES:
        raise CureError(f"dose sweep of {dur.sum():.3g} s of UV-on time needs "
                        f"{count.sum():.3g} samples, more than {MAX_SWEEP_SAMPLES:g}; "
                        "raise [cure] sweep_dt_s")
    count = count.astype(np.int64)
    dt = dur / count
    irradiance = spot.irradiance_w_mm2()
    if not math.isfinite(irradiance * float(dt.max(initial=0.0))):
        raise CureError("dose of one sweep sample overflows")
    weight = irradiance * dt
    dx, dy, dz = x1 - x0, y1 - y0, z1 - z0
    trail_x, trail_y = np.cos(yaw) * spot.trail_offset_mm, np.sin(yaw) * spot.trail_offset_mm
    for lo, hi in _runs(np.ones_like(count), count, _BLOCK_SAMPLES):
        blk = slice(lo, hi)
        n = count[blk]
        k = np.arange(n.max())[:, None]
        # in-place steps keep the temporaries few; IEEE + and * commute,
        # so a * b + c is the same bits as c + b * a
        tau = (k + 0.5) * dt[blk]
        tau += t0[blk]
        frac = tau - t0[blk]
        frac /= dur[blk]

        def along(v0: np.ndarray, dv: np.ndarray) -> np.ndarray:
            out = frac * dv[blk]
            out += v0[blk]
            return out

        spot_x = along(x0, dx)
        spot_x += trail_x[blk]
        spot_y = along(y0, dy)
        spot_y += trail_y[blk]
        nozzle_z = along(z0, dz)
        pad = k >= n
        for table in (tau, spot_x, spot_y, nozzle_z):
            table[pad] = np.inf
        yield _SampleBlock(count=n, weight=weight[blk], flat=dz[blk] == 0.0, tau=tau,
                           spot_x=spot_x, spot_y=spot_y, nozzle_z=nozzle_z)


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Sum each column of a 2-D array, top row first.

    Reducing a C-ordered array along its outer axis adds whole rows one
    after another, so each column sum is sequential: bit for bit
    ``cumsum(a, 0)[-1]``.  Along a contiguous axis numpy sums pairwise,
    which is why the array is made C-ordered (a no-op for the sweep's)
    and why a single column, a 1-D reduction to numpy, takes the cumsum.
    """
    if a.shape[1] == 1:
        return np.cumsum(a, axis=0)[-1]
    return np.add.reduce(np.ascontiguousarray(a), axis=0)


# the cull box is padded by a micron so that rounding at its edges can
# never drop an element the exact circle test would light
_CULL_PAD_MM = 1e-6


def accumulate_dose(dmap: DepositionMap, path: Toolpath, spot: UVConfig,
                    dt_s: float = 0.02, reorient_rate: float = 1.0) -> DepositionMap:
    """Sweep the trailing footprint over the timeline and integrate dose.

    Each sample adds irradiance x dt to every already-deposited element
    whose centroid lies inside the footprint circle, scaled by
    exp(-depth / attenuation) for material buried below the current
    nozzle plane.  Gel times are recorded at the first sample where an
    element's cumulative dose reaches the formulation's gel dose.

    The candidates of a timeline entry are the elements deposited by
    its last sample (a prefix, since deposit times are ordered) whose
    centroid lies in the box around the entry's spot track grown by
    the footprint radius; every other element would get exactly +0.0
    from each of its samples.  Entries come in blocks of consecutive
    UV-on entries, each cut into groups where its layout would pass
    `_PAIR_SAMPLE_BUDGET`, and a group is swept in one array pass:

    1. the box test keeps the elements of the block's deposited prefix
       inside the union of its entries' boxes, then applies each
       entry's own box and prefix, giving the pairs in entry order;
    2. the pairs' samples are laid out as a ``(samples, pairs)`` table,
       each column padded to the group's longest entry by samples at
       +inf, which are never lit; the depth factor w exp(-depth / att)
       is taken once a pair when the group's nozzle heights are
       constant through each entry, and once a sample when they are not;
    3. a pair's total is the sum down its column, and the entries are
       chained per element by an accumulate down a dense
       ``(entries + 1, elements)`` table whose first row is the dose
       before the group;
    4. only the pairs whose element first reaches the gel dose take a
       cumulative sum down their column to find the crossing sample.

    Dose and gel times are bit for bit those of a per-entry sweep over
    all elements, at O(samples x candidates) in place of O(samples x
    elements), because every sum keeps its order: the column reduce
    and the accumulate along the outer axis add one row at a time, as
    the per-entry cumsum and ``dose + total`` do; an element of the
    group not lit in an entry (or not a candidate there) adds +0.0,
    which changes no dose >= 0; and a padding sample adds +0.0 after
    the entry's last sample, so it is never the first crossing.
    Relies on a gel dose > 0, which loading checks.
    """
    if len(dmap) == 0 or spot.irradiance_w_mm2() <= 0.0:
        return dmap
    if np.any(np.diff(dmap.deposit_time) < 0.0):
        raise CureError("deposit times must be in timeline order")
    radius2 = spot.footprint_radius_mm() ** 2
    reach = spot.footprint_radius_mm() + _CULL_PAD_MM
    threshold = dmap.material.gel_dose_j_mm2()
    att = dmap.material.attenuation_depth_mm
    ex, ey, ez, et = dmap.x, dmap.y, dmap.z, dmap.deposit_time
    dose, gel = dmap.dose, dmap.gel_time
    for blk in _sample_blocks(path, spot, dt_s, reorient_rate):
        last_tau = blk.tau[blk.count - 1, np.arange(len(blk.count))]
        deposited = np.searchsorted(et, last_tau, side="right")
        real = blk.tau < np.inf
        lo_x = blk.spot_x.min(axis=0) - reach
        hi_x = np.max(blk.spot_x, axis=0, where=real, initial=-np.inf) + reach
        lo_y = blk.spot_y.min(axis=0) - reach
        hi_y = np.max(blk.spot_y, axis=0, where=real, initial=-np.inf) + reach
        px, py = ex[:deposited[-1]], ey[:deposited[-1]]
        near = np.flatnonzero((px >= lo_x.min()) & (px <= hi_x.max())
                              & (py >= lo_y.min()) & (py <= hi_y.max()))
        px, py = ex[near], ey[near]
        box = ((px >= lo_x[:, None]) & (px <= hi_x[:, None])
               & (py >= lo_y[:, None]) & (py <= hi_y[:, None])
               & (near < deposited[:, None]))
        pairs = box.sum(axis=1)
        for lo, hi in _runs(pairs, blk.count, _PAIR_SAMPLE_BUDGET):
            used = box[lo:hi].any(axis=0)
            if not used.any():
                continue
            members = near[used]
            pe, pc = box[lo:hi, used].nonzero()
            pe += lo
            el = members[pc]
            rows = int(blk.count[lo:hi].max())

            def column(table: np.ndarray) -> np.ndarray:
                # pairs run in entry order, so each entry's column repeats
                return np.repeat(table[:rows, lo:hi], pairs[lo:hi], axis=1)

            # (samples, pairs): squared distance to the spot, then lit
            d2 = column(blk.spot_x)
            np.subtract(ex[el], d2, out=d2)
            d2 *= d2
            dy = column(blk.spot_y)
            np.subtract(ey[el], dy, out=dy)
            dy *= dy
            d2 += dy
            lit = d2 <= radius2
            # tau only grows through an entry, so only an element deposited
            # after the entry's first sample can be unlit for its age
            fresh = np.flatnonzero(et[el] > blk.tau[0, pe])
            if len(fresh):
                lit[:, fresh] &= et[el[fresh]] <= blk.tau[:rows, pe[fresh]]
            # a constant nozzle height gives one depth per pair
            nz = column(blk.nozzle_z[:1] if blk.flat[lo:hi].all() else blk.nozzle_z)
            depth = np.maximum(nz - ez[el], 0.0)
            # lit x w exp(-depth/att) is that factor or +0.0, since the
            # factor is finite and >= 0; the distances' buffer is reused
            contrib = d2
            np.copyto(contrib, lit)
            contrib *= blk.weight[pe] * np.exp(-depth / att)
            # chain the entries per element: row k + 1 holds entry k's totals
            chain = np.zeros((hi - lo + 1, len(members)))
            slot = (pe - (lo - 1)) * len(members) + pc
            chain.ravel()[slot] = _column_sums(contrib)
            chain[0] = dose[members]
            np.add.accumulate(chain, axis=0, out=chain)
            newly = np.flatnonzero((chain.ravel()[slot] >= threshold) & np.isinf(gel[el]))
            if len(newly):
                # pairs run in entry order: an element's first is its crossing
                newly = newly[np.unique(pc[newly], return_index=True)[1]]
                before = chain.ravel()[slot[newly] - len(members)]
                cum = before + np.cumsum(contrib[:, newly], axis=0)
                first = np.argmax(cum >= threshold, axis=0)
                gel[el[newly]] = blk.tau[first, pe[newly]]
            dose[members] = chain[-1]
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


def undercured(dmap: DepositionMap, alpha_min: float) -> np.ndarray:
    """Indices of the elements below the cure threshold, least cured
    first, ties in index order."""
    idx = np.flatnonzero(dmap.alpha < alpha_min)
    return idx[np.lexsort((idx, dmap.alpha[idx]))]


def flag_undercured(dmap: DepositionMap, alpha_min: float) -> list[BeadElement]:
    """Elements below the cure threshold, least cured first."""
    return [dmap.element(i) for i in undercured(dmap, alpha_min).tolist()]

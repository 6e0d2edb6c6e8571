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
centroids lie within the footprint radius of the box its first and last
spot span: a few dozen of the thousands on a multi-layer part.  They are
found by a two-level box, a union box per run of 16 entries and then
each entry's own box over that run's elements, so the box tests a few
cells per pair it yields, not entries x elements.  A run of consecutive UV-on entries is swept in one
array pass over its (entry, candidate) pairs, with a fixed count of
numpy calls per run rather than per entry, in memory bounded by one
budget whatever the block's length, and its dose and gel times are bit
for bit those of evaluating every element at every sample, entry by
entry.  Three skips leave out only work that cannot change a bit (see
`accumulate_dose`):

- whole-footprint pairs: where the nozzle height is constant through an
  entry, a pair whose element lies in the footprint at the entry's
  first and last spot samples (a corner bound) lies in it at every
  sample, since rounding is monotone, so its column is its one weight
  added count times, a reduce down a broadcast row in place of a
  (samples, pairs) table;
- the chain of entries per element is one in-order scatter-add
  (``np.add.at``, which adds at repeated indices one at a time, in
  index order), and only the elements that first reach the gel dose
  replay their pairs to find their crossing;
- the depth horizon: below it a buried element's column sums to less
  than half the spacing of its dose (Goldberg 1991, Higham ch. 4), so
  ``dose + sum`` is ``dose`` and the element is left out of each run of
  16 entries it lies that deep under.  The depth is read under each
  run's own lowest nozzle plane, so a block of samples may span more
  layers than the horizon does and still cut; past it a layer adds a
  fixed amount of work, so the sweep of a tall part no longer grows
  with the square of its height.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

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
    nozzle height is the same at every sample.  Only ramped entries read
    the nozzle height past the first row, so in a block of flat entries
    ``nozzle_z`` is that row alone, ``(1, entries)``.
    """
    count: np.ndarray
    weight: np.ndarray
    flat: np.ndarray
    tau: np.ndarray
    spot_x: np.ndarray
    spot_y: np.ndarray
    nozzle_z: np.ndarray

    def spot_ends(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Each entry's first and last spot sample, on x and on y."""
        last = (self.count - 1, np.arange(len(self.count)))
        return (self.spot_x[0], self.spot_x[last]), (self.spot_y[0], self.spot_y[last])

    @cached_property
    def column_bound(self) -> float:
        """4 x the largest count x weight of an entry: an entry's column at
        a depth of at least d sums to at most a quarter of it times
        exp(-d / att), the 4 covering the rounding of each term and of a
        sequential sum (Higham ch. 4)."""
        return 4.0 * float((self.count * self.weight).max())


# padded (sample, entry) cells per sample block, about 1,260 entries of a
# 1 mm move: one block is one first-level box test
_BLOCK_SAMPLES = 1 << 14
# the most (sample, second-level box cell) cells one array pass lays out,
# unless a single entry's pass needs more; a pass's pairs are among its
# box cells, so its tables fit it too
_PAIR_SAMPLE_BUDGET = 1 << 18
# consecutive entries of a block boxed together: their union box picks
# the candidates that each entry's own box then tests
_SUB_BLOCK = 16
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

        def along(v0: np.ndarray, dv: np.ndarray, f: np.ndarray) -> np.ndarray:
            out = f * dv[blk]
            out += v0[blk]
            return out

        spot_x = along(x0, dx, frac)
        spot_x += trail_x[blk]
        spot_y = along(y0, dy, frac)
        spot_y += trail_y[blk]
        # only a ramped entry reads the nozzle height past the first row
        flat = dz[blk] == 0.0
        nozzle_z = along(z0, dz, frac if not flat.all() else frac[:1])
        del frac
        pad = k >= n
        for table in (tau, spot_x, spot_y, nozzle_z):
            table[pad[:len(table)]] = np.inf
        del pad
        yield _SampleBlock(count=n, weight=weight[blk], flat=flat, tau=tau,
                           spot_x=spot_x, spot_y=spot_y, nozzle_z=nozzle_z)


def _by_sub_block(a: np.ndarray, fill: float) -> np.ndarray:
    """A block's per-entry ``a``, padded with ``fill`` to whole sub-blocks,
    one row each."""
    out = np.full(-(-len(a) // _SUB_BLOCK) * _SUB_BLOCK, fill, a.dtype)
    out[:len(a)] = a
    return out.reshape(-1, _SUB_BLOCK)


def _column_sums(a: np.ndarray, where: np.ndarray | bool = True) -> np.ndarray:
    """Sum each column of a 2-D array, top row first, over ``where``.

    Reducing along the outer axis of a C-ordered array, or of a row
    broadcast down it, adds whole rows one after another, masked or not,
    so each column sum is sequential: bit for bit ``cumsum(a, 0)[-1]``
    with the cells outside ``where`` read as +0.0.  Along a contiguous
    axis numpy sums pairwise, and a single column is a 1-D reduction to
    numpy, so that one takes the cumsum.
    """
    if a.shape[1] == 1:
        return np.cumsum(np.where(where, a, 0.0), axis=0)[-1]
    return np.add.reduce(a, axis=0, where=where)


# the cull box is padded by a micron so that rounding at its edges can
# never drop an element the exact circle test would light
_CULL_PAD_MM = 1e-6
# the depth horizon is pushed down by this many attenuation depths, far
# more than the rounding of its bound and of each sample's exp can move it
_HORIZON_MARGIN = 1e-6


def _horizon_spacing(depth: np.ndarray | float, blk: _SampleBlock,
                     att: float) -> np.ndarray | float:
    """The spacing above which a dose lies past its depth horizon, at
    each ``depth`` under every sample of a flat block.

    One entry's column there sums to at most cw / 4 times exp(-depth /
    att), with cw = `_SampleBlock.column_bound`.  That is below half the
    spacing of any dose whose spacing passes ``cw exp(margin - depth /
    att)``, the horizon ``att (ln(cw / spacing) + margin)`` turned
    around, so ``dose + sum`` rounds back to ``dose`` (Goldberg 1991).
    The rounding of a term is relative only while the spacing is a
    normal float and at least cw 2**-1000, so a smaller spacing, a dose
    of 0 among them, has no horizon.  Far above the plane the bound
    overflows to +inf, which no spacing passes.
    """
    cw = blk.column_bound
    with np.errstate(over="ignore"):
        bound = np.exp(_HORIZON_MARGIN - np.divide(depth, att))
        bound *= cw
    # a spacing passes the float just below the floor only if it is at
    # least the floor
    return np.maximum(bound, np.nextafter(max(2.0 ** -1022, cw * 2.0 ** -1000), 0.0))


def _above_horizon(el: np.ndarray, depth: np.ndarray, blk: _SampleBlock,
                   dose: np.ndarray, att: float) -> np.ndarray:
    """Mask of the elements ``el`` whose dose a run of a flat block's
    entries can still change, each ``depth`` under the lowest nozzle
    plane of the run: its own sub-block's 16 entries for a candidate,
    the whole block for an element of ``near``.

    An element past its horizon at that depth (`_horizon_spacing`) is
    left out.  Each entry of a flat block keeps one nozzle height, so
    every sample of the run lies at or above the run's lowest plane,
    and a sample's weight only falls as its height over the element
    grows (the difference and the exp round monotonically): each entry
    adds less than half the spacing of the dose.  Doses only grow, so
    a horizon read at the doses before a pass holds through it.
    """
    return np.spacing(dose[el]) <= _horizon_spacing(depth, blk, att)


def _corner_bound(ends: tuple[tuple[np.ndarray, np.ndarray], ...], entry: np.ndarray,
                  x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bound the squared distance from each (x, y) to every spot sample
    of its entry: on each axis the larger square of the distances to the
    entry's first and last spot (``_SampleBlock.spot_ends``), summed, with
    the sweep table's operations (difference, square, sum), so that it
    bounds the table's values bit for bit."""
    bound = np.zeros(len(entry))
    for v, (first, final) in zip((x, y), ends):
        a = np.subtract(v, first[entry])
        a *= a
        b = np.subtract(v, final[entry])
        b *= b
        bound += np.maximum(a, b, out=a)
    return bound


def _weigh(height: np.ndarray, weight: np.ndarray, att: float) -> np.ndarray:
    """A sample's weight w exp(-depth / att), depth = max(height, 0) for the
    nozzle height over the element, worked out in ``height`` one step at
    a time as ``weight * np.exp(-np.maximum(height, 0.0) / att)``."""
    np.maximum(height, 0.0, out=height)
    np.negative(height, out=height)
    height /= att
    np.exp(height, out=height)
    height *= weight
    return height


def _sweep_group(blk: _SampleBlock, ends: tuple[tuple[np.ndarray, np.ndarray], ...],
                 pe: np.ndarray, el: np.ndarray, settled: np.ndarray, rows: int,
                 dmap: DepositionMap, radius2: float, threshold: float) -> None:
    """Add one group's (entry ``pe``, element ``el``) pairs to the dose and
    record the gel times they reach, `accumulate_dose` steps 2 to 4; each
    element's pairs come in entry order."""
    ex, ey, ez, et = dmap.x, dmap.y, dmap.z, dmap.deposit_time
    dose, gel = dmap.dose, dmap.gel_time
    k = np.arange(rows)[:, None]
    # a sample's weight w exp(-depth/att) where the nozzle height is
    # constant through the entry
    att = dmap.material.attenuation_depth_mm
    w = np.take(blk.nozzle_z[0], pe)
    w -= ez[el]
    _weigh(w, blk.weight[pe], att)
    flat = blk.flat[pe]
    whole = np.zeros(len(pe), bool)
    if flat.any():
        f = slice(None) if flat.all() else np.flatnonzero(flat)
        ef = el[f]
        whole[f] = ((_corner_bound(ends, pe[f], ex[ef], ey[ef]) <= radius2)
                    & (ef < settled[pe[f]]))
    sums = np.empty(len(pe))
    on = np.flatnonzero(whole)
    if len(on):
        # w added count times: a row broadcast down the table, masked
        # only where the entries differ in length
        count = blk.count[pe[on]]
        mask = k < count if count.min() < rows else True
        sums[on] = _column_sums(np.broadcast_to(w[on], (rows, len(on))), mask)
        del count, mask
    del on
    table = np.flatnonzero(~whole)
    if len(table):
        pt, elt = pe[table], el[table]
        # (samples, pairs): squared distance to the spot, then lit
        d2 = np.take(blk.spot_x[:rows], pt, axis=1)
        np.subtract(ex[elt], d2, out=d2)
        d2 *= d2
        dy = np.take(blk.spot_y[:rows], pt, axis=1)
        np.subtract(ey[elt], dy, out=dy)
        dy *= dy
        d2 += dy
        lit = d2 <= radius2
        # tau only grows through an entry, so only an element deposited
        # after the entry's first sample can be unlit for its age
        fresh = np.flatnonzero(elt >= settled[pt])
        if len(fresh):
            lit[:, fresh] &= et[elt[fresh]] <= np.take(blk.tau[:rows], pt[fresh], axis=1)
        # lit x w is w or +0.0, since w is finite and >= 0; the distances'
        # buffer is reused
        contrib = d2
        np.copyto(contrib, lit)
        del lit
        if flat[table].all():
            contrib *= w[table]
        else:
            # the weight of each sample where the nozzle height varies
            np.take(blk.nozzle_z[:rows], pt, axis=1, out=dy)
            dy -= ez[elt]
            contrib *= _weigh(dy, blk.weight[pt], att)
        del dy
        sums[table] = _column_sums(contrib)
    before = dose[el]
    # ufunc.at adds in index order, so each element takes its pairs' sums
    # one at a time, in entry order, as a per-entry sweep adds them
    np.add.at(dose, el, sums)
    # below the gel dose is exactly without a gel time
    crossed = np.flatnonzero((before < threshold) & (dose[el] >= threshold))
    if not len(crossed):
        return
    # replay the chain of each element that reached the gel dose: its
    # pairs ranked in entry order, one column each under its dose before
    # the group
    crossed = crossed[np.argsort(el[crossed], kind="stable")]
    new = np.concatenate(([True], el[crossed[1:]] != el[crossed[:-1]]))
    seg = np.cumsum(new) - 1
    head = np.flatnonzero(new)
    rank = np.arange(len(crossed)) - head[seg]
    chain = np.zeros((int(rank.max()) + 2, len(head)))
    chain[0] = before[crossed[head]]
    chain[rank + 1, seg] = sums[crossed]
    cum = np.add.accumulate(chain, axis=0)
    # the first row at or above the gel dose is the crossing pair's
    row = np.argmax(cum >= threshold, axis=0)
    cross = crossed[head + row - 1]
    col = np.where(k < blk.count[pe[cross]], w[cross], 0.0)
    tabled = ~whole[cross]
    if tabled.any():
        col[:, tabled] = contrib[:, np.searchsorted(table, cross[tabled])]
    col = np.cumsum(col, axis=0)
    col += cum[row - 1, np.arange(len(head))]
    gel[el[cross]] = blk.tau[np.argmax(col >= threshold, axis=0), pe[cross]]


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
    centroid lies in the box spanned by the entry's first and last spot
    samples grown by the footprint radius; every other element would get
    exactly +0.0 from each of its samples.  Entries come in blocks of
    consecutive UV-on entries, and a block's entries in sub-blocks of
    `_SUB_BLOCK`.  Runs of whole sub-blocks whose box cells would pass
    `_PAIR_SAMPLE_BUDGET` are cut into groups, a sub-block whose cells
    alone pass it into windows of entries, and a group is swept in one
    array pass (`_sweep_group`):

    1. a two-level box test keeps, per sub-block, the elements of the
       block's deposited prefix inside the union of its entries' boxes,
       and per group tests each entry's own box and prefix on its
       sub-block's candidates only, so the box cells grow with the
       pairs, not with entries x elements.  In a flat block (every
       nozzle height constant through its entry) the depth horizon
       (`_above_horizon`) first drops the elements past it under the
       block's lowest nozzle plane, at the doses before the block.
       Once an element may lie past its horizon even under the highest
       sub-block (the largest dose has the shallowest horizon), it also
       drops each candidate past it under its own sub-block's lowest
       plane: before the groups are cut, at the doses before the block,
       and in each group, at the doses before the group.  The pairs
       come in sub-block, element, entry order: each element's pairs
       are in entry order;
    2. a pair of an entry whose nozzle height is constant has one sample
       weight w exp(-depth / att), and if its element is deposited by
       the entry's first sample (an index below that sample's deposited
       prefix) and its corner bound, the largest squared distance to the
       first or last spot sample on each axis, is within the radius, it
       is lit at every sample: its column is w, count times.  Flatness
       is read per entry, so a ramped entry costs only its own pairs
       this path;
    3. every other pair's samples are laid out as a ``(samples, pairs)``
       table, each column padded to the group's longest entry by
       samples at +inf, which are never lit, with the weight taken once
       a sample where the nozzle height varies;
    4. a pair's total is the sum down its column, and ``np.add.at``
       adds the totals to the doses in pair order, so each element
       takes its entries' totals one at a time, in entry order.  Only
       the elements that cross the gel dose in the group replay their
       pairs, ranked in a small ``(pairs + 1, crossed elements)`` chain
       under their dose before the group; its first row at or above the
       gel dose names the crossing pair, and that pair's column takes a
       cumulative sum to find the crossing sample.

    Dose and gel times are bit for bit those of a per-entry sweep over
    all elements, at O(samples x boundary pairs) in place of O(samples x
    elements), down to the elements within the depth horizon:

    - every sum keeps its order: reduces along the outer axis of a
      C-ordered table, or of a row broadcast down it, add one row at a
      time, as the per-entry cumsum does, and a single column takes the
      cumsum (`_column_sums`); ``ufunc.at`` adds its values one index at
      a time, in index order, as ``dose + total`` entry by entry does;
      an element not lit in an entry (or not a candidate there) adds
      +0.0, which changes no dose >= 0, and a padding sample adds +0.0
      after the entry's last sample, so it is never the first crossing;
    - monotone rounding: every sample's spot lies between the entry's
      first and last, because each step that makes it (k + 1/2) dt +
      t0, - t0, / duration, x step, + start, + trail rounds
      monotonically (so the two bound the box), and the difference,
      square and sum of the distance are monotone too, so the corner
      bound, with the table's own operations, bounds every sample's
      squared distance;
    - the half-spacing horizon (`_above_horizon`): a candidate past it
      under its sub-block's lowest plane would add less than half the
      spacing of its dose in every entry of the sub-block, since each
      entry keeps one nozzle height, so every sample lies at or above
      that plane, and doses only grow, so a horizon read at an earlier
      dose still holds; a dose that does not change cannot cross the
      gel dose.

    Relies on a gel dose > 0, which loading checks, and on no element
    starting at or above it without a gel time, as `deposit` leaves them.
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
    dose = dmap.dose
    for blk in _sample_blocks(path, spot, dt_s, reorient_rate):
        deposited = np.searchsorted(et, blk.tau[blk.count - 1, np.arange(len(blk.count))],
                                    side="right")
        # an element below this index is deposited by the entry's first sample
        settled = np.searchsorted(et, blk.tau[0], side="right")
        ends = blk.spot_ends()  # they bound each track (monotone rounding)
        # each entry's box and deposited prefix, a row per sub-block
        lo_x, hi_x, lo_y, hi_y = (
            _by_sub_block(bound, fill)
            for first, final in ends
            for bound, fill in ((np.minimum(first, final) - reach, np.inf),
                                (np.maximum(first, final) + reach, -np.inf)))
        deposited = _by_sub_block(deposited, 0)
        px, py = ex[:deposited.max()], ey[:deposited.max()]
        near = np.flatnonzero((px >= lo_x.min()) & (px <= hi_x.max())
                              & (py >= lo_y.min()) & (py <= hi_y.max()))
        cut_spacing = None
        if blk.flat.all():
            # each sub-block's lowest nozzle plane: every sample of its
            # entries lies at or above it, since each entry keeps one height
            planes = _by_sub_block(blk.nozzle_z[0], np.inf).min(1)
            near = near[_above_horizon(near, planes.min() - ez[near], blk, dose, att)]
            if len(near):
                # the spacing a dose needs to lie past its horizon at the
                # deepest element's depth under the highest sub-block
                cut_spacing = _horizon_spacing(planes.max() - ez[near].min(), blk, att)
        if not len(near):
            continue
        # level one: the elements of near in each sub-block's union box, in
        # sub-block order, then element order
        px, py = ex[near], ey[near]
        cells = np.flatnonzero((px >= lo_x.min(1)[:, None]) & (px <= hi_x.max(1)[:, None])
                               & (py >= lo_y.min(1)[:, None]) & (py <= hi_y.max(1)[:, None])
                               & (near < deposited.max(1)[:, None]))
        cand_sub = cells // len(near)
        cand = near[cells - cand_sub * len(near)]
        del cells

        def may_cut() -> bool:
            """Whether an element of near may lie past its horizon under
            some sub-block: the largest dose has the shallowest horizon."""
            return cut_spacing is not None and bool(np.spacing(dose[near].max()) > cut_spacing)

        # each candidate's depth under its own sub-block's lowest plane,
        # once an element may lie past its horizon: the candidates past it
        # are cut before the passes are cut, and in each pass at the doses
        # before it
        depth = None
        if may_cut():
            depth = planes[cand_sub] - ez[cand]
            keep = _above_horizon(cand, depth, blk, dose, att)
            cand_sub, cand, depth = cand_sub[keep], cand[keep], depth[keep]
        start = np.searchsorted(cand_sub, np.arange(len(lo_x) + 1))
        rows = _by_sub_block(blk.count, 0).max(1)
        for a, b in _runs(np.diff(start) * _SUB_BLOCK, rows, _PAIR_SAMPLE_BUDGET):
            if start[a] == start[b]:
                continue
            run = slice(start[a], start[b])
            cs, ce = cand_sub[run], cand[run]
            if depth is None and may_cut():
                depth = planes[cand_sub] - ez[cand]
            if depth is not None:
                keep = _above_horizon(ce, depth[run], blk, dose, att)
                if not keep.all():
                    cs, ce = cs[keep], ce[keep]
                    if not len(ce):
                        continue
            # a sub-block whose box cells alone pass the budget is cut into
            # windows of as many entries as fit it (at least one), a pass each
            width = _SUB_BLOCK
            if b - a == 1:
                width = min(width, max(1, _PAIR_SAMPLE_BUDGET // (len(ce) * int(rows[a]))))
            for j in range(0, _SUB_BLOCK, width):
                # level two: each entry's own box and prefix over its
                # sub-block's candidates. The pairs come in sub-block,
                # element, entry order, so each element's pairs are in entry
                # order
                stop = min(j + width, _SUB_BLOCK)
                slots = slice(j, stop)
                inside = ce[:, None] < np.take(deposited[:, slots], cs, axis=0)
                for v, lo, hi in ((ex[ce][:, None], lo_x, hi_x), (ey[ce][:, None], lo_y, hi_y)):
                    inside &= v >= np.take(lo[:, slots], cs, axis=0)
                    inside &= v <= np.take(hi[:, slots], cs, axis=0)
                cells = np.flatnonzero(inside)
                del inside
                pc = cells // (stop - j)
                pe = cs[pc] * _SUB_BLOCK + j + (cells - pc * (stop - j))
                el = ce[pc]
                del cells, pc
                _sweep_group(blk, ends, pe, el, settled, int(rows[a:b].max()), dmap,
                             radius2, threshold)
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

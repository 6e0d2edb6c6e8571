"""Analytic kinematics for the 6-DOF arm carrying the extruder.

The arm is UR-type: DH alphas (pi/2, 0, 0, pi/2, -pi/2, 0), so joints 2,
3 and 4 rotate about parallel axes.  The arm is stated once, as closed
forms in its six link lengths (`DHParams`); no general DH chain is
multiplied out.  Batched kernels serve a whole trajectory at once as
elementwise columns.  `_flange` is the closed-form flange pose, a dozen
columns of q1, q5, q6, q2, q2+q3 and q2+q3+q4; `fk`, the Jacobian, the
clearance check and IK's forward check use it.  The closed-form inverse
(Hawkins, "Analytic Inverse Kinematics for the Universal Robots
UR-5/UR-10 Arms", 2013) writes the entries of inv(T01) T06 and
T16 inv(T45 T56) it needs in the target's entries and evaluates the eight
branches (shoulder, wrist, elbow) of every target as array masks; at the
wrist degeneracy it keeps q6 = 0 where the elbow reaches and turns q6
into reach where it does not.  It runs in two parts: `_branch_columns`
solves q1, q3, q5 and q6 and the masks for every branch, its wrist and
elbow steps in helpers so that each step's temporaries are gone before
the next one's are made, and keeps them as compact columns (`Branches`:
q1 per shoulder, q5 and q6 per shoulder and wrist, q3 per branch).  The
columns are branch-major: the shoulder, wrist and elbow axes lead and
the node axis is last and contiguous, so every ufunc's inner loop and
every reduction over branches runs over the nodes, not over a 2-, 4- or
8-long axis.  `Branches.rows` fills the rows of the (node, branch) pairs
asked for from the columns and solves their arm joints q2 and q4
(`_arm_joints`); the valid mask is per (shoulder, wrist) too, and `ik`
reads a solution's wrist-free flag off its q5.
`_checked_rows` takes all eight rows of the nodes asked for and checks
each candidate's forward pose (`_forward_ok`, row by row); `_dedup`
drops duplicates over the 28 pairs j < k, and `nearest_branch` picks
branches for many nodes at once.  `ik` runs these on its one target.
`select_chain` chooses along a chunk's branches: each node is guessed
on the branch of the last settled choice, carried across chunks, and
only that candidate is solved and checked where no rival can displace
it, which it tests on the columns; other nodes take all eight rows, the
forward check, `_dedup` and `nearest_branch`, so the choices are bit for
bit those made node by node; the unwrapping and wrapping of angles work
in place on one buffer.  `manipulability_batch` takes an (n, 6) joint
array.  JointConfig is only the one-row type: `ik` builds
IKSolution/JointConfig objects, and `fk`, `jacobian` and
`manipulability` are one-row calls.
The Jacobian is geometric (linear rows mm/rad, angular rad/rad): column
i is z_i x (p - o_i) over z_i, and each joint axis z_i and origin o_i is
a short closed form in q1 and the sums q2, q2+q3 and q2+q3+q4, joint 6's
axis being the flange's z column.  Manipulability is |det J|
(Yoshikawa) of a meters-scaled copy, O(0.01) away from singularities and
below 1e-9 at them, independent of the mm length unit.  For the
UR-type arm |det J| has the closed form
|a2 a3 sin q3 sin q5 (a2 cos q2 + a3 cos(q2+q3) + d5 sin(q2+q3+q4))|,
zero at the elbow, wrist and shoulder singularities, so
`manipulability_batch` builds no Jacobian and needs no forward pass;
the TCP offset leaves it unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import KinematicsConfig
from .geometry import Pose, wrap_angles

POSITION_TOL_MM = 1e-6
ORIENTATION_TOL_RAD = 1e-8
# at an exact wrist degeneracy acos noise leaves |sin q5| up to about
# 1.6e-7 (seeded DH tables); a branch this close to it is put on it
WRIST_DEGENERACY_TOL = 1e-6
# how far inside its range a wrist-degenerate branch puts cos q3 when q6
# must turn to bring the elbow within reach
ELBOW_MARGIN = 1e-3


@dataclass(frozen=True)
class DHParams:
    """The six link lengths, in mm, of the UR-type arm.  Its DH alphas are
    fixed at (pi/2, 0, 0, pi/2, -pi/2, 0) and its other lengths (a1, d2,
    d3, a4, a5, a6) are zero; every kernel builds these in."""
    d1: float
    a2: float
    a3: float
    d4: float
    d5: float
    d6: float

    @staticmethod
    def from_config(cfg: KinematicsConfig) -> "DHParams":
        return DHParams(cfg.d1_mm, cfg.a2_mm, cfg.a3_mm, cfg.d4_mm, cfg.d5_mm, cfg.d6_mm)


@dataclass(frozen=True)
class JointConfig:
    q: tuple[float, float, float, float, float, float]

    def __post_init__(self):
        if len(self.q) != 6:
            raise ValueError("need 6 joint values")

    @staticmethod
    def of(*vals: float) -> "JointConfig":
        return JointConfig(tuple(float(v) for v in vals))


@dataclass(frozen=True)
class IKSolution:
    config: JointConfig
    shoulder: str  # "left" | "right"
    elbow: str     # "up" | "down"
    wrist: str     # "noflip" | "flip"
    free_parameter: bool = False


def _flange(qs: np.ndarray, dh: DHParams) -> np.ndarray:
    """Flange transforms base->frame_6 of the rows of the (n, 6) joint
    array, shape (n, 3, 4): the closed-form product of the six DH links for
    the UR-type alphas (pi/2, 0, 0, pi/2, -pi/2, 0).  Joints 2, 3 and 4
    rotate about parallel axes, so the pose depends on them only through
    q2, q2+q3 and q2+q3+q4."""
    q1, q2, q3, q4, q5, q6 = qs.T
    d1, a2, a3, d4, d5, d6 = dh.d1, dh.a2, dh.a3, dh.d4, dh.d5, dh.d6
    c1, s1, c5, s5, c6, s6 = (f(q) for q in (q1, q5, q6) for f in (np.cos, np.sin))
    q23 = q2 + q3
    q234 = q23 + q4
    c234, s234 = np.cos(q234), np.sin(q234)
    u = s1 * s5 + c1 * c5 * c234
    w = c1 * s5 - s1 * c5 * c234
    r02 = s1 * c5 - c1 * s5 * c234
    r12 = -s1 * s5 * c234 - c1 * c5
    r22 = -s5 * s234
    # distance of frame 5 from the base axis within the arm's plane
    arm = a2 * np.cos(q2) + a3 * np.cos(q23) + d5 * s234
    out = np.empty((3, 4, len(qs)))
    out[0] = (u * c6 - c1 * s234 * s6, -u * s6 - c1 * s234 * c6, r02,
              c1 * arm + d4 * s1 + d6 * r02)
    out[1] = (-w * c6 - s1 * s234 * s6, w * s6 - s1 * s234 * c6, r12,
              s1 * arm - d4 * c1 + d6 * r12)
    out[2] = (c234 * s6 + s234 * c5 * c6, c234 * c6 - s234 * c5 * s6, r22,
              d1 + a2 * np.sin(q2) + a3 * np.sin(q23) - d5 * c234 + d6 * r22)
    return out.transpose(2, 0, 1)


def fk(q: JointConfig, dh: DHParams, tcp_offset: Pose = Pose.identity()) -> Pose:
    """TCP pose for a joint configuration."""
    flange = np.eye(4)
    flange[:3] = _flange(np.array([q.q], float), dh)[0]
    return Pose.from_matrix(flange @ tcp_offset.to_matrix())


# candidate k of a target is branch _BRANCHES[k]: the kernel's axes run
# shoulder, wrist, elbow, so k = 4 * shoulder + 2 * wrist + elbow
_BRANCHES = tuple((shoulder, elbow, wrist) for shoulder in ("left", "right")
                  for wrist in ("noflip", "flip") for elbow in ("up", "down"))
_SIGNS = np.array([1.0, -1.0])
_PAIR_K, _PAIR_J = np.tril_indices(8, -1)


@dataclass(frozen=True, eq=False)
class Branches:
    """The eight closed-form branches of a chunk of n flange targets,
    candidate k = branch _BRANCHES[k] (built by _branch_columns), as
    branch-major columns, the node axis last: q1 (2, n) per shoulder, q5
    and q6 (4, n) per (shoulder, wrist), all three wrapped, q3 (8, n) per
    candidate, unwrapped, and the arm inputs `arm` (4, 4, n): p13_x,
    p13_y, t14[0, 0] and t14[1, 0] per (shoulder, wrist).  Candidate k
    reads q3[k], q5[k // 2], q6[k // 2], arm[:, k // 2] and q1[k // 4].
    rows() fills joints 1, 3, 5 and 6 from the columns and solves
    joints 2 and 4 for the (node, branch) pairs asked for, element by
    element, so a pair gets the bits it gets among all of them;
    columns() gives joints 1, 3, 5 and 6 of a run of nodes to broadcast
    over all eight candidates.  valid (4, n) masks, per (shoulder,
    wrist), the branches that have a real solution: candidate k is valid
    where valid[k // 2] is.  276 bytes a node."""
    q1: np.ndarray
    q5: np.ndarray
    q6: np.ndarray
    q3: np.ndarray
    arm: np.ndarray
    valid: np.ndarray
    a3: float

    def rows(self, nodes, branches) -> np.ndarray:
        """The joints of candidate branches[i] of node nodes[i], indexed
        as numpy indexes a (branch, node) array (an int, a slice or index
        arrays broadcast against each other): shape (..., 6)."""
        q3, pair = self.q3[branches, nodes], branches // 2
        out = np.empty(q3.shape + (6,))
        out[..., 0] = self.q1[branches // 4, nodes]
        out[..., 1], out[..., 3] = _arm_joints(q3, *self.arm[:, pair, nodes], self.a3)
        out[..., 2] = wrap_angles(q3)
        out[..., 4], out[..., 5] = self.q5[pair, nodes], self.q6[pair, nodes]
        return out

    def columns(self, start: int, stop: int):
        """Joints 3, 1, 5 and 6 of every candidate of nodes start..stop as
        (joint index, column) pairs, each shaped to broadcast over
        (shoulder, wrist, elbow, node); joint 3 is q3 wrapped, made as it
        is asked for and gone once the caller moves on."""
        w = stop - start
        yield 2, wrap_angles(self.q3[:, start:stop]).reshape(2, 2, 2, w)
        yield 0, self.q1[:, None, None, start:stop]
        yield 4, self.q5[:, start:stop].reshape(2, 2, 1, w)
        yield 5, self.q6[:, start:stop].reshape(2, 2, 1, w)


def _arm_joints(q3, p13_x, p13_y, r14_00, r14_10, a3: float):
    """Joints 2 and 4, wrapped, of the candidates with the unwrapped q3 and
    the planar position p13 of frame 3's origin and the entries t14[0|1,
    0] of inv(T01) T06 inv(T45 T56) (broadcast against each other)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s_arg = np.clip(a3 * np.sin(q3) / np.sqrt(p13_x**2 + p13_y**2), -1.0, 1.0)
        q2 = -np.arctan2(p13_y, -p13_x) + np.arcsin(s_arg)
        # joints 2 and 3 rotate about parallel axes, so frame 3's x axis
        # is frame 1's rotated by -(q2+q3)
        c23, s23 = np.cos(q2 + q3), np.sin(q2 + q3)
        q4 = np.arctan2(-s23 * r14_00 + c23 * r14_10, c23 * r14_00 + s23 * r14_10)
    return wrap_angles(q2), wrap_angles(q4)


def _wrist_columns(t06: np.ndarray, dh: DHParams):
    """q1 (2, 1, n) per shoulder and q5 and q6 (2, 2, n) per (shoulder,
    wrist), unwrapped, the masks of the branches valid so far and free at
    the wrist, and the rows of t16 = inv(T01) t06 that the closed form
    reads (row 1 is the target's row 2).  Every column is branch-major,
    the node axis last, so each ufunc's inner loop runs over the nodes."""
    d1, d4, d6 = dh.d1, dh.d4, dh.d6
    (r00, r01, r02, p0), (r10, r11, r12, p1), (r20, r21, r22, p2) = (
        [[t06[:, i, j] for j in range(4)] for i in range(3)])
    p05_x, p05_y = p0 - d6 * r02, p1 - d6 * r12  # frame 5's origin
    rho = np.hypot(p05_x, p05_y)
    phi = np.arccos(np.clip(d4 / rho, -1.0, 1.0))
    # arctan2 rounds the last bit of strided operands differently, so it
    # reads only fresh contiguous columns
    q1 = np.arctan2(p05_y, p05_x) + _SIGNS[:, None, None] * phi + math.pi / 2
    c1, s1 = np.cos(q1), np.sin(q1)
    c5 = (p0 * s1 - p1 * c1 - d4) / d6
    # rho < |d4|: the wrist column passes inside the shoulder cylinder
    valid = (rho >= abs(d4)) & (np.abs(c5) <= 1.0 + 1e-12)
    c5 = np.clip(c5, -1.0, 1.0)
    t16 = ((c1 * r00 + s1 * r10, c1 * r01 + s1 * r11, c1 * r02 + s1 * r12, c1 * p0 + s1 * p1),
           (r20, r21, r22, p2 - d1),
           (s1 * r00 - c1 * r10, s1 * r01 - c1 * r11))
    q5 = np.arccos(c5) * _SIGNS[:, None]
    s5 = np.sin(q5)
    free = np.abs(s5) < WRIST_DEGENERACY_TOL
    # snap onto the degeneracy so joint 4 absorbs the whole wrist rotation
    # exactly; acos noise would otherwise leak an ill-conditioned q6 into
    # the arm joints
    q5 = np.where(free, np.where(c5 > 0.0, 0.0, math.pi * _SIGNS[:, None]), q5)
    # inv(t16) rotation entries are the transpose of t16's
    q6 = np.where(free, 0.0, np.arctan2(-t16[2][1] / s5, t16[2][0] / s5))
    return q1, q5, q6, valid, free, t16


def _elbow(t16, q5, q6, dh: DHParams):
    """The planar position p13 of frame 3's origin (joint 4's axis) and
    the entries t14[0|1, 0] of t14 = t16 inv(T45 T56), stacked as arm
    (4, ...) = p13_x, p13_y, t14[0, 0], t14[1, 0], and the cosine of q3
    reaching p13; each entry is worked out in its own buffer."""
    a2, a3, d4, d5, d6 = dh.a2, dh.a3, dh.d4, dh.d5, dh.d6
    c5, s5, c6, s6 = np.cos(q5), np.sin(q5), np.cos(q6), np.sin(q6)
    arm = np.empty((4,) + c5.shape)
    for i, (x, y, z, p) in enumerate(t16[:2]):
        r14, p13 = arm[2 + i], arm[i]  # t14[i, 0] and -d4 t14[i, 1] + t14[i, 3]
        np.multiply(x, c5 * c6, out=r14)
        r14 -= y * (c5 * s6)
        r14 -= z * s5
        np.multiply(x, s5 * c6, out=p13)
        p13 -= y * (s5 * s6)
        p13 += z * c5
        p13 *= -d4
        t = x * (d5 * s6)
        t += y * (d5 * c6)
        t -= z * d6
        t += p
        p13 += t
    c3 = arm[0]**2
    c3 += arm[1]**2
    c3 -= a2**2
    c3 -= a3**2
    c3 /= 2.0 * a2 * a3
    return arm, c3


def _branch_columns(t06: np.ndarray, dh: DHParams) -> Branches:
    """The Branches of each flange target in the (n, 4, 4) array t06, of
    which only the top three rows are read (so (n, 3, 4) does too, and
    any strided view of either).  q1 is a column over (shoulder, 1, n),
    q5 and q6 over (shoulder, wrist, n), and q3 adds the elbow.  The
    wrist and elbow steps run in helpers, so their temporaries are gone
    before the next step's are made."""
    q1, q5, q6, valid, free, t16 = _wrist_columns(t06, dh)
    arm, c3 = _elbow(t16, q5, q6, dh)
    # At the degeneracy (q5 = 0 or pi) joints 2, 3, 4 and 6 are parallel:
    # the target fixes only q2+q3+q4 -+ q6, and q6 turns frame 4 about the
    # wrist centre on a circle of radius d5.  Where q6 = 0 leaves it out of
    # the arm's reach, q6 turns to bring it back (_reaching_q6).  Only
    # branches without a solution at q6 = 0 change.
    lost = free & (np.abs(c3) > 1.0 + 1e-12)
    if lost.any():
        q6 = np.where(lost, _reaching_q6(t16, q5, arm[0], arm[1], c3, dh), q6)
        arm, c3 = _elbow(t16, q5, q6, dh)
    valid = valid & (np.abs(c3) <= 1.0 + 1e-12)
    q3 = np.arccos(np.clip(c3, -1.0, 1.0))[:, :, None] * _SIGNS[:, None]
    n = len(t06)
    return Branches(wrap_angles(q1).reshape(2, n), wrap_angles(q5).reshape(4, n),
                    wrap_angles(q6).reshape(4, n), q3.reshape(8, n), arm.reshape(4, 4, n),
                    valid.reshape(4, n), dh.a3)


def _reaching_q6(t16, q5, p13_x, p13_y, c3, dh: DHParams):
    """For wrist-degenerate branches whose elbow is out of reach at q6 = 0
    (p13, c3): the q6 nearest 0 that puts cos q3 at c3 clipped into
    [-1 + ELBOW_MARGIN, 1 - ELBOW_MARGIN], or as near to it as the circle
    allows; 0 where no q6 moves frame 4 (d5 = 0)."""
    a2, a3, d6 = dh.a2, dh.a3, dh.d6
    # the wrist centre (frame 5's origin) and the offset v to it from
    # frame 4's, of length |d5|, both in frame 1's plane; turning q6 by
    # delta turns v by -cos(q5) delta
    px, py = (p - d6 * z for _, _, z, p in t16[:2])
    vx, vy = px - p13_x, py - p13_y
    p_sq, v_sq = px**2 + py**2, vx**2 + vy**2
    goal = np.clip(c3, ELBOW_MARGIN - 1.0, 1.0 - ELBOW_MARGIN)
    want_sq = a2**2 + a3**2 + 2.0 * a2 * a3 * goal
    # |p - R(t) v|^2 = |p|^2 + |v|^2 - 2 |p| |v| cos(t + gamma)
    gamma = np.arctan2(px * vy - py * vx, px * vx + py * vy)
    turn = np.arccos(np.clip((p_sq + v_sq - want_sq) / (2.0 * np.sqrt(p_sq * v_sq)), -1.0, 1.0))
    sense = np.cos(q5)
    near, far = wrap_angles(sense * (gamma - turn)), wrap_angles(sense * (gamma + turn))
    q6 = np.where(np.abs(near) <= np.abs(far), near, far)
    return np.where(np.isfinite(q6), q6, 0.0)


def _forward_ok(qs: np.ndarray, t06: np.ndarray, dh: DHParams) -> np.ndarray:
    """Whether the flange pose of each row of the (..., 6) joints matches
    its target in t06 (..., 3|4, 4, broadcast against the rows) to
    POSITION_TOL_MM and ORIENTATION_TOL_RAD.  Row by row, so a subset of
    rows gets the bits it gets among all of them."""
    with np.errstate(invalid="ignore"):
        got = _flange(qs.reshape(-1, 6), dh).reshape(qs.shape[:-1] + (3, 4))
    pos_sq = rot_sq = 0.0
    for i in range(3):
        pos_sq = pos_sq + (got[..., i, 3] - t06[..., i, 3])**2
        for j in range(3):
            rot_sq = rot_sq + (got[..., i, j] - t06[..., i, j])**2
    # ||R1 - R2||_F = 2 sqrt(2) |sin(theta/2)|; asin keeps the
    # small-angle regime well conditioned where acos(trace) is not
    rot_err = 2.0 * np.arcsin(np.minimum(1.0, np.sqrt(rot_sq) / (2.0 * math.sqrt(2.0))))
    return ~((np.sqrt(pos_sq) > POSITION_TOL_MM) | (rot_err > ORIENTATION_TOL_RAD))


def _checked_rows(cands: Branches, nodes: np.ndarray, t06: np.ndarray, dh: DHParams):
    """All eight candidate rows (m, 8, 6) of the m given nodes, and the
    mask (m, 8) of those that are valid and whose forward pose matches
    their node's target in the (n, 3|4, 4) flange targets t06."""
    rows = cands.rows(nodes[:, None], np.arange(8))
    valid = np.repeat(cands.valid[:, nodes], 2, axis=0).T
    return rows, valid & _forward_ok(rows, t06[nodes, None], dh)


def _dedup(qs: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Drop candidate k of each row when it lies within 1e-9 (max-norm) of
    a kept candidate j < k.  Returns the kept mask (n, 8)."""
    # pair p = k (k - 1) / 2 + j compares candidate k with j < k, a joint
    # at a time; the pair and candidate axes lead, so every reduction runs
    # a row at a time
    q = qs.T
    near = np.ones((len(_PAIR_K), len(qs)), dtype=bool)
    for i in range(6):
        near &= _close(q[i, _PAIR_K], q[i, _PAIR_J])
    kept = ok.T.copy()
    for k in range(1, 8):
        kept[k] &= ~(kept[:k] & near[k * (k - 1) // 2:k * (k + 1) // 2]).any(axis=0)
    return kept.T


def ik(target: Pose, dh: DHParams, tcp_offset: Pose = Pose.identity()) -> list[IKSolution]:
    """All analytic solutions whose forward pose matches the target.

    Candidates that fail the forward check (spurious or out-of-reach
    branches) are dropped; an unreachable target yields an empty list.
    At the wrist degeneracy (q5 = 0 or pi) joints 2, 3, 4 and 6 are
    parallel and the target fixes only q2+q3+q4 -+ q6; the flip pair
    collapses to a single representative carrying free_parameter=True.
    It has q6 = 0 where the elbow then reaches, and otherwise the q6
    nearest 0 that brings the elbow within reach, with q2, q3 and q4
    solved for that q6.
    """
    t06 = (target.to_matrix() @ np.linalg.inv(tcp_offset.to_matrix()))[None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cands = _branch_columns(t06, dh)
    rows, ok = _checked_rows(cands, np.arange(1), t06, dh)
    # wrist-free is q5 put on the degeneracy, wrapped to exactly 0.0 or pi;
    # a kept row within 1e-9 of a free one has |sin q5| < 1e-9 <
    # WRIST_DEGENERACY_TOL, so it was put there too
    return [IKSolution(JointConfig(tuple(rows[0, k].tolist())), *_BRANCHES[k],
                       rows[0, k, 4] in (0.0, math.pi))
            for k in np.flatnonzero(_dedup(rows, ok)[0])]


# candidate indices in (shoulder, elbow, wrist) tag order, the order in
# which nearest_branch breaks ties
TAG_ORDER = np.array(sorted(range(8), key=lambda k: _BRANCHES[k]))


def _fold(cand: np.ndarray, joint_limit: float) -> np.ndarray:
    """cand moved in place by one turn where it lies beyond +-joint_limit;
    returns cand."""
    high, low = cand > joint_limit, cand < -joint_limit
    np.subtract(cand, math.tau, out=cand, where=high)
    np.add(cand, math.tau, out=cand, where=low)
    return cand


def _unwrapped(rows: np.ndarray, prev: np.ndarray, joint_limit: float) -> np.ndarray:
    """rows moved by whole turns per joint to lie nearest prev, folded into
    +-joint_limit: rows + tau rint((prev - rows) / tau), rounding half to
    even as round(), worked out in one buffer."""
    out = prev - rows
    out /= math.tau
    np.rint(out, out=out)
    out *= math.tau
    out += rows
    return _fold(out, joint_limit)


def _reduce_last(ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc.reduce over the short last axis of a, a column at a time
    (numpy reduces a short last axis an order of magnitude slower)."""
    out = a[..., 0].copy()
    for i in range(1, a.shape[-1]):
        ufunc(out, a[..., i], out=out)
    return out


def nearest_branch(rows: np.ndarray, kept: np.ndarray, prev: np.ndarray,
                   joint_limit: float):
    """For each node, the kept row of its (m, 6) candidates closest to the
    node's prev in max-norm after per-joint 2-pi unwrapping folded into
    +-joint_limit.  Rows are scanned in order (the planner passes them in
    TAG_ORDER) and displace the best so far only when closer by more
    than 1e-15.

    rows (n, m, 6), kept (n, m) with a kept row in every node, prev
    (n, 6).  Returns the chosen unwrapped joints (n, 6), their distances
    to prev (n,) and the indices of the chosen rows (n,).
    """
    prev = prev[:, None]
    cand = _unwrapped(rows, prev, joint_limit)
    dist = _reduce_last(np.maximum, np.abs(cand - prev))
    best = np.zeros(len(rows), dtype=int)
    best_d = np.full(len(rows), np.inf)
    seen = np.zeros(len(rows), dtype=bool)
    for j in range(rows.shape[1]):
        take = kept[:, j] & (~seen | (dist[:, j] < best_d - 1e-15))
        best[take] = j
        best_d[take] = dist[take, j]
        seen |= kept[:, j]
    return cand[np.arange(len(rows)), best], best_d, best


def select_chain(cands: Branches, t06: np.ndarray, dh: DHParams, prev: np.ndarray,
                 prev_branch: int | None, joint_limit: float, added: np.ndarray,
                 max_step: float = math.inf):
    """nearest_branch of each node's kept candidates along a chain: node i
    continues from the choice of the last node j < i with added[j] set,
    or from the given (6,) prev, on candidate prev_branch, if there is
    none.  cands are the Branches of the (n, 3|4, 4) flange targets t06; a
    candidate is kept when it is valid, passes _forward_ok and survives
    _dedup.  Returns the choices (r, 6), their distances (r,) and their
    candidate indices (r,) of the nodes before r, the first node with no
    kept candidate (n if every node has one).  A planner refuses a step
    longer than max_step, so the chain may also end just after the first
    node past the leading ones whose distance exceeds it.

    The full path (all eight rows solved, their forward check, _dedup
    and nearest_branch) chooses the leading nodes, which continue from
    prev, when prev_branch is None.  Then each round guesses every open
    node on the branch b of the last settled choice, chaining whole turns
    from that choice, and chooses each node from its predecessor's
    guess; only b's arm joints are solved.  A node settles on b without
    the full path when
      1. b is valid, passes the forward check and lies within 1e-9 on
         joints 1, 3, 5 and 6 of no earlier valid candidate, so it lies
         within 1e-9 on all six of none and _dedup keeps it, and
      2. every other valid candidate's unwrapped gap on joints 1, 3 and 5
         alone exceeds b's distance by 1e-12, so its distance does too
         and no kept rival displaces b under nearest_branch's 1e-15 rule
         (a NaN gap is never far);
    any other node takes the full path.  The open prefix whose every
    prev equals bit for bit the choice it stands for is settled, so the
    result is that of selecting node by node.
    """
    n, valid = len(t06), cands.valid
    src = np.maximum.accumulate(np.where(added, np.arange(n), -1))
    src = np.concatenate(([-1], src))[:n]
    # the row after the chunk's holds prev and its branch, so that src = -1 reads them
    choice, dist, branch = np.empty((n + 1, 6)), np.empty(n + 1), np.empty(n + 1, dtype=int)
    choice[n] = prev

    def full(nodes, used):
        """The full path on the given nodes; returns whether each has a kept candidate."""
        rows, ok = _checked_rows(cands, nodes, t06, dh)
        kept = _dedup(rows, ok)[:, TAG_ORDER]
        choice[nodes], dist[nodes], best = nearest_branch(rows[:, TAG_ORDER], kept, used,
                                                          joint_limit)
        branch[nodes] = TAG_ORDER[best]
        return _reduce_last(np.logical_or, kept)

    done = 0
    if prev_branch is None:
        # the leading nodes, up to the first added one, continue from prev
        done = int(np.argmax(added)) + 1 if added.any() else n
        reach = full(np.arange(done), np.broadcast_to(prev, (done, 6)))
        if not reach.all():
            n = done = int(np.argmin(reach))
    else:
        branch[n] = prev_branch
    while done < n:
        b = branch[src[done]]
        s, raw = src[done:n], cands.rows(slice(done, n), b)
        fast = valid[b // 2, done:n] & _forward_ok(raw, t06[done:n], dh)
        used = _guessed_prev(raw, s - done, choice[src[done]], added[done:n], joint_limit)
        # b's rows unwrapped; the full path overwrites those of the slow nodes
        choice[done:n] = _unwrapped(raw, used, joint_limit)
        db = _reduce_last(np.maximum, np.abs(choice[done:n] - used))
        fast &= _unrivalled(cands, done, n, raw, used, db, b, joint_limit)
        dist[done:n][fast], branch[done:n][fast] = db[fast], b
        slow = np.flatnonzero(~fast)
        if len(slow):
            reach = full(done + slow, used[slow])
            if not reach.all():
                n = done + slow[np.argmin(reach)]
        same = _reduce_last(np.logical_and,
                            used[:n - done].view(np.int64) == choice[s[:n - done]].view(np.int64))
        settled = done + (len(same) if same.all() else int(np.argmin(same)))
        jump = np.flatnonzero(dist[done:settled] > max_step)
        if len(jump):
            n = settled = done + jump[0] + 1
        done = settled
    return choice[:n], dist[:n], branch[:n]


def _guessed_prev(raw, j, settled, added, joint_limit: float) -> np.ndarray:
    """The prev of each open node of a round: the settled (6,) choice where
    j < 0, else the guess of open node j, which is its raw row moved by
    whole turns chained along the added nodes from the settled choice."""
    on_settled = j < 0
    j = np.maximum(j, 0)
    # whole turns of each guess from its raw row, a buffer at a time; the
    # rows on the settled choice are written by mask, not broadcast
    step = raw[j]
    step[on_settled] = settled
    step -= raw
    step /= math.tau
    np.rint(step, out=step)
    turns = step.copy()
    turns[~added] = 0.0
    turns = np.cumsum(turns, axis=0, out=turns)[j]
    turns[on_settled] = 0.0
    turns += step
    turns *= math.tau
    turns += raw
    turns = _fold(turns, joint_limit)[j]
    turns[on_settled] = settled
    return turns


def _close(a, b):
    """|a - b| < 1e-9, in one buffer."""
    gap = a - b
    return np.abs(gap, out=gap) < 1e-9


def _unrivalled(cands: Branches, start: int, stop: int, raw, used, db, b: int,
                joint_limit: float) -> np.ndarray:
    """Whether the row raw of branch b of each node start..stop, at
    distance db from the node's prev `used`, meets select_chain's
    conditions 1 and 2 (b's own validity and forward check aside).  Both
    read the columns, q1 over its two per node, q5, q6 and valid over four
    and joint 3 over all eight, broadcast over the eight candidates."""
    w = stop - start
    near, gaps = np.ones((2, 2, 2, w), dtype=bool), None
    for i, column in cands.columns(start, stop):  # joint 3 first
        near &= _close(raw[:, i], column)
        if i < 5:  # condition 2 reads joints 1, 3 and 5
            gap = _unwrapped(column, used[:, i], joint_limit)
            gap -= used[:, i]
            np.abs(gap, out=gap)
            gaps = gap if gaps is None else np.maximum(gaps, gap, out=gaps)
    # the candidate axis leads, so these reductions run a row at a time
    valid = cands.valid[:, start:stop].reshape(2, 2, 1, w)
    far = (~valid | (gaps > (db + 1e-12))).reshape(8, w)
    far[b] = True
    return ~(near & valid).reshape(8, w)[:b].any(axis=0) & far.all(axis=0)


def jacobian(q: JointConfig, dh: DHParams, tcp_offset: Pose = Pose.identity()) -> np.ndarray:
    """Geometric Jacobian of the TCP, linear part in mm/rad: column i is
    (z_i x (p - o_i), z_i) for joint i's axis z_i through o_i and the TCP
    position p (Siciliano et al., "Robotics: Modelling, Planning and
    Control", 2009, sec. 3.1), each in closed form for the UR-type arm."""
    flange = np.eye(4)
    flange[:3] = _flange(np.array([q.q], float), dh)[0]
    p = (flange @ tcp_offset.to_matrix())[:3, 3]
    q1, q2, q3, q4 = q.q[:4]
    c1, s1 = math.cos(q1), math.sin(q1)
    q23 = q2 + q3
    c234, s234 = math.cos(q23 + q4), math.sin(q23 + q4)
    # joints 2, 3 and 4 turn about one axis; joint 6's is the flange's z
    z = np.array([(0.0, 0.0, 1.0), (s1, -c1, 0.0), (s1, -c1, 0.0), (s1, -c1, 0.0),
                  (c1 * s234, s1 * s234, -c234), flange[:3, 2]])
    # each origin is the last one plus a link: d1 up the base axis, a2 and
    # a3 along the arm, d4 and d5 along the axes of joints 4 and 5
    links = np.array([(0.0, 0.0, 0.0), (0.0, 0.0, 1.0),
                      (c1 * math.cos(q2), s1 * math.cos(q2), math.sin(q2)),
                      (c1 * math.cos(q23), s1 * math.cos(q23), math.sin(q23)), z[3], z[4]])
    o = np.cumsum(links * np.array([0.0, dh.d1, dh.a2, dh.a3, dh.d4, dh.d5])[:, None], axis=0)
    return np.vstack((np.cross(z, p - o).T, z.T))


def manipulability_batch(qs: np.ndarray, dh: DHParams) -> np.ndarray:
    """|det J| (= sqrt(det(J J^T)), J square) of the meters-scaled Jacobian
    for each row of the (n, 6) joint array qs, in closed form:
    |1e-9 a2 a3 sin q3 sin q5 (a2 cos q2 + a3 cos(q2+q3) + d5 sin(q2+q3+q4))|.

    The three factors vanish at the elbow, wrist and shoulder
    singularities.  The TCP offset does not enter: moving the Jacobian's
    reference point multiplies J by a block-triangular matrix of unit
    determinant."""
    _, q2, q3, q4, q5, _ = qs.T
    a2, a3, d5 = dh.a2, dh.a3, dh.d5
    q23 = q2 + q3
    # distance of frame 5 from the base axis within the arm's plane, as in _flange
    arm = a2 * np.cos(q2) + a3 * np.cos(q23) + d5 * np.sin(q23 + q4)
    return np.abs(1e-9 * a2 * a3 * np.sin(q3) * np.sin(q5) * arm)


def manipulability(q: JointConfig, dh: DHParams, tcp_offset: Pose = Pose.identity()) -> float:
    """Manipulability of one configuration; see manipulability_batch.  The
    TCP offset leaves it unchanged."""
    return float(manipulability_batch(np.array([q.q], float), dh)[0])


def is_singular(q: JointConfig, eps: float, dh: DHParams,
                tcp_offset: Pose = Pose.identity()) -> bool:
    return manipulability(q, dh, tcp_offset) < eps

"""Analytic kinematics for the 6-DOF arm carrying the extruder.

One batched chain of standard DH transforms serves every forward
quantity, for a whole trajectory at once: TCP frames, the Jacobian,
manipulability and IK's forward check; `fk`, `jacobian` and
`manipulability` are one-row calls into it.  Inverse kinematics
enumerates the eight closed-form branches (shoulder left/right, elbow
up/down, wrist flip) and validates each against the forward chain.  The
Jacobian is geometric: linear rows in mm/rad, angular rows in rad/rad.
Manipulability is |det J| (Yoshikawa) of a meters-scaled copy of the
Jacobian, so it is O(0.01) away from singularities and collapses below
1e-9 at them, independent of the mm length unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import RamcellError
from .config import KinematicsConfig
from .geometry import Pose, wrap_angle

POSITION_TOL_MM = 1e-6
ORIENTATION_TOL_RAD = 1e-8
WRIST_DEGENERACY_TOL = 1e-7


class UnreachableError(RamcellError):
    pass


@dataclass(frozen=True)
class DHParams:
    a: tuple[float, ...]
    d: tuple[float, ...]
    alpha: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.a) == len(self.d) == len(self.alpha) == 6):
            raise ValueError("DH table needs exactly 6 rows")
        for v in (*self.a, *self.d, *self.alpha):
            if not math.isfinite(v):
                raise ValueError("DH values must be finite")

    @staticmethod
    def from_config(cfg: KinematicsConfig) -> "DHParams":
        return DHParams(
            a=(0.0, cfg.a2_mm, cfg.a3_mm, 0.0, 0.0, 0.0),
            d=(cfg.d1_mm, 0.0, 0.0, cfg.d4_mm, cfg.d5_mm, cfg.d6_mm),
            alpha=(math.pi / 2, 0.0, 0.0, math.pi / 2, -math.pi / 2, 0.0),
        )

    def max_reach(self) -> float:
        return sum(abs(v) for v in self.a) + sum(abs(v) for v in self.d)


@dataclass(frozen=True)
class JointConfig:
    q: tuple[float, float, float, float, float, float]

    def __post_init__(self):
        if len(self.q) != 6:
            raise ValueError("need 6 joint values")

    @staticmethod
    def of(*vals: float) -> "JointConfig":
        return JointConfig(tuple(float(v) for v in vals))

    def max_distance(self, other: "JointConfig") -> float:
        a, b = self.q, other.q
        worst = 0.0
        for i in range(6):
            d = a[i] - b[i]
            if d < 0.0:
                d = -d
            if d > worst:
                worst = d
        return worst


@dataclass(frozen=True)
class IKSolution:
    config: JointConfig
    shoulder: str  # "left" | "right"
    elbow: str     # "up" | "down"
    wrist: str     # "noflip" | "flip"
    free_parameter: bool = False

    @property
    def tag(self) -> tuple[str, str, str]:
        return (self.shoulder, self.elbow, self.wrist)


def _dh_matrix(theta: float, a: float, d: float, alpha: float) -> np.ndarray:
    ct, st = math.cos(theta), math.sin(theta)
    ca, sa = math.cos(alpha), math.sin(alpha)
    m = np.empty((4, 4))
    m[0, 0] = ct; m[0, 1] = -st * ca; m[0, 2] = st * sa; m[0, 3] = a * ct
    m[1, 0] = st; m[1, 1] = ct * ca; m[1, 2] = -ct * sa; m[1, 3] = a * st
    m[2, 0] = 0.0; m[2, 1] = sa; m[2, 2] = ca; m[2, 3] = d
    m[3, 0] = 0.0; m[3, 1] = 0.0; m[3, 2] = 0.0; m[3, 3] = 1.0
    return m


def _rigid_inv(t: np.ndarray) -> np.ndarray:
    """Inverse of a rigid transform via transpose."""
    out = np.empty((4, 4))
    rt = t[:3, :3].T
    out[:3, :3] = rt
    out[:3, 3] = -rt @ t[:3, 3]
    out[3, :3] = 0.0
    out[3, 3] = 1.0
    return out


def _frames(qs: np.ndarray, dh: DHParams) -> np.ndarray:
    """Cumulative transforms base->frame_i, i = 0..6, for each row of the
    (n, 6) joint array: shape (n, 7, 4, 4).  Links are built one joint at
    a time, so one (n, 4, 4) link is the only other batch-sized array.
    """
    ca, sa = np.cos(dh.alpha), np.sin(dh.alpha)
    frames = np.empty((len(qs), 7, 4, 4))
    frames[:, 0] = np.eye(4)
    link = np.empty((len(qs), 4, 4))
    link[:, 3] = (0.0, 0.0, 0.0, 1.0)
    for i in range(6):
        ct, st = np.cos(qs[:, i]), np.sin(qs[:, i])
        link[:, 0] = np.stack([ct, -st * ca[i], st * sa[i], dh.a[i] * ct], axis=1)
        link[:, 1] = np.stack([st, ct * ca[i], -ct * sa[i], dh.a[i] * st], axis=1)
        link[:, 2] = (0.0, sa[i], ca[i], dh.d[i])
        frames[:, i + 1] = frames[:, i] @ link
    return frames


def _joint_array(qs) -> np.ndarray:
    return np.array([q.q for q in qs], dtype=float).reshape(-1, 6)


def fk_batch(qs, dh: DHParams, tcp_offset: Pose = Pose.identity()) -> np.ndarray:
    """TCP transforms, shape (n, 4, 4), for a sequence of JointConfigs."""
    return _frames(_joint_array(qs), dh)[:, 6] @ tcp_offset.to_matrix()


def fk(q: JointConfig, dh: DHParams, tcp_offset: Pose = Pose.identity()) -> Pose:
    """TCP pose for a joint configuration."""
    return Pose.from_matrix(fk_batch((q,), dh, tcp_offset)[0])


def _candidate_angles(t06: np.ndarray, dh: DHParams):
    """Yield (q, shoulder, elbow, wrist, free) for all closed-form branches."""
    a2, a3 = dh.a[1], dh.a[2]
    d4, d6 = dh.d[3], dh.d[5]
    p06 = t06[:3, 3]
    p05 = t06 @ np.array([0.0, 0.0, -d6, 1.0])
    rho = math.hypot(p05[0], p05[1])
    if rho < abs(d4):
        return  # wrist column passes inside the shoulder cylinder
    psi = math.atan2(p05[1], p05[0])
    phi = math.acos(max(-1.0, min(1.0, d4 / rho)))
    for shoulder, q1 in (("left", psi + phi + math.pi / 2),
                         ("right", psi - phi + math.pi / 2)):
        c5 = (p06[0] * math.sin(q1) - p06[1] * math.cos(q1) - d4) / d6
        if abs(c5) > 1.0 + 1e-12:
            continue
        c5 = max(-1.0, min(1.0, c5))
        t01 = _dh_matrix(q1, dh.a[0], dh.d[0], dh.alpha[0])
        t16 = _rigid_inv(t01) @ t06
        for wrist, q5 in (("noflip", math.acos(c5)), ("flip", -math.acos(c5))):
            s5 = math.sin(q5)
            free = abs(s5) < WRIST_DEGENERACY_TOL
            if free:
                # snap onto the degeneracy so joint 4 absorbs the whole
                # wrist rotation exactly; acos noise would otherwise leak
                # an ill-conditioned q6 into the arm joints
                q5 = 0.0 if c5 > 0.0 else math.copysign(math.pi, q5)
                q6 = 0.0
            else:
                # inv(t16) rotation entries are the transpose of t16's
                q6 = math.atan2(-t16[2, 1] / s5, t16[2, 0] / s5)
            t45 = _dh_matrix(q5, dh.a[4], dh.d[4], dh.alpha[4])
            t56 = _dh_matrix(q6, dh.a[5], dh.d[5], dh.alpha[5])
            t14 = t16 @ _rigid_inv(t45 @ t56)
            p13_x = -d4 * t14[0, 1] + t14[0, 3]
            p13_y = -d4 * t14[1, 1] + t14[1, 3]
            l13_sq = p13_x**2 + p13_y**2
            l13 = math.sqrt(l13_sq)
            c3 = (l13_sq - a2**2 - a3**2) / (2.0 * a2 * a3)
            if abs(c3) > 1.0 + 1e-12:
                continue
            c3 = max(-1.0, min(1.0, c3))
            r14_00, r14_10 = t14[0, 0], t14[1, 0]
            for elbow, q3 in (("up", math.acos(c3)), ("down", -math.acos(c3))):
                s_arg = max(-1.0, min(1.0, a3 * math.sin(q3) / l13))
                q2 = -math.atan2(p13_y, -p13_x) + math.asin(s_arg)
                # joints 2 and 3 rotate about parallel axes, so frame 3's
                # x axis is frame 1's rotated by -(q2+q3)
                c23, s23 = math.cos(q2 + q3), math.sin(q2 + q3)
                q4 = math.atan2(-s23 * r14_00 + c23 * r14_10,
                                c23 * r14_00 + s23 * r14_10)
                q = JointConfig(tuple(wrap_angle(v) for v in (q1, q2, q3, q4, q5, q6)))
                yield q, shoulder, elbow, wrist, free


def ik(target: Pose, dh: DHParams, tcp_offset: Pose = Pose.identity()) -> list[IKSolution]:
    """All analytic solutions whose forward pose matches the target.

    Candidates that fail the forward check (spurious or out-of-reach
    branches) are dropped; an unreachable target yields an empty list.
    At the wrist degeneracy (q5 = 0) the flip pair collapses to a single
    representative carrying free_parameter=True, with the q4+q6 rotation
    absorbed into q4.
    """
    t06 = target.to_matrix() @ _rigid_inv(tcp_offset.to_matrix())
    candidates = list(_candidate_angles(t06, dh))
    if not candidates:
        return []
    got = _frames(_joint_array(c[0] for c in candidates), dh)[:, 6]
    pos_err = np.linalg.norm(got[:, :3, 3] - t06[:3, 3], axis=1)
    # ||R1 - R2||_F = 2 sqrt(2) |sin(theta/2)|; asin keeps the small-angle
    # regime well conditioned where acos(trace) is not
    fro = np.linalg.norm(got[:, :3, :3] - t06[:3, :3], axis=(1, 2))
    rot_err = 2.0 * np.arcsin(np.minimum(1.0, fro / (2.0 * math.sqrt(2.0))))
    solutions: list[IKSolution] = []
    for i, (q, shoulder, elbow, wrist, free) in enumerate(candidates):
        if pos_err[i] > POSITION_TOL_MM or rot_err[i] > ORIENTATION_TOL_RAD:
            continue
        dup = False
        for j, existing in enumerate(solutions):
            if existing.config.max_distance(q) < 1e-9:
                if free and not existing.free_parameter:
                    solutions[j] = IKSolution(existing.config, existing.shoulder,
                                              existing.elbow, existing.wrist, True)
                dup = True
                break
        if not dup:
            solutions.append(IKSolution(q, shoulder, elbow, wrist, free))
    return solutions


def select_branch(solutions: list[IKSolution], prev: JointConfig,
                  joint_limit: float = 2.0 * math.pi) -> JointConfig:
    """Branch closest to prev in max-norm, after per-joint 2-pi unwrapping.

    Ties break on the lexicographically first (shoulder, elbow, wrist) tag.
    """
    if not solutions:
        raise UnreachableError("no inverse kinematics solution")
    best = None
    for sol in sorted(solutions, key=lambda s: s.tag):
        unwrapped = []
        for qi, pi in zip(sol.config.q, prev.q):
            cand = qi + 2.0 * math.pi * round((pi - qi) / (2.0 * math.pi))
            if cand > joint_limit:
                cand -= 2.0 * math.pi
            elif cand < -joint_limit:
                cand += 2.0 * math.pi
            unwrapped.append(cand)
        cfg = JointConfig(tuple(unwrapped))
        dist = cfg.max_distance(prev)
        if best is None or dist < best[0] - 1e-15:
            best = (dist, cfg)
    return best[1]


def _jacobians(qs, dh: DHParams, tcp_offset: Pose) -> np.ndarray:
    """Geometric TCP Jacobians, shape (n, 6, 6); column i is joint i."""
    frames = _frames(_joint_array(qs), dh)
    p_e = (frames[:, 6] @ tcp_offset.to_matrix())[:, :3, 3]
    z = frames[:, :6, :3, 2]
    r = p_e[:, None, :] - frames[:, :6, :3, 3]
    jac = np.empty((len(frames), 6, 6))
    jac[:, :3, :] = np.cross(z, r).transpose(0, 2, 1)
    jac[:, 3:, :] = z.transpose(0, 2, 1)
    return jac


def jacobian(q: JointConfig, dh: DHParams, tcp_offset: Pose = Pose.identity()) -> np.ndarray:
    """Geometric Jacobian of the TCP, linear part in mm/rad."""
    return _jacobians((q,), dh, tcp_offset)[0]


def manipulability_batch(qs, dh: DHParams,
                         tcp_offset: Pose = Pose.identity()) -> np.ndarray:
    """|det J| (= sqrt(det(J J^T)), J square) of the meters-scaled Jacobian
    for each JointConfig in qs."""
    jac = _jacobians(qs, dh, tcp_offset)
    jac[:, :3, :] /= 1000.0
    return np.abs(np.linalg.det(jac))


def manipulability(q: JointConfig, dh: DHParams, tcp_offset: Pose = Pose.identity()) -> float:
    """Manipulability of one configuration; see manipulability_batch."""
    return float(manipulability_batch((q,), dh, tcp_offset)[0])


def is_singular(q: JointConfig, eps: float, dh: DHParams,
                tcp_offset: Pose = Pose.identity()) -> bool:
    return manipulability(q, dh, tcp_offset) < eps


def tcp_offset_from_config(cfg: KinematicsConfig) -> Pose:
    return Pose.from_xyz(0.0, 0.0, cfg.tcp_offset_z_mm)

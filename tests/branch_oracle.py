"""Per-node reference implementations of the planner's branch logic.

The planner de-duplicates IK candidates, selects branches and checks
joint speeds as array operations over whole chunks of nodes, and the
singularity scan and the script writer read the program's columns.
These are the scalar loops those replaced, kept as the oracle that the
array code must match bit for bit.  The singularity scan's oracle takes
manipulability as the LU determinant of the geometric Jacobian, which
the closed form replaced.  The IK oracle builds the candidates from
products of DH link matrices (inv(T01) T06 and T16 inv(T45 T56)) and
checks each against its target gathered by np.repeat; the column kernel,
which reads the target's entries, must match it to rounding, not bit for
bit.  The DH product is this module's own: `dh_links` builds the link
matrices, `ur_rows` the arm's six (a, d, alpha) rows from a DHParams, and
`dh_product` multiplies them out, so the oracles share no code with the
closed forms they check.  `ik_per_node` de-duplicates the kernel's rows
node by node and takes each candidate's wrist-free flag from the
DH-product candidates, so `ik`'s flag, read off its q5, is checked
against a flag it did not compute.  fk_batch and select_branch are the batch
forward kinematics and the one-node branch choice that no production
code calls; tests build targets and tool-down programs with them, and
`tag`, `about_z` and `rotate` are the small helpers the tests sort
solutions, turn frames and move vectors with, and `tcp_offset_from_config`
states a [kinematics] table's TCP offset as the general Pose the one-row
API takes; the planner moves positions along the tool axis instead.
"""

import math
from dataclasses import replace

import numpy as np

from ramcell import RamcellError
from ramcell.cell import (MAX_JOINT_STEP_RAD, PlanningError, RobotProgram,
                          _plan_nodes, cfg_home)
from ramcell.config import KinematicsConfig
from ramcell.geometry import Pose, Rotation, Vec3, wrap_angles
from ramcell.kinematics import (_BRANCHES, _SIGNS, ELBOW_MARGIN, ORIENTATION_TOL_RAD,
                                POSITION_TOL_MM, WRIST_DEGENERACY_TOL, DHParams, IKSolution,
                                JointConfig, _branch_columns, _checked_rows, _flange,
                                jacobian, nearest_branch)


class UnreachableError(RamcellError):
    pass


def tag(sol: IKSolution) -> tuple[str, str, str]:
    """The (shoulder, elbow, wrist) branch of an ik solution."""
    return (sol.shoulder, sol.elbow, sol.wrist)


def about_z(angle: float) -> Rotation:
    """The rotation by angle about the z axis."""
    return Rotation.from_axis_angle(Vec3(0.0, 0.0, 1.0), angle)


def rotate(r: Rotation, v: Vec3) -> Vec3:
    """v turned by r."""
    return Vec3.from_array(r.matrix @ v.to_array())


def tcp_offset_from_config(cfg: KinematicsConfig) -> Pose:
    """The TCP offset of a [kinematics] table: tcp_offset_z_mm along the
    flange z axis, with the flange's orientation."""
    return Pose(Vec3(0.0, 0.0, cfg.tcp_offset_z_mm), Rotation.identity())


def dh_links(theta, a: float, d: float, alpha: float) -> np.ndarray:
    """DH link transforms for an array of joint angles: theta.shape + (4, 4)."""
    ct, st = np.cos(theta), np.sin(theta)
    ca, sa = math.cos(alpha), math.sin(alpha)
    link = np.zeros(np.shape(theta) + (4, 4))
    link[..., 0, 0], link[..., 1, 0] = ct, st
    link[..., 0, 1], link[..., 1, 1] = -st * ca, ct * ca
    link[..., 0, 2], link[..., 1, 2] = st * sa, -ct * sa
    link[..., 0, 3], link[..., 1, 3] = a * ct, a * st
    link[..., 2, 1:] = (sa, ca, d)
    link[..., 3, 3] = 1.0
    return link


def ur_rows(dh: DHParams) -> tuple[tuple[float, float, float], ...]:
    """The (a, d, alpha) DH rows of the UR-type arm with dh's lengths."""
    return ((0.0, dh.d1, math.pi / 2), (dh.a2, 0.0, 0.0), (dh.a3, 0.0, 0.0),
            (0.0, dh.d4, math.pi / 2), (0.0, dh.d5, -math.pi / 2), (0.0, dh.d6, 0.0))


def dh_product(qs: np.ndarray, dh: DHParams) -> np.ndarray:
    """Flange transforms base->frame_6, shape (n, 4, 4), of the rows of the
    (n, 6) joint array: the six DH links multiplied out in order."""
    out = np.eye(4)
    for q, row in zip(qs.T, ur_rows(dh)):
        out = out @ dh_links(q, *row)
    return out


def fk_batch(qs: np.ndarray, dh: DHParams, tcp_offset: Pose = Pose.identity()) -> np.ndarray:
    """TCP transforms, shape (n, 4, 4), for the rows of the (n, 6) joint array."""
    flange = np.zeros((len(qs), 4, 4))
    flange[:, :3] = _flange(qs, dh)
    flange[:, 3, 3] = 1.0
    return flange @ tcp_offset.to_matrix()


def select_branch(solutions: list[IKSolution], prev: JointConfig,
                  joint_limit: float = 2.0 * math.pi) -> JointConfig:
    """Branch closest to prev in max-norm, after per-joint 2-pi unwrapping.

    Ties break on the lexicographically first (shoulder, elbow, wrist) tag.
    """
    if not solutions:
        raise UnreachableError("no inverse kinematics solution")
    rows = np.array([[s.config.q for s in sorted(solutions, key=tag)]])
    q, _, _ = nearest_branch(rows, np.ones(rows.shape[:2], dtype=bool),
                             np.array([prev.q]), joint_limit)
    return JointConfig(tuple(q[0].tolist()))


def max_distance(a, b) -> float:
    """Max-norm distance of two 6-joint sequences, one joint at a time."""
    worst = 0.0
    for i in range(6):
        d = a[i] - b[i]
        if d < 0.0:
            d = -d
        if d > worst:
            worst = d
    return worst


def dedup_per_node(qs, ok, free) -> list[list[IKSolution]]:
    """ik's solution lists from the candidate rows (n, 8, 6), their mask
    (n, 8) and their wrist-free flags (n, 8): candidate k joins the first
    kept solution within 1e-9, else it is kept."""
    out = []
    for node_qs, node_ok, node_free in zip(qs, ok, free):
        solutions: list[IKSolution] = []
        for k in np.flatnonzero(node_ok):
            q = JointConfig(tuple(node_qs[k].tolist()))
            for j, kept in enumerate(solutions):
                if max_distance(kept.config.q, q.q) < 1e-9:
                    if node_free[k]:
                        solutions[j] = replace(kept, free_parameter=True)
                    break
            else:
                solutions.append(IKSolution(q, *_BRANCHES[k], bool(node_free[k])))
        out.append(solutions)
    return out


def ik_per_node(targets: np.ndarray, dh: DHParams, tcp_offset) -> list[list[IKSolution]]:
    """ik's solution list of each TCP target of the (n, 3|4, 4) array, all
    solved and forward-checked in one call and de-duplicated node by
    node, each candidate flagged wrist-free by the DH-product oracle
    (candidate_angles), not by the kernel."""
    t06 = targets @ np.linalg.inv(tcp_offset.to_matrix())
    square = np.zeros((len(t06), 4, 4))
    square[:, :3], square[:, 3, 3] = t06[:, :3], 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        cands = _branch_columns(t06, dh)
        _, _, free = candidate_angles(square, dh)
    return dedup_per_node(*_checked_rows(cands, np.arange(len(t06)), t06, dh), free)


def select_branch_per_node(solutions: list[IKSolution], prev: JointConfig,
                           joint_limit: float = 2.0 * math.pi) -> JointConfig:
    """select_branch, one solution and one joint at a time."""
    if not solutions:
        raise UnreachableError("no inverse kinematics solution")
    best = None
    for sol in sorted(solutions, key=tag):
        unwrapped = []
        for qi, pi in zip(sol.config.q, prev.q):
            cand = qi + 2.0 * math.pi * round((pi - qi) / (2.0 * math.pi))
            if cand > joint_limit:
                cand -= 2.0 * math.pi
            elif cand < -joint_limit:
                cand += 2.0 * math.pi
            unwrapped.append(cand)
        cfg = JointConfig(tuple(unwrapped))
        dist = max_distance(cfg.q, prev.q)
        if best is None or dist < best[0] - 1e-15:
            best = (dist, cfg)
    return best[1]


def validate_speeds_per_node(program: RobotProgram, max_joint_speed: float) -> None:
    """RobotProgram.validate_speeds, one waypoint pair at a time."""
    times, joints = program.times.tolist(), program.joints.tolist()
    for t0, t1, q0, q1 in zip(times, times[1:], joints, joints[1:]):
        dt = t1 - t0
        if dt <= 0.0:
            raise PlanningError("waypoint times must be strictly increasing", t1)
        rate = max_distance(q0, q1) / dt
        if rate > max_joint_speed + 1e-9:
            raise PlanningError(
                f"joint speed {rate:.3f} rad/s exceeds limit {max_joint_speed}",
                t1, kind="limit")


def plan_per_node(path, cfg) -> RobotProgram:
    """plan_trajectory, solving and selecting one node at a time."""
    if not len(path):
        return RobotProgram(np.zeros(0), np.zeros((0, 6)), np.zeros(0))
    dh = DHParams.from_config(cfg.kinematics)
    times, positions, node_speeds, targets = _plan_nodes(path, cfg)
    solutions = ik_per_node(targets, dh, tcp_offset_from_config(cfg.kinematics))
    waypoints: list[tuple[float, JointConfig]] = []
    speeds: list[float] = []
    prev_q = None
    for t, xyz, v, sols in zip(times.tolist(), positions.tolist(), node_speeds.tolist(),
                               solutions):
        pos = Vec3(*xyz)
        if not sols:
            raise PlanningError(
                f"unreachable waypoint at ({pos.x:.3f}, {pos.y:.3f}, {pos.z:.3f})",
                t, pos)
        q = select_branch_per_node(sols, prev_q or JointConfig(cfg_home()),
                                   cfg.kinematics.joint_limit_rad)
        if prev_q is not None:
            step = max_distance(q.q, prev_q.q)
            if step > MAX_JOINT_STEP_RAD:
                raise PlanningError(
                    f"configuration jump of {step:.3f} rad at "
                    f"({pos.x:.3f}, {pos.y:.3f}, {pos.z:.3f})", t, pos, kind="jump")
        if waypoints and t <= waypoints[-1][0] + 1e-12:
            continue
        waypoints.append((t, q))
        speeds.append(v)
        prev_q = q
    program = RobotProgram(np.array([t for t, _ in waypoints]),
                           np.array([q.q for _, q in waypoints]), np.array(speeds))
    validate_speeds_per_node(program, cfg.cell.max_joint_speed_rad_s)
    return program


def manipulability_batch(qs: np.ndarray, dh: DHParams, tcp_offset) -> np.ndarray:
    """|det J| of the meters-scaled geometric Jacobian of each row of the
    (n, 6) joint array, one LU determinant of jacobian() at a time."""
    out = []
    for q in qs.tolist():
        jac = jacobian(JointConfig(tuple(q)), dh, tcp_offset)
        jac[:3, :] /= 1000.0
        out.append(abs(np.linalg.det(jac)))
    return np.array(out)


def detect_singularity_per_node(program: RobotProgram, cfg, eps=None):
    """detect_singularity_traversal, opening and closing each interval
    one waypoint at a time."""
    if eps is None:
        eps = cfg.kinematics.singular_eps
    singular = manipulability_batch(program.joints, DHParams.from_config(cfg.kinematics),
                                    tcp_offset_from_config(cfg.kinematics)) < eps
    intervals = []
    open_t = None
    last_t = 0.0
    for t, low in zip(program.times.tolist(), singular):
        if low:
            if open_t is None:
                open_t = t
        else:
            if open_t is not None:
                intervals.append((open_t, last_t))
                open_t = None
        last_t = t
    if open_t is not None:
        intervals.append((open_t, last_t))
    return intervals


def emit_program_per_float(program: RobotProgram) -> str:
    """emit_program's text, formatting one joint value at a time."""
    lines = ["# ramcell robot program v1"]
    for key, value in program.metadata:
        lines.append(f"# {key}={value}")
    body = []
    for i, (t, q, v) in enumerate(zip(program.times.tolist(), program.joints.tolist(),
                                      program.speeds.tolist())):
        joints = ",".join(f"{x:.6f}" for x in q)
        op = "movej" if i == 0 else "movel"
        body.append((t, 0, f"{op} q=[{joints}] v={v:.3f} t={t:.6f}"))
    for ev in program.events:
        body.append((ev.time_s, 1,
                     f"set_digital_out channel={ev.channel} state={1 if ev.on else 0} "
                     f"t={ev.time_s:.6f}"))
    body.sort(key=lambda item: (item[0], item[1], item[2]))
    lines.extend(text for _, _, text in body)
    if len(program.times):
        lines.append(f"stopj t={program.duration():.6f}")
    lines.append("# end")
    return "\n".join(lines) + "\n"


def rigid_inv(t: np.ndarray) -> np.ndarray:
    """Inverse of rigid transforms of shape (..., 4, 4), via transpose."""
    out = np.zeros_like(t)
    rt = np.swapaxes(t[..., :3, :3], -1, -2)
    out[..., :3, :3] = rt
    out[..., :3, 3:] = -rt @ t[..., :3, 3:]
    out[..., 3, 3] = 1.0
    return out



def candidate_angles(t06: np.ndarray, dh: DHParams):
    """The kernel's candidate rows from products of DH link matrices: the
    eight closed-form branches of each flange target in the (n, 4, 4)
    array t06, joints (n, 8, 6), a mask (n, 8) of branches that have a
    real solution, and a wrist-free flag (n, 8)."""
    a2, a3, d4, d6 = dh.a2, dh.a3, dh.d4, dh.d6
    dh_rows = ur_rows(dh)
    p06 = t06[:, :3, 3]
    p05 = t06 @ np.array([0.0, 0.0, -d6, 1.0])
    rho = np.hypot(p05[:, 0], p05[:, 1])
    psi = np.arctan2(p05[:, 1], p05[:, 0])
    phi = np.arccos(np.clip(d4 / rho, -1.0, 1.0))
    q1 = psi[:, None] + _SIGNS * phi[:, None] + math.pi / 2  # (n, shoulder)
    c5 = (p06[:, None, 0] * np.sin(q1) - p06[:, None, 1] * np.cos(q1) - d4) / d6
    # rho < |d4|: the wrist column passes inside the shoulder cylinder
    valid = (rho >= abs(d4))[:, None] & (np.abs(c5) <= 1.0 + 1e-12)
    c5 = np.clip(c5, -1.0, 1.0)[..., None]
    t16 = (rigid_inv(dh_links(q1, *dh_rows[0])) @ t06[:, None])[:, :, None]
    q5 = np.arccos(c5) * _SIGNS  # (n, shoulder, wrist)
    s5 = np.sin(q5)
    free = np.abs(s5) < WRIST_DEGENERACY_TOL
    # snap onto the degeneracy so joint 4 absorbs the whole wrist rotation
    # exactly; acos noise would otherwise leak an ill-conditioned q6 into
    # the arm joints
    on_degeneracy = np.where(c5 > 0.0, 0.0, math.pi * _SIGNS)
    q5 = np.where(free, on_degeneracy, q5)
    # inv(t16) rotation entries are the transpose of t16's
    q6 = np.where(free, 0.0, np.arctan2(-t16[..., 2, 1] / s5, t16[..., 2, 0] / s5))

    def elbow(q5, q6):
        """Frame 4 in frame 1, the planar position of frame 3's origin
        (joint 4's axis), and the cosine of q3 that reaches it."""
        t14 = t16 @ rigid_inv(dh_links(q5, *dh_rows[4]) @ dh_links(q6, *dh_rows[5]))
        p13_x = -d4 * t14[..., 0, 1] + t14[..., 0, 3]
        p13_y = -d4 * t14[..., 1, 1] + t14[..., 1, 3]
        return t14, p13_x, p13_y, (p13_x**2 + p13_y**2 - a2**2 - a3**2) / (2.0 * a2 * a3)

    t14, p13_x, p13_y, c3 = elbow(q5, q6)
    # At the degeneracy (q5 = 0 or pi) joints 2, 3, 4 and 6 are parallel:
    # the target fixes only q2+q3+q4 -+ q6, and q6 turns frame 4 about the
    # wrist centre on a circle of radius d5.  Where q6 = 0 leaves it out of
    # the arm's reach, q6 turns to bring it back (reaching_q6); a branch
    # that close to the degeneracy (WRIST_DEGENERACY_TOL) is put on it.
    # Only branches without a solution at q6 = 0 change.
    lost = (np.abs(s5) < WRIST_DEGENERACY_TOL) & (np.abs(c3) > 1.0 + 1e-12)
    if lost.any():
        free = free | lost
        q5 = np.where(lost, on_degeneracy, q5)
        q6 = np.where(lost, 0.0, q6)
        _, p13_x, p13_y, c3 = elbow(q5, q6)
        q6 = np.where(lost & (np.abs(c3) > 1.0 + 1e-12),
                      reaching_q6(t16, q5, p13_x, p13_y, c3, dh), q6)
        t14, p13_x, p13_y, c3 = elbow(q5, q6)
    l13_sq = p13_x**2 + p13_y**2
    valid = valid[..., None] & (np.abs(c3) <= 1.0 + 1e-12)
    q3 = np.arccos(np.clip(c3, -1.0, 1.0))[..., None] * _SIGNS  # (n, shoulder, wrist, elbow)
    s_arg = np.clip(a3 * np.sin(q3) / np.sqrt(l13_sq)[..., None], -1.0, 1.0)
    q2 = -np.arctan2(p13_y, -p13_x)[..., None] + np.arcsin(s_arg)
    # joints 2 and 3 rotate about parallel axes, so frame 3's x axis is
    # frame 1's rotated by -(q2+q3)
    c23, s23 = np.cos(q2 + q3), np.sin(q2 + q3)
    r14_00, r14_10 = t14[..., 0, 0, None], t14[..., 1, 0, None]
    q4 = np.arctan2(-s23 * r14_00 + c23 * r14_10, c23 * r14_00 + s23 * r14_10)
    qs = np.stack(np.broadcast_arrays(q1[..., None, None], q2, q3, q4,
                                      q5[..., None], q6[..., None]), axis=-1)
    return (wrap_angles(qs).reshape(-1, 8, 6),
            np.broadcast_to(valid[..., None], q2.shape).reshape(-1, 8),
            np.broadcast_to(free[..., None], q2.shape).reshape(-1, 8))


def reaching_q6(t16, q5, p13_x, p13_y, c3, dh: DHParams):
    """For wrist-degenerate branches whose elbow is out of reach at q6 = 0
    (p13, c3): the q6 nearest 0 that puts cos q3 at c3 clipped into
    [-1 + ELBOW_MARGIN, 1 - ELBOW_MARGIN], or as near to it as the circle
    allows; 0 where no q6 moves frame 4 (d5 = 0)."""
    a2, a3, d6 = dh.a2, dh.a3, dh.d6
    # the wrist centre (frame 5's origin) and the offset v to it from
    # frame 4's, of length |d5|, both in frame 1's plane; turning q6 by
    # delta turns v by -cos(q5) delta
    px = t16[..., 0, 3] - d6 * t16[..., 0, 2]
    py = t16[..., 1, 3] - d6 * t16[..., 1, 2]
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


def checked_candidates(t06: np.ndarray, dh: DHParams):
    """candidate_angles of the (n, 4, 4) flange targets with the mask
    narrowed to the branches whose forward pose matches the target, each
    valid candidate compared with its target gathered by np.repeat."""
    with np.errstate(divide="ignore", invalid="ignore"):
        qs, valid, free = candidate_angles(t06, dh)
    got = _flange(qs[valid], dh)
    want = np.repeat(t06, valid.sum(axis=1), axis=0)
    pos_err = np.linalg.norm(got[:, :, 3] - want[:, :3, 3], axis=1)
    # ||R1 - R2||_F = 2 sqrt(2) |sin(theta/2)|; asin keeps the
    # small-angle regime well conditioned where acos(trace) is not
    fro = np.linalg.norm(got[:, :, :3] - want[:, :3, :3], axis=(1, 2))
    rot_err = 2.0 * np.arcsin(np.minimum(1.0, fro / (2.0 * math.sqrt(2.0))))
    ok = valid.copy()
    ok[valid] = ~((pos_err > POSITION_TOL_MM) | (rot_err > ORIENTATION_TOL_RAD))
    return qs, ok, free

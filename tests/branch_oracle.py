"""Per-node reference implementations of the planner's branch logic.

The planner de-duplicates IK candidates, selects branches and checks
joint speeds as array operations over whole chunks of nodes, and the
singularity scan and the script writer read the program's columns.
These are the scalar loops those replaced, kept as the oracle that the
array code must match bit for bit.  The singularity scan's oracle takes
manipulability as the LU determinant of the geometric Jacobian, which
the closed form replaced.
"""

import math
from dataclasses import replace

import numpy as np

from ramcell.cell import (MAX_JOINT_STEP_RAD, PlanningError, RobotProgram,
                          _plan_nodes, cfg_home)
from ramcell.geometry import Vec3
from ramcell.kinematics import (_BRANCHES, IK_CHUNK_NODES, DHParams, IKSolution,
                                JointConfig, UnreachableError, _checked_candidates,
                                _rigid_inv, jacobian, tcp_offset_from_config)


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
    """ik_batch's solution lists from one chunk's candidates: candidate k
    joins the first kept solution within 1e-9, else it is kept."""
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
    """ik_batch's solution lists, de-duplicated node by node."""
    out = []
    for start in range(0, len(targets), IK_CHUNK_NODES):
        t06 = targets[start:start + IK_CHUNK_NODES] @ _rigid_inv(tcp_offset.to_matrix())
        out.extend(dedup_per_node(*_checked_candidates(t06, dh)))
    return out


def select_branch_per_node(solutions: list[IKSolution], prev: JointConfig,
                           joint_limit: float = 2.0 * math.pi) -> JointConfig:
    """select_branch, one solution and one joint at a time."""
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

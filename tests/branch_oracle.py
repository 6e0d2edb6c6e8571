"""Per-node reference implementations of the planner's branch logic.

The planner de-duplicates IK candidates, selects branches and checks
joint speeds as array operations over whole chunks of nodes.  These are
the scalar loops those replaced, kept as the oracle that the array code
must match bit for bit.
"""

import math
from dataclasses import replace

import numpy as np

from ramcell.cell import (MAX_JOINT_STEP_RAD, PlanningError, RobotProgram,
                          _plan_nodes, cfg_home)
from ramcell.geometry import Vec3
from ramcell.kinematics import (_BRANCHES, IK_CHUNK_NODES, DHParams, IKSolution,
                                JointConfig, UnreachableError, _checked_candidates,
                                _rigid_inv, tcp_offset_from_config)


def dedup_per_node(qs, ok, free) -> list[list[IKSolution]]:
    """ik_batch's solution lists from one chunk's candidates: candidate k
    joins the first kept solution within 1e-9, else it is kept."""
    out = []
    for node_qs, node_ok, node_free in zip(qs, ok, free):
        solutions: list[IKSolution] = []
        for k in np.flatnonzero(node_ok):
            q = JointConfig(tuple(node_qs[k].tolist()))
            for j, kept in enumerate(solutions):
                if kept.config.max_distance(q) < 1e-9:
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
        dist = cfg.max_distance(prev)
        if best is None or dist < best[0] - 1e-15:
            best = (dist, cfg)
    return best[1]


def validate_speeds_per_node(program: RobotProgram, max_joint_speed: float) -> None:
    """RobotProgram.validate_speeds, one waypoint pair at a time."""
    for (t0, q0), (t1, q1) in zip(program.waypoints, program.waypoints[1:]):
        dt = t1 - t0
        if dt <= 0.0:
            raise PlanningError("waypoint times must be strictly increasing", t1)
        rate = q0.max_distance(q1) / dt
        if rate > max_joint_speed + 1e-9:
            raise PlanningError(
                f"joint speed {rate:.3f} rad/s exceeds limit {max_joint_speed}",
                t1, kind="limit")


def plan_per_node(path, cfg) -> RobotProgram:
    """plan_trajectory, solving and selecting one node at a time."""
    if not len(path):
        return RobotProgram((), ())
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
            step = q.max_distance(prev_q)
            if step > MAX_JOINT_STEP_RAD:
                raise PlanningError(
                    f"configuration jump of {step:.3f} rad at "
                    f"({pos.x:.3f}, {pos.y:.3f}, {pos.z:.3f})", t, pos, kind="jump")
        if waypoints and t <= waypoints[-1][0] + 1e-12:
            continue
        waypoints.append((t, q))
        speeds.append(v)
        prev_q = q
    program = RobotProgram(tuple(waypoints), tuple(speeds))
    validate_speeds_per_node(program, cfg.cell.max_joint_speed_rad_s)
    return program

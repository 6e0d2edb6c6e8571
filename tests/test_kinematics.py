import math

import numpy as np
import pytest

from ramcell.config import default_config
from ramcell.geometry import Pose, Rotation, Vec3, wrap_angle
from ramcell.kinematics import (DHParams, JointConfig, UnreachableError, fk,
                                fk_batch, ik, is_singular, jacobian, manipulability,
                                manipulability_batch, select_branch)
from ramcell.cell import TOOL_DOWN

DH = DHParams.from_config(default_config().kinematics)
TCP = Pose(Vec3(0.0, 0.0, 200.0), Rotation.identity())

# zero-configuration flange pose, multiplied out by hand from the six DH
# rows before the solver was written: x = a2+a3, y = -(d4+d6), z = d1-d5
P0_POSITION = Vec3(-817.2, -232.9, 62.8)
P0_ROTATION = np.array([[1.0, 0.0, 0.0],
                        [0.0, 0.0, -1.0],
                        [0.0, 1.0, 0.0]])


def random_q(rng) -> JointConfig:
    return JointConfig(tuple(rng.uniform(-math.pi, math.pi, 6)))


def test_fk_zero_pose_regression():
    pose = fk(JointConfig.of(0, 0, 0, 0, 0, 0), DH)
    assert (pose.position - P0_POSITION).norm() < 1e-9
    assert np.allclose(pose.orientation.to_matrix(), P0_ROTATION, atol=1e-12)


def test_fk_two_pi_periodic():
    rng = np.random.RandomState(31)
    q = random_q(rng)
    base = fk(q, DH, TCP)
    for i in range(6):
        shifted = list(q.q)
        shifted[i] += 2.0 * math.pi
        p = fk(JointConfig(tuple(shifted)), DH, TCP)
        assert (p.position - base.position).norm() < 1e-9
        assert p.orientation.angle_to(base.orientation) < 1e-9


def test_fk_triangle_inequality_bound():
    rng = np.random.RandomState(32)
    bound = DH.max_reach() + 200.0
    for _ in range(100):
        p = fk(random_q(rng), DH, TCP)
        assert p.position.norm() <= bound + 1e-9


def test_ik_round_trip_contains_original_branch():
    rng = np.random.RandomState(33)
    for _ in range(200):
        q = random_q(rng)
        target = fk(q, DH, TCP)
        sols = ik(target, DH, TCP)
        assert sols, f"no solutions for {q}"
        wrapped = JointConfig(tuple(wrap_angle(v) for v in q.q))
        best = min(s.config.max_distance(wrapped) for s in sols)
        assert best < 1e-8


def test_ik_tolerances():
    rng = np.random.RandomState(34)
    for _ in range(100):
        target = fk(random_q(rng), DH, TCP)
        for sol in ik(target, DH, TCP):
            again = fk(sol.config, DH, TCP)
            assert (again.position - target.position).norm() <= 1e-6
            assert again.orientation.angle_to(target.orientation) <= 1e-8


def test_ik_unreachable_far_target():
    # max reach from the DH table is ~992 mm, so 1200 mm is out of range
    target = Pose(Vec3(1200.0, 0.0, 300.0), TOOL_DOWN)
    assert ik(target, DH) == []


def test_ik_branch_tags_unique():
    rng = np.random.RandomState(35)
    for _ in range(50):
        sols = ik(fk(random_q(rng), DH), DH)
        tags = [s.tag for s in sols]
        assert len(tags) == len(set(tags))


def _batch_fk_positions(q_grid: np.ndarray) -> np.ndarray:
    """Independent vectorized FK for the brute-force oracle."""
    n = q_grid.shape[0]
    out = np.tile(np.eye(4), (n, 1, 1))
    for i in range(6):
        ct, st = np.cos(q_grid[:, i]), np.sin(q_grid[:, i])
        ca, sa = math.cos(DH.alpha[i]), math.sin(DH.alpha[i])
        a, d = DH.a[i], DH.d[i]
        m = np.zeros((n, 4, 4))
        m[:, 0, 0] = ct
        m[:, 0, 1] = -st * ca
        m[:, 0, 2] = st * sa
        m[:, 0, 3] = a * ct
        m[:, 1, 0] = st
        m[:, 1, 1] = ct * ca
        m[:, 1, 2] = -ct * sa
        m[:, 1, 3] = a * st
        m[:, 2, 1] = sa
        m[:, 2, 2] = ca
        m[:, 2, 3] = d
        m[:, 3, 3] = 1.0
        out = out @ m
    return out


def test_ik_elbow_branch_count_against_grid_search():
    """A generic reachable pose admits elbow-up and elbow-down solutions.

    Brute force: fix q1, q5, q6 at one known solution and scan (q2, q3, q4)
    on a grid; distinct q3-sign basins that reproduce the target confirm
    the second branch really exists.
    """
    q_true = JointConfig.of(0.4, -1.3, 1.1, -0.7, -1.2, 0.8)
    target = fk(q_true, DH)
    sols = ik(target, DH)
    elbows = {s.elbow for s in sols if s.shoulder == "left"} | \
             {s.elbow for s in sols if s.shoulder == "right"}
    assert {"up", "down"} <= {s.elbow for s in sols}

    grid = np.linspace(-math.pi, math.pi, 49)
    q2g, q3g, q4g = np.meshgrid(grid, grid, grid, indexing="ij")
    flat = np.stack([
        np.full(q2g.size, q_true.q[0]),
        q2g.ravel(), q3g.ravel(), q4g.ravel(),
        np.full(q2g.size, q_true.q[4]),
        np.full(q2g.size, q_true.q[5]),
    ], axis=1)
    target_m = target.to_matrix()
    hits_pos = []
    hits_neg = []
    for chunk in np.array_split(flat, 8):
        t = _batch_fk_positions(chunk)
        pos_err = np.linalg.norm(t[:, :3, 3] - target_m[:3, 3], axis=1)
        rot_err = np.linalg.norm(t[:, :3, :3] - target_m[:3, :3], axis=(1, 2))
        close = (pos_err < 80.0) & (rot_err < 0.8)
        hits_pos.append(np.any(close & (chunk[:, 2] > 0)))
        hits_neg.append(np.any(close & (chunk[:, 2] < 0)))
    assert any(hits_pos) and any(hits_neg)
    # and the analytic solutions land in those two basins
    q3_signs = {s.elbow for s in sols}
    assert q3_signs == {"up", "down"}


def test_select_branch_prefers_previous():
    rng = np.random.RandomState(36)
    q = random_q(rng)
    sols = ik(fk(q, DH), DH)
    wrapped = JointConfig(tuple(wrap_angle(v) for v in q.q))
    chosen = select_branch(sols, wrapped)
    assert chosen.max_distance(wrapped) < 1e-8


def test_select_branch_minimizes_distance():
    q = JointConfig.of(0.4, -1.3, 1.1, -0.7, -1.2, 0.8)
    sols = ik(fk(q, DH), DH)
    assert len(sols) >= 2
    for sol in sols:
        chosen = select_branch(sols, sol.config)
        assert chosen.max_distance(sol.config) < 1e-12


def test_select_branch_unwraps_near_limits():
    q = JointConfig.of(0.4, -1.3, 1.1, -0.7, -1.2, 3.0)
    sols = ik(fk(q, DH), DH)
    prev = JointConfig.of(0.4, -1.3, 1.1, -0.7, -1.2, -3.1)
    chosen = select_branch(sols, prev)
    # the solver returns q6 = 3.0; continuity picks 3.0 - 2pi = -3.283
    assert abs(chosen.q[5] - (3.0 - 2 * math.pi)) < 1e-8


def test_select_branch_empty_raises():
    with pytest.raises(UnreachableError):
        select_branch([], JointConfig.of(0, 0, 0, 0, 0, 0))


def _fd_jacobian(q: JointConfig, h: float = 1e-6) -> np.ndarray:
    jac = np.zeros((6, 6))
    for i in range(6):
        plus = list(q.q)
        minus = list(q.q)
        plus[i] += h
        minus[i] -= h
        fp = fk(JointConfig(tuple(plus)), DH, TCP)
        fm = fk(JointConfig(tuple(minus)), DH, TCP)
        jac[:3, i] = (fp.position - fm.position).to_array() / (2 * h)
        rel = fp.orientation.to_matrix() @ fm.orientation.to_matrix().T
        angle = math.acos(max(-1.0, min(1.0, (np.trace(rel) - 1.0) / 2.0)))
        if angle < 1e-12:
            axis = np.zeros(3)
        else:
            axis = np.array([rel[2, 1] - rel[1, 2],
                             rel[0, 2] - rel[2, 0],
                             rel[1, 0] - rel[0, 1]]) / (2.0 * math.sin(angle))
        jac[3:, i] = axis * angle / (2 * h)
    return jac


def test_jacobian_matches_finite_differences():
    rng = np.random.RandomState(37)
    for _ in range(25):
        q = random_q(rng)
        j = jacobian(q, DH, TCP)
        j_fd = _fd_jacobian(q)
        assert np.max(np.abs(j - j_fd)) < 1e-5


def test_wrist_singularity_flagged():
    q = JointConfig.of(0.3, -1.2, 1.8, -0.9, 0.0, 0.7)
    assert manipulability(q, DH, TCP) < 1e-9
    assert is_singular(q, default_config().kinematics.singular_eps, DH, TCP)
    healthy = JointConfig.of(0.3, -1.2, 1.8, -0.9, -1.4, 0.7)
    assert not is_singular(healthy, default_config().kinematics.singular_eps, DH, TCP)


def test_manipulability_invariant_under_base_rotation():
    rng = np.random.RandomState(38)
    for _ in range(20):
        q = random_q(rng)
        w0 = manipulability(q, DH, TCP)
        shifted = (q.q[0] + 1.0,) + q.q[1:]
        w1 = manipulability(JointConfig(shifted), DH, TCP)
        assert abs(w0 - w1) < 1e-9


def test_batch_rows_match_single_configuration_calls():
    rng = np.random.RandomState(9)
    qs = [random_q(rng) for _ in range(40)]
    qs.append(JointConfig.of(0.3, -1.2, 1.8, -0.9, 0.0, 0.7))  # wrist singular
    frames = fk_batch(qs, DH, TCP)
    w = manipulability_batch(qs, DH, TCP)
    assert frames.shape == (41, 4, 4) and w.shape == (41,)
    for i, q in enumerate(qs):
        assert np.allclose(frames[i], fk(q, DH, TCP).to_matrix(), atol=1e-9)
        assert math.isclose(w[i], manipulability(q, DH, TCP), rel_tol=1e-9, abs_tol=1e-15)
    assert w[-1] < 1e-9 < w[:-1].min()


def test_wrist_degenerate_ik_flags_free_parameter():
    q = JointConfig.of(0.3, -1.2, 1.8, -0.9, 0.0, 0.0)
    target = fk(q, DH)
    sols = ik(target, DH)
    assert sols
    free = [s for s in sols if s.free_parameter]
    assert free
    # q4 absorbs the q4+q6 rotation: the configuration still reaches
    for s in free:
        assert (fk(s.config, DH).position - target.position).norm() < 1e-6
        assert s.config.q[5] == 0.0

import dataclasses
import math

import numpy as np
import pytest

import branch_oracle
from branch_oracle import (UnreachableError, about_z, dedup_per_node, dh_product, fk_batch,
                           ik_per_node, max_distance, select_branch, select_branch_per_node, tag,
                           tcp_offset_from_config)
from ramcell import kinematics
from ramcell.config import default_config, loads_config
from ramcell.geometry import Pose, Rotation, Vec3, wrap_angle
from ramcell.kinematics import (_BRANCHES, TAG_ORDER, DHParams, IKSolution, JointConfig,
                                _branch_columns, _checked_rows, _dedup, _flange, _forward_ok,
                                fk, ik, is_singular, jacobian, manipulability,
                                manipulability_batch, select_chain)
from ramcell.cell import TOOL_DOWN, cfg_home

DH = DHParams.from_config(default_config().kinematics)
TCP = Pose(Vec3(0.0, 0.0, 200.0), Rotation.identity())

# zero-configuration flange pose, multiplied out by hand from the six DH
# rows before the solver was written: x = a2+a3, y = -(d4+d6), z = d1-d5
P0_POSITION = Vec3(-817.2, -232.9, 62.8)
P0_ROTATION = np.array([[1.0, 0.0, 0.0],
                        [0.0, 0.0, -1.0],
                        [0.0, 1.0, 0.0]])


def max_reach(dh: DHParams) -> float:
    """An upper bound on the flange's distance from the base."""
    return sum(abs(v) for v in dataclasses.astuple(dh))


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
    bound = max_reach(DH) + 200.0
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
        best = min(max_distance(s.config.q, wrapped.q) for s in sols)
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
        tags = [tag(s) for s in sols]
        assert len(tags) == len(set(tags))


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
        t = dh_product(chunk, DH)
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
    assert max_distance(chosen.q, wrapped.q) < 1e-8


def test_select_branch_minimizes_distance():
    q = JointConfig.of(0.4, -1.3, 1.1, -0.7, -1.2, 0.8)
    sols = ik(fk(q, DH), DH)
    assert len(sols) >= 2
    for sol in sols:
        chosen = select_branch(sols, sol.config)
        assert max_distance(chosen.q, sol.config.q) < 1e-12


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


def _fd_jacobian(q: JointConfig, dh: DHParams, tcp: Pose, h: float = 1e-6) -> np.ndarray:
    jac = np.zeros((6, 6))
    for i in range(6):
        plus = list(q.q)
        minus = list(q.q)
        plus[i] += h
        minus[i] -= h
        fp = fk(JointConfig(tuple(plus)), dh, tcp)
        fm = fk(JointConfig(tuple(minus)), dh, tcp)
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
    """The closed-form Jacobian against central differences of fk: on the
    default table with its TCP, and on the seeded [kinematics] sections
    of test_closed_form_manipulability_matches_the_lu_determinant (links
    of either sign, d5 = 0, non-zero TCP offsets), each with its TCP and
    with the identity, at random and at wrist-degenerate q (q5 in {0,
    +-pi})."""
    rng = np.random.RandomState(37)
    cases = [(random_q(rng), DH, TCP) for _ in range(25)]
    rng = np.random.RandomState(44)
    tables = [_seeded_kinematics(rng, d5_mm=0.0)] + [_seeded_kinematics(rng) for _ in range(7)]
    for dh, tcp in [(DH, TCP)] + tables:
        qs = rng.uniform(-math.pi, math.pi, (8, 6))
        qs[4:, 4] = rng.choice([0.0, math.pi, -math.pi], 4)
        cases += [(JointConfig(tuple(q)), dh, offset) for q in qs.tolist()
                  for offset in (tcp, Pose.identity())]
    for q, dh, tcp in cases:
        assert np.max(np.abs(jacobian(q, dh, tcp) - _fd_jacobian(q, dh, tcp))) < 1e-5


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
    rows = np.array([q.q for q in qs])
    frames = fk_batch(rows, DH, TCP)
    w = manipulability_batch(rows, DH)
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
    # q6 = 0 reaches here, so q4 takes the whole wrist rotation
    for s in free:
        assert (fk(s.config, DH).position - target.position).norm() < 1e-6
        assert s.config.q[5] == 0.0


def test_closed_form_flange_matches_the_dh_product():
    rng = np.random.RandomState(42)
    qs = rng.uniform(-math.pi, math.pi, (3000, 6))
    qs[:1500, 4] = rng.choice([0.0, math.pi, -math.pi], 1500)  # wrist degenerate
    got = _flange(qs, DH)
    want = dh_product(qs, DH)
    assert got.shape == (len(qs), 3, 4)
    assert np.abs(got[:, :, 3] - want[:, :3, 3]).max() < 1e-9
    assert np.abs(got[:, :, :3] - want[:, :3, :3]).max() < 1e-12


def test_ik_solves_every_wrist_degenerate_target():
    """At q5 = 0 or pi joints 2, 3, 4 and 6 are parallel.  Where q6 = 0
    leaves the elbow out of reach, the solver turns q6 instead, so every
    such target of a real configuration has a solution."""
    rng = np.random.RandomState(43)
    qs = rng.uniform(-math.pi, math.pi, (600, 6))
    qs[:, 4] = rng.choice([0.0, math.pi, -math.pi], len(qs))
    # acos noise puts this one's |sin q5| at about 1.03e-7, and q6 = 0
    # leaves its elbow out of reach
    qs[0] = (-0.7530755761640058, -0.65445352471365, 0.2149772425462615,
             -1.8251734618051663, -math.pi, -1.1632306860582908)
    turned = 0
    for q in qs:
        target = fk(JointConfig(tuple(q)), DH, TCP)
        sols = ik(target, DH, TCP)
        assert sols, f"no solution for {q.tolist()}"
        for sol in sols:
            again = fk(sol.config, DH, TCP)
            assert (again.position - target.position).norm() <= 1e-6
            assert again.orientation.angle_to(target.orientation) <= 1e-8
        turned += any(s.free_parameter and s.config.q[5] != 0.0 for s in sols)
    assert turned > 50


def _solution_keys(rows):
    return [[(s.config.q, tag(s), s.free_parameter) for s in row] for row in rows]


def test_ik_rows_match_the_per_node_oracle():
    """ik of one target at a time against the solution lists of all the
    targets solved in one call and de-duplicated node by node: masked
    branches and neighbouring targets must not leak into a target."""
    rng = np.random.RandomState(10)
    targets = []
    for i in range(321):
        if i % 7 == 3:
            targets.append(Pose(Vec3(1200.0, 0.0, 300.0), TOOL_DOWN))
        elif i % 5 == 1:
            q = list(random_q(rng).q)
            q[4] = 0.0  # wrist degenerate
            targets.append(fk(JointConfig(tuple(q)), DH, TCP))
        else:
            targets.append(fk(random_q(rng), DH, TCP))
    rows = [ik(target, DH, TCP) for target in targets]
    want = ik_per_node(np.array([t.to_matrix() for t in targets]), DH, TCP)
    assert _solution_keys(rows) == _solution_keys(want)
    assert sum(not row for row in rows) == len(range(3, len(targets), 7))
    assert any(s.free_parameter for row in rows for s in row)
    assert any(len(row) == 8 for row in rows)


def test_ik_dedup_matches_per_node_oracle():
    rng = np.random.RandomState(11)
    targets = []
    for i in range(305):
        q = list(random_q(rng).q)
        if i % 11 == 7:
            targets.append(Pose(Vec3(1200.0, 0.0, 300.0), TOOL_DOWN).to_matrix())
            continue
        if i % 3 == 0:
            q[4] = 0.0  # wrist degenerate: the flip pair merges
        targets.append(fk(JointConfig(tuple(q)), DH, TCP).to_matrix())
    targets = np.array(targets)
    got = [ik(Pose.from_matrix(target), DH, TCP) for target in targets]
    want = ik_per_node(targets, DH, TCP)
    assert _solution_keys(got) == _solution_keys(want)
    t06 = targets @ np.linalg.inv(TCP.to_matrix())
    with np.errstate(divide="ignore", invalid="ignore"):
        cands = _branch_columns(t06, DH)
    _, ok = _checked_rows(cands, np.arange(len(t06)), t06, DH)
    assert sum(len(row) for row in got) < ok.sum()  # duplicates were dropped
    assert any(s.free_parameter for row in got for s in row)


def test_dedup_rule_on_chains_of_near_duplicates():
    """Candidate k is compared with the kept candidates only: a k within
    1e-9 of a dropped j but not of any kept one stays, and a k within 1e-9
    of two kept ones is dropped."""
    rng = np.random.RandomState(12)
    n = 400
    qs = np.repeat(rng.uniform(-3.0, 3.0, (n, 1, 6)), 8, axis=1)
    steps = rng.choice([0.0, 0.4e-9, -0.6e-9, 1e-9, 1.5e-9, 0.3], size=(n, 8))
    joint = rng.randint(0, 6, n)
    qs[np.arange(n), :, joint] += np.cumsum(steps, axis=1)
    scatter = rng.rand(n, 8) < 0.1  # some candidates step off along another joint
    qs[scatter, rng.randint(0, 6, scatter.sum())] += 0.7e-9
    ok = rng.rand(n, 8) < 0.85
    qs[~ok & (rng.rand(n, 8) < 0.5)] = np.nan  # masked branches may be NaN
    kept = _dedup(qs, ok)
    got = [[IKSolution(JointConfig(tuple(qs[i, k].tolist())), *_BRANCHES[k])
            for k in np.flatnonzero(kept[i])] for i in range(n)]
    want = dedup_per_node(qs, ok, np.zeros_like(ok))
    assert _solution_keys(got) == _solution_keys(want)
    assert (kept < ok).any()


# the chunk size the chain tests pin: their inputs are sized by it and
# checked node by node, so they cost the same at any production size
CHUNK = 512


@pytest.mark.parametrize("joint_limit", [2.0 * math.pi, 3.0, math.pi + 0.05])
def test_chain_selection_matches_per_node_oracle(joint_limit):
    _check_chain_against_oracle(joint_limit, CHUNK)


@pytest.mark.parametrize("window", [1, 3, CHUNK])
def test_chain_selection_window_matches_per_node_oracle(window):
    """select_chain runs once per IK chunk of `window` nodes, guesses over
    the whole chunk and continues from the branch of the choice before
    it; the choices must not depend on the chunk size."""
    _check_chain_against_oracle(2.0 * math.pi, window)


def _candidates(t06):
    """All eight candidate rows (n, 8, 6) of the flange targets t06 and
    the mask (n, 8) of the valid ones."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cands = _branch_columns(t06, DH)
    rows = cands.rows(np.arange(len(t06))[:, None], np.arange(8))
    return rows, np.repeat(cands.valid, 2, axis=0).T


class RowBranches:
    """A candidate source for select_chain backed by given rows (n, 8, 6)
    and valid (n, 8) instead of the closed form, laid out branch-major as
    the Branches are: valid is (4, n), one per (shoulder, wrist), so both
    elbows of a pair must agree, and the columns are every candidate's
    own joints 3, 1, 5 and 6, each (2, 2, 2, w), so an edit to any joint
    of any candidate reaches select_chain's conditions."""

    def __init__(self, rows, valid):
        assert (valid[:, ::2] == valid[:, 1::2]).all()
        self._rows, self.valid = rows, valid[:, ::2].T

    def rows(self, nodes, branches):
        return self._rows[nodes, branches]

    def columns(self, start, stop):
        rows = self._rows[start:stop].T.reshape(6, 2, 2, 2, -1)
        return ((i, rows[i]) for i in (2, 0, 4, 5))


def _check_chain_against_oracle(joint_limit, chunk_nodes):
    """Random target chains: mostly small steps, some that switch branch,
    wrist-degenerate nodes, a wrist that winds past +-joint_limit, and
    nodes that add no waypoint (their successor continues from the last
    one that did).  Each chunk of chunk_nodes nodes continues from the
    choice and the branch of the last added node before it."""
    rng = np.random.RandomState(13)
    q = np.array(cfg_home())
    chain = []
    for i in range(4 * CHUNK + 9):
        q = q + rng.normal(0.0, rng.choice([0.01, 0.01, 0.2, 1.5]), 6)
        q[5] += 0.35
        node = q.copy()
        if i % 9 == 4:
            node[4] = 0.0
        chain.append(node)
    targets = fk_batch(np.array(chain), DH, TCP)
    added = rng.rand(len(targets)) < 0.8
    added[0] = True
    start_q = list(cfg_home())
    start_q[5] = joint_limit - 0.01

    want, want_dist = [], []
    prev = JointConfig(tuple(start_q))
    for sols, add in zip(ik_per_node(targets, DH, TCP), added):
        choice = select_branch_per_node(sols, prev, joint_limit)
        want.append(choice.q)
        want_dist.append(max_distance(choice.q, prev.q))
        if add:
            prev = choice

    got, got_dist = [], []
    prev, prev_branch = np.array(start_q), None
    flange = targets @ np.linalg.inv(TCP.to_matrix())
    for start in range(0, len(targets), chunk_nodes):
        chunk = slice(start, start + chunk_nodes)
        t06, chunk_added = flange[chunk], added[chunk]
        with np.errstate(divide="ignore", invalid="ignore"):
            cands = _branch_columns(t06, DH)
        choice, dist, branch = select_chain(cands, t06, DH, prev, prev_branch, joint_limit,
                                            chunk_added)
        assert len(choice) == len(t06)  # every node has a kept candidate
        # each choice is its branch's row moved by whole turns
        on_branch = cands.rows(np.arange(len(t06)), branch)
        assert (np.abs(np.vectorize(wrap_angle)(choice - on_branch)) < 1e-9).all()
        got.extend(tuple(row) for row in choice.tolist())
        got_dist.extend(dist.tolist())
        if chunk_added.any():
            last = np.flatnonzero(chunk_added)[-1]
            prev, prev_branch = choice[last], branch[last]
    assert got == want
    assert got_dist == want_dist
    assert max(abs(v) for row in want for v in row) > math.pi  # unwrapping ran


# a configuration on candidate 2, branch (left, up, flip); candidate 3,
# (left, down, flip), comes first in tag order
NEAR_HOME = np.array(cfg_home()) + [0.3, 0.2, -0.4, 0.1, 0.5, 0.2]


def _chain_case(steps):
    """Flange targets of the joint path NEAR_HOME + cumsum(steps) and their
    candidates; every node on candidate 2."""
    path = NEAR_HOME + np.cumsum(steps, axis=0)
    t06 = fk_batch(path, DH)
    rows, valid = _candidates(t06)
    assert (np.abs(np.vectorize(wrap_angle)(rows[:, 2] - path)) < 1e-9).all()
    return path, rows, valid, t06


def _select_spying(rows, valid, t06, prev, joint_limit, added, monkeypatch):
    """select_chain's choices and distances on the given rows, and the
    candidate rows (in tag order) of every node that took the full path
    to nearest_branch."""
    full = []
    real = kinematics.nearest_branch

    def spy(cands, *args):
        full.extend(cands)
        return real(cands, *args)

    with monkeypatch.context() as m:
        m.setattr(kinematics, "nearest_branch", spy)
        choice, dist, _ = select_chain(RowBranches(rows, valid), t06, DH, prev, None,
                                       joint_limit, added)
    return choice, dist, full


def _took_full_path(full, node_rows):
    return any(np.array_equal(r, node_rows[TAG_ORDER], equal_nan=True) for r in full)


def _per_node_chain(rows, valid, t06, prev, joint_limit, added):
    """The chain node by node: each node's solutions from dedup_per_node of
    the forward-checked rows, its choice from select_branch_per_node."""
    solutions = dedup_per_node(rows, valid & _forward_ok(rows, t06[:, None], DH),
                               np.zeros_like(valid))
    want, want_dist = [], []
    prev = JointConfig(tuple(prev))
    for sols, add in zip(solutions, added):
        choice = select_branch_per_node(sols, prev, joint_limit)
        want.append(list(choice.q))
        want_dist.append(max_distance(choice.q, prev.q))
        if add:
            prev = choice
    return want, want_dist


def _check_full_path_case(rows, valid, t06, nodes, monkeypatch, joint_limit=2.0 * math.pi):
    """select_chain from NEAR_HOME, every node adding a waypoint, sends each
    of `nodes` down the full path and matches the per-node oracle bit for
    bit."""
    added = np.ones(len(rows), dtype=bool)
    choice, dist, full = _select_spying(rows, valid, t06, NEAR_HOME, joint_limit, added,
                                        monkeypatch)
    for i in nodes:
        assert _took_full_path(full, rows[i]), i
    want, want_dist = _per_node_chain(rows, valid, t06, NEAR_HOME, joint_limit, added)
    assert choice.tolist() == want
    assert dist.tolist() == want_dist
    return choice


# each node steps joint 1 furthest, so a node's distance is its joint-1 gap
STEPS = np.tile([0.02, 0.005, -0.004, 0.003, 0.002, 0.004], (30, 1))


def test_chain_takes_the_full_path_for_a_rival_within_the_margin(monkeypatch):
    """A kept rival ahead of b in tag order: b's row turned a whole turn on
    joint 2 and moved 0 to 5e-13 further from prev on joint 1.  Its gap
    on joints 1, 3 and 5 is within 1e-12 of b's distance, and nearest_branch
    keeps it unless b is closer by more than 1e-15."""
    path, rows, valid, t06 = _chain_case(STEPS)
    _, _, full = _select_spying(rows, valid, t06, NEAR_HOME, 2.0 * math.pi,
                                np.ones(len(rows), dtype=bool), monkeypatch)
    assert len(full) == 1  # unedited, only the leading node takes the full path
    nodes = [5, 10, 15, 20, 25]
    for i, nudge in zip(nodes, [0.0, 3e-16, 6e-16, 2e-15, 5e-13]):
        rows[i, 3] = rows[i, 2] + [nudge, math.tau, 0.0, 0.0, 0.0, 0.0]
        valid[i, 3] = True
    choice = _check_full_path_case(rows, valid, t06, nodes, monkeypatch)
    # the rival wins a near tie, and b wins where it is closer by 5e-13
    assert choice[10, 0] == rows[10, 3, 0] != rows[10, 2, 0]
    assert choice[25, 0] == rows[25, 2, 0]


def test_chain_takes_the_full_path_for_a_nan_rival_ahead_of_b(monkeypatch):
    """A valid rival ahead of b in tag order whose joint 1 is NaN: its gap
    is never far, and nearest_branch, seeing it first, keeps it.  The
    per-node oracle's max_distance skips NaN, so the check here is
    nearest_branch called node by node on each node's kept candidates."""
    path, rows, valid, t06 = _chain_case(STEPS)
    rows[12, 3, 0], valid[12, 3] = math.nan, True
    added = np.ones(len(rows), dtype=bool)
    added[12] = False  # the node after it continues from node 11
    choice, dist, full = _select_spying(rows, valid, t06, NEAR_HOME, 2.0 * math.pi, added,
                                        monkeypatch)
    assert _took_full_path(full, rows[12])
    kept = _dedup(rows, valid & _forward_ok(rows, t06[:, None], DH))
    prev = NEAR_HOME
    for i in range(len(rows)):
        want, want_dist, _ = kinematics.nearest_branch(
            rows[i:i + 1, TAG_ORDER], kept[i:i + 1, TAG_ORDER], prev[None], 2.0 * math.pi)
        assert np.array_equal(choice[i], want[0], equal_nan=True), i
        assert np.array_equal(dist[i], want_dist[0], equal_nan=True), i
        if added[i]:
            prev = choice[i]
    assert np.isnan(choice[12, 0]) and np.isnan(dist[12])


def test_chain_takes_the_full_path_for_the_flip_pair_at_the_wrist_degeneracy(monkeypatch):
    """At q5 = 0 both wrist branches of a shoulder and elbow meet: b, the
    flip branch, lies within 1e-9 of the earlier noflip candidate, and
    _dedup drops it.  At node 20 the noflip candidate is put 5e-10 from b
    on joint 1, further from prev: its gap there is far, so only the 1e-9
    test of condition 1 keeps b off the fast path."""
    steps = STEPS.copy()
    steps[0, 4] = 1.07 - 0.12  # q5 from -0.12 rises 0.01 a node to 0 at node 12
    steps[1:, 4] = 0.01
    steps[13:, 4] = -0.01
    path = NEAR_HOME + np.cumsum(steps, axis=0)
    path[12, 4] = 0.0
    t06 = fk_batch(path, DH)
    rows, valid = _candidates(t06)
    assert valid[12, [0, 2]].all()
    assert (np.abs(rows[12, 2] - rows[12, 0]) < 1e-9).all()
    rows[20, 0] = rows[20, 2] + [5e-10, 0.0, 0.0, 0.0, 0.0, 0.0]
    # validity is per (shoulder, wrist); candidate 1's row fails the
    # forward check, so it is never kept
    valid[20, :2] = True
    choice = _check_full_path_case(rows, valid, t06, [12, 20], monkeypatch)
    assert choice[20, 0] == rows[20, 0, 0]


def test_chain_takes_the_full_path_where_b_fails_the_forward_check(monkeypatch):
    path, rows, valid, t06 = _chain_case(STEPS)
    rows[9, 2, 0] += 1e-6  # about 4e-4 mm off its target
    assert not _forward_ok(rows[9, 2], t06[9], DH)
    choice = _check_full_path_case(rows, valid, t06, [9], monkeypatch)
    assert np.abs(choice[9] - rows[9, 2]).max() > 0.1  # another branch was chosen


def test_chain_takes_the_full_path_where_the_wrist_folds_past_the_limit(monkeypatch):
    """The wrist turns 0.3 rad a node, so b's joint 6 passes +joint_limit
    mid-chunk and is folded a whole turn back."""
    steps = STEPS.copy()
    steps[:, 5] = 0.3
    path, rows, valid, t06 = _chain_case(steps)
    fold = int(np.argmax(path[:, 5] > 3.0))
    assert 0 < fold < len(path) - 1
    _check_full_path_case(rows, valid, t06, [fold], monkeypatch, joint_limit=3.0)


def test_select_branch_tie_rule_matches_per_node_oracle():
    """Exact distance ties, and near ties around the 1e-15 margin, on
    candidates that unwrap across +-joint_limit."""
    rng = np.random.RandomState(14)
    near_ties = 0
    for trial in range(400):
        joint_limit = (2.0 * math.pi, 3.0)[trial % 2]
        prev = rng.uniform(-joint_limit, joint_limit, 6)
        m = rng.randint(1, 9)
        tags = rng.permutation(8)[:m]
        rows = prev + rng.uniform(-0.3, 0.3, (m, 6))
        # the same dominant joint offset, nudged by a few 1e-16 or not at all
        rows[:, 0] = prev[0] + 0.5 + rng.choice([0.0, 0.0, 3e-16, 6e-16, 1e-15, 2e-15], m)
        rows += 2.0 * math.pi * rng.randint(-2, 3, (m, 6))  # raw IK angles wrap
        sols = [IKSolution(JointConfig(tuple(r)), *_BRANCHES[k]) for r, k in zip(rows.tolist(), tags)]
        prev_q = JointConfig(tuple(prev.tolist()))
        want = select_branch_per_node(sols, prev_q, joint_limit)
        assert select_branch(sols, prev_q, joint_limit) == want
        dists = sorted(max_distance(r, prev_q.q) for r in
                       (select_branch_per_node([s], prev_q, joint_limit).q for s in sols))
        near_ties += any(b - a <= 2e-15 for a, b in zip(dists, dists[1:]))
    assert near_ties > 100


def _seeded_kinematics(rng, **fixed):
    """DH table and TCP offset of a seeded [kinematics] section, so that
    they pass the config's load rules: a2 < 0, the other links of either
    sign, a non-zero TCP offset; `fixed` overrides keys."""
    a2, a3, d1, d4, d5, d6 = rng.choice([-1.0, 1.0], 6) * rng.uniform(20.0, 600.0, 6)
    a2 = -abs(a2)
    tcp = rng.choice([-1.0, 1.0]) * rng.uniform(10.0, 300.0)
    values = {**dict(a2_mm=a2, a3_mm=a3, d1_mm=d1, d4_mm=d4, d5_mm=d5, d6_mm=d6,
                     tcp_offset_z_mm=tcp), **fixed}
    text = "".join(f"{key} = {float(value)!r}\n" for key, value in values.items())
    cfg = loads_config("[kinematics]\n" + text)
    return DHParams.from_config(cfg.kinematics), tcp_offset_from_config(cfg.kinematics)


def _singular_thirds(rng, dh, n):
    """n seeded configurations: a third with q3 in {0, +-pi} (elbow), a
    third with q5 in {0, +-pi} (wrist) and a third with the wrist centre
    on the base axis, a2 cos q2 + a3 cos(q2+q3) + d5 sin(q2+q3+q4) = 0
    (shoulder), solved for q2."""
    a2, a3, d5 = dh.a2, dh.a3, dh.d5
    qs = rng.uniform(-math.pi, math.pi, (n, 6))
    third = n // 3
    qs[:third, 2] = rng.choice([0.0, math.pi, -math.pi], third)
    qs[third:2 * third, 4] = rng.choice([0.0, math.pi, -math.pi], third)
    rest = qs[2 * third:]
    q3, q234 = rest[:, 2], rest[:, 3]
    # a2 c2 + a3 c23 = r cos(q2 + phi)
    r = np.hypot(a2 + a3 * np.cos(q3), a3 * np.sin(q3))
    phi = np.arctan2(a3 * np.sin(q3), a2 + a3 * np.cos(q3))
    reach = np.abs(d5 * np.sin(q234)) <= r
    q234 = np.where(reach, q234, 0.0)
    rest[:, 1] = np.arccos(-d5 * np.sin(q234) / r) - phi
    rest[:, 3] = q234 - rest[:, 1] - q3
    return qs


def test_closed_form_manipulability_matches_the_lu_determinant():
    rng = np.random.RandomState(44)
    tables = [_seeded_kinematics(rng, d5_mm=0.0)] + [_seeded_kinematics(rng) for _ in range(7)]
    for dh, tcp in tables:
        assert tcp.position.z != 0.0
        qs = _singular_thirds(rng, dh, 600)
        got = manipulability_batch(qs, dh)
        want = branch_oracle.manipulability_batch(qs, dh, tcp)
        err = np.abs(got - want)
        assert (err <= np.maximum(1e-9 * np.maximum(got, want), 1e-15)).all(), err.max()
        # every third is singular, and the TCP offset changes nothing
        assert got.max() < 1e-9
        for q, w in zip(qs.tolist(), got.tolist()):
            q = JointConfig(tuple(q))
            assert manipulability(q, dh, tcp) == manipulability(q, dh) == w
        healthy = rng.uniform(-math.pi, math.pi, (200, 6))
        got = manipulability_batch(healthy, dh)
        want = branch_oracle.manipulability_batch(healthy, dh, tcp)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-15)
        assert np.median(got) > 1e-6


def _oracle_targets(rng, dh, tcp, n):
    """n seeded TCP targets, (n, 4, 4), in four equal runs: regular
    configurations; wrist-degenerate ones (q5 in {0, +-pi}) at q6 = 0,
    where q6 = 0 reaches; wrist-degenerate ones at any q6, some of whose
    branches are out of reach at q6 = 0 and turn q6 to reach; and
    unreachable poses, alternately beyond the arm's reach and with the
    wrist centre inside the shoulder cylinder (|xy| < |d4|)."""
    quarter = n // 4
    qs = rng.uniform(-math.pi, math.pi, (3 * quarter, 6))
    qs[quarter:, 4] = rng.choice([0.0, math.pi, -math.pi], 2 * quarter)
    qs[quarter:2 * quarter, 5] = 0.0
    targets = fk_batch(qs, dh, tcp)
    far = fk_batch(rng.uniform(-math.pi, math.pi, (n - 3 * quarter, 6)), dh, tcp)
    # the wrist centre lies d6 + tcp_z behind the TCP along the tool z axis
    back = dh.d6 + tcp.position.z
    inside = rng.uniform(-0.7, 0.7, (len(far), 2)) * abs(dh.d4) / math.sqrt(2.0)
    far[:, :2, 3] = inside + back * far[:, :2, 2]
    far[::2, :3, 3] = rng.normal(0.0, 1.0, (len(far[::2]), 3))
    reach = max_reach(dh) + abs(tcp.position.z)
    far[::2, :3, 3] *= 1.5 * reach / np.linalg.norm(far[::2, :3, 3], axis=1)[:, None]
    return np.concatenate([targets, far])


def test_column_kernel_matches_the_dh_product_oracle():
    """The column kernel against the DH-product kernel it replaced, on
    seeded [kinematics] sections (a2 < 0, other links of either sign,
    d5 = 0, non-zero TCP offsets): the same valid and forward-checked
    masks, joints within 1e-9 rad by wrapped difference, and a q5 of
    exactly 0 or pi on just the rows the oracle flags wrist-free, which
    is how ik reads the flag.  Every branch counts, those on an exact
    wrist degeneracy whose acos noise leaves |sin q5| near 1e-7
    included: both kernels put them on the degeneracy
    (WRIST_DEGENERACY_TOL)."""
    rng = np.random.RandomState(45)
    tables = [_seeded_kinematics(rng, d5_mm=0.0)] + [_seeded_kinematics(rng) for _ in range(7)]
    worst = 0.0
    reached = turned = free_at_0 = 0
    for dh, tcp in tables:
        assert tcp.position.z != 0.0
        t06 = _oracle_targets(rng, dh, tcp, 800) @ np.linalg.inv(tcp.to_matrix())
        with np.errstate(divide="ignore", invalid="ignore"):
            cands = _branch_columns(t06, dh)
            want_qs, want_valid, want_free = branch_oracle.candidate_angles(t06, dh)
        qs, ok = _checked_rows(cands, np.arange(len(t06)), t06, dh)
        valid, free = np.repeat(cands.valid, 2, axis=0).T, want_free
        _, want_ok, _ = branch_oracle.checked_candidates(t06, dh)
        on_degeneracy = (qs[..., 4] == 0.0) | (qs[..., 4] == math.pi)
        for got, want in ((valid, want_valid), (on_degeneracy, want_free), (ok, want_ok)):
            assert (got == want).all()
        gap = np.abs(np.vectorize(wrap_angle)(qs[valid] - want_qs[valid]))
        worst = max(worst, float(gap.max()))
        # every kind of target occurs: reached, unreached (the last
        # quarter), q6 = 0 on the degeneracy, and q6 turned to reach
        assert not valid[600:].any()
        reached += ok[:600].any(axis=1).sum()
        free_at_0 += (ok & free & (qs[..., 5] == 0.0)).sum()
        turned += (ok & free & (qs[..., 5] != 0.0)).sum()
    print(f"worst joint difference from the DH-product oracle: {worst:.3g} rad")
    assert worst < 1e-9, worst
    assert reached > 2000 and free_at_0 > 100 and turned > 50


def test_ik_free_parameter_is_the_dh_product_oracles_flag():
    """ik reads a solution's wrist-free flag off its q5; on the seeded
    [kinematics] sections every solution's flag is the DH-product
    oracle's flag of its candidate, on targets with regular,
    wrist-degenerate and q6-turned branches."""
    rng = np.random.RandomState(49)
    tables = [_seeded_kinematics(rng, d5_mm=0.0)] + [_seeded_kinematics(rng) for _ in range(7)]
    flags = []
    for dh, tcp in tables:
        targets = _oracle_targets(rng, dh, tcp, 160)[:120]  # the reachable three quarters
        with np.errstate(divide="ignore", invalid="ignore"):
            want = branch_oracle.candidate_angles(targets @ np.linalg.inv(tcp.to_matrix()),
                                                  dh)[2]
        for target, want_free in zip(targets, want):
            for sol in ik(Pose.from_matrix(target), dh, tcp):
                assert sol.free_parameter == want_free[_BRANCHES.index(tag(sol))]
                flags.append(sol.free_parameter)
    assert sum(flags) > 100 and len(flags) - sum(flags) > 1000


def test_arm_joints_of_any_pairs_match_the_eight_branch_rows():
    """Branches.rows for any list of (node, branch) pairs, in any order
    and with repeats, a single branch for every node, any nodes' eight
    and one node's eight, is bit for bit the rows of all eight branches
    of every node, on the seeded [kinematics] sections with regular,
    wrist-degenerate, q6-turned and unreachable targets, and targets
    holding NaN, whose rows are NaN."""
    rng = np.random.RandomState(47)
    tables = [_seeded_kinematics(rng, d5_mm=0.0)] + [_seeded_kinematics(rng) for _ in range(7)]
    nan_rows = 0
    for dh, tcp in tables:
        t06 = _oracle_targets(rng, dh, tcp, 400) @ np.linalg.inv(tcp.to_matrix())
        t06[-8:, rng.randint(0, 3, 8), rng.randint(0, 4, 8)] = math.nan
        with np.errstate(divide="ignore", invalid="ignore"):
            cands = _branch_columns(t06, dh)
        n = len(t06)
        want = cands.rows(np.arange(n)[:, None], np.arange(8))
        valid = np.repeat(cands.valid, 2, axis=0).T
        with np.errstate(divide="ignore", invalid="ignore"):
            free = branch_oracle.candidate_angles(t06, dh)[2]
        # the columns hold the joints every branch shares, and no arm joint:
        # branch-major, 2, 4, 4, 8 and 16 values a node and valid per
        # (shoulder, wrist), the node axis last: 276 bytes a node
        assert cands.q1.shape == (2, n) and cands.q5.shape == cands.q6.shape == (4, n)
        assert cands.q3.shape == (8, n) and cands.arm.shape == (4, 4, n)
        assert cands.valid.shape == (4, n)
        assert sum(getattr(cands, name).nbytes for name in
                   ("q1", "q5", "q6", "q3", "arm", "valid")) == 276 * n
        nodes = rng.randint(0, len(t06), 3000)
        branches = rng.randint(0, 8, 3000)
        b = rng.randint(8)
        for got, rows in ((cands.rows(nodes, branches), want[nodes, branches]),
                          (cands.rows(np.arange(len(t06)), b), want[:, b]),
                          (cands.rows(nodes[:, None], np.arange(8)), want[nodes]),
                          (cands.rows(7, np.arange(8)), want[7])):
            assert (got.view(np.int64) == rows.view(np.int64)).all()
        nan_rows += np.isnan(want[nodes, branches]).any(axis=1).sum()
        # every kind of target occurs (see _oracle_targets)
        assert (valid & free).any() and not valid[300:].any()
    assert nan_rows > 100


def _column_bytes(cands):
    return [getattr(cands, name).tobytes() for name in
            ("q1", "q5", "q6", "q3", "arm", "valid")]


def test_branch_columns_of_strided_and_reversed_targets_match_the_contiguous_call():
    """_branch_columns reads each target entry as a strided column, and
    numpy's float64 arctan2 rounds the last bit of strided operands
    differently from contiguous ones; the kernel gives it only fresh
    contiguous columns.  So the columns of a Fortran-ordered copy (whose
    entries are contiguous), a strided view, the top three rows and a
    reversed view of the targets are bit for bit those of the contiguous
    call, the reversed one against a contiguous copy of it."""
    rng = np.random.RandomState(48)
    for dh, tcp in [_seeded_kinematics(rng) for _ in range(4)]:
        t06 = _oracle_targets(rng, dh, tcp, 400) @ np.linalg.inv(tcp.to_matrix())
        with np.errstate(divide="ignore", invalid="ignore"):
            want = _column_bytes(kinematics._branch_columns(t06, dh))
            for view in (np.asfortranarray(t06), t06.repeat(3, axis=0)[1::3], t06[:, :3]):
                assert _column_bytes(kinematics._branch_columns(view, dh)) == want
            backwards = kinematics._branch_columns(t06[::-1], dh)
            forwards = kinematics._branch_columns(np.ascontiguousarray(t06[::-1]), dh)
        assert _column_bytes(backwards) == _column_bytes(forwards)


def test_forward_check_keeps_half_a_tolerance_and_drops_twice_one():
    """A candidate whose flange pose is off its target by half a
    tolerance, in position or in orientation, passes the forward check;
    one off by twice a tolerance fails it."""
    rng = np.random.RandomState(46)
    t06 = fk_batch(rng.uniform(-math.pi, math.pi, (200, 6)), DH)
    rows, valid = _candidates(t06)
    ok = valid & _forward_ok(rows, t06[:, None], DH)
    assert ok.any(axis=1).all()
    for scale, passes in ((0.5, True), (2.0, False)):
        shifted = t06.copy()
        shifted[:, 0, 3] += scale * kinematics.POSITION_TOL_MM
        turned = t06.copy()
        turned[:, :3, :3] = t06[:, :3, :3] @ about_z(
            scale * kinematics.ORIENTATION_TOL_RAD).matrix
        for target in (shifted, turned):
            assert ((valid & _forward_ok(rows, target[:, None], DH)) == (ok & passes)).all()


def _just_past_the_elbows_reach(rng, count):
    """Flange targets (count, 4, 4), each with one (shoulder, wrist) pair
    whose cos q3 lies just past the elbow's reach, 1 + 1e-11 to 1 + 1e-9,
    that pair's index (shoulder * 2 + wrist) and its cos q3: the flange
    of an elbow held straight (q3 = 0), moved out from the shoulder by
    the step that a linear fit of the kernel's cos q3 asks for."""
    qs = rng.uniform(-math.pi, math.pi, (count, 6))
    qs[:, 2] = 0.0
    qs[:, 4] = rng.choice([-1.0, 1.0], count) * rng.uniform(0.3, 2.8, count)  # off the wrist degeneracy
    t06 = fk_batch(qs, DH)
    shoulder = np.array([0.0, 0.0, DH.d1])
    nodes = np.arange(count)

    def moved(scale):
        out = t06.copy()
        out[:, :3, 3] = shoulder + (1.0 + scale[:, None]) * (t06[:, :3, 3] - shoulder)
        with np.errstate(divide="ignore", invalid="ignore"):
            _, q5, q6, _, _, t16 = kinematics._wrist_columns(out, DH)
            c3 = kinematics._elbow(t16, q5, q6, DH)[1].reshape(4, count)
        return out, c3

    _, c3 = moved(np.zeros(count))
    pair = np.argmin(np.abs(c3 - 1.0), axis=0)
    step = np.full(count, 1e-7)
    slope = (moved(step)[1][pair, nodes] - c3[pair, nodes]) / step
    want = 1.0 + 10.0 ** rng.uniform(-11.0, -9.0, count)
    t06, c3 = moved((want - c3[pair, nodes]) / slope)
    return t06, pair, c3[pair, nodes]


def test_targets_just_past_the_elbows_reach_keep_no_candidate_of_that_pair():
    """A pair with |c3| just past 1 + 1e-12 is invalid, yet its clipped
    rows (q3 = 0) miss the target by about a2 a3 / |p13| x (|c3| - 1),
    well inside POSITION_TOL_MM, so they pass the forward check: only the
    valid mask leaves them out.  The checked mask is the DH-product
    oracle's, and ik keeps no solution of the pair."""
    rng = np.random.RandomState(54)
    t06, pair, c3 = _just_past_the_elbows_reach(rng, 60)
    assert np.all((c3 > 1.0 + 1e-12) & (c3 < 1.0 + 5e-9))
    nodes = np.arange(len(t06))
    with np.errstate(divide="ignore", invalid="ignore"):
        cands = _branch_columns(t06, DH)
    rows = cands.rows(nodes[:, None], np.arange(8))
    past = np.zeros((len(t06), 8), dtype=bool)
    past[nodes, 2 * pair] = past[nodes, 2 * pair + 1] = True
    assert not cands.valid[pair, nodes].any()
    assert _forward_ok(rows, t06[:, None], DH)[past].all()
    _, ok = _checked_rows(cands, nodes, t06, DH)
    assert not ok[past].any()
    assert (ok == branch_oracle.checked_candidates(t06, DH)[1]).all()
    solutions = 0
    for target, k in zip(t06, pair):
        tags = {tag(sol) for sol in ik(Pose.from_matrix(target), DH)}
        assert not tags & {_BRANCHES[2 * k], _BRANCHES[2 * k + 1]}
        solutions += len(tags)
    assert solutions > 60  # the other pairs still reach most targets


def test_chain_settles_past_an_invalid_pair_that_duplicates_b(monkeypatch):
    """An invalid pair whose rows pass the forward check, as the clipped
    rows of a pair just past the elbow's reach do, is no rival of b: here
    pair 0's rows duplicate b's, candidate 2's, ahead of it at three
    nodes, yet those nodes settle on b without the full path, and the
    chain is the per-node oracle's."""
    path, rows, valid, t06 = _chain_case(STEPS)
    for i in (6, 13, 21):
        rows[i, :2] = rows[i, 2]
        valid[i, :2] = False
    added = np.ones(len(rows), dtype=bool)
    choice, dist, full = _select_spying(rows, valid, t06, NEAR_HOME, 2.0 * math.pi, added,
                                        monkeypatch)
    assert len(full) == 1  # only the leading node takes the full path
    want, want_dist = _per_node_chain(rows, valid, t06, NEAR_HOME, 2.0 * math.pi, added)
    assert choice.tolist() == want
    assert dist.tolist() == want_dist

import math

import numpy as np
import pytest

from branch_oracle import about_z, tcp_offset_from_config
from ramcell.cell import TOOL_DOWN
from ramcell.config import default_config
from ramcell.geometry import Rotation, Vec3, wrap_angle, wrap_angles


def random_rotation(rng) -> Rotation:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return Rotation.from_axis_angle(Vec3(*v), rng.uniform(-math.pi, math.pi))


def test_two_quarter_turns_make_half_turn():
    quarter = about_z(math.pi / 2)
    assert (quarter * quarter).angle_to(about_z(math.pi)) < 1e-12


def test_rotation_matrix_round_trip():
    rng = np.random.RandomState(6)
    for _ in range(100):
        r = random_rotation(rng)
        again = Rotation.from_matrix(r.to_matrix())
        assert r.angle_to(again) < 1e-9


@pytest.mark.parametrize("matrix", [2.0 * np.eye(3), 0.5 * np.eye(3), np.diag([1.0, 1.0, -1.0]),
                                    np.full((3, 3), np.nan), 1e200 * np.eye(3), np.eye(4)],
                         ids=["scaled", "shrunk", "reflection", "nan", "huge", "4x4"])
def test_rotation_refuses_what_is_not_a_proper_rotation(matrix):
    with pytest.raises(ValueError):
        Rotation(matrix)
    with pytest.raises(ValueError):
        Rotation.from_matrix(matrix)


def test_rotation_matrix_is_read_only():
    r = about_z(0.5)
    with pytest.raises(ValueError):
        r.matrix[0, 0] = 2.0
    r.to_matrix()[0, 0] = 2.0  # a copy
    assert r.matrix[0, 0] == math.cos(0.5)


@pytest.mark.parametrize("theta", [1e-9, 0.5, math.pi - 1e-9])
def test_angle_to_recovers_the_angle_about_z(theta):
    turn = about_z(theta)
    tilt = Rotation.about_x(0.3)
    for got in (Rotation.identity().angle_to(turn), turn.angle_to(Rotation.identity()),
                tilt.angle_to(tilt * turn)):
        assert math.isclose(got, theta, rel_tol=1e-15)


def test_tool_down_and_default_tcp_offset_keep_their_bits():
    # TOOL_DOWN, the planner's rotation input, and the default TCP offset
    # as the oracles state it, pinned bit for bit: the script, the
    # collision findings and the benchmark digests depend on the first
    s = 1.2246467991473532e-16  # sin(pi)
    down = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, -s], [0.0, s, -1.0]])
    assert np.array_equal(TOOL_DOWN.to_matrix().view(np.int64), down.view(np.int64))
    tcp = np.eye(4)
    tcp[2, 3] = 200.0
    got = tcp_offset_from_config(default_config().kinematics).to_matrix()
    assert np.array_equal(got.view(np.int64), tcp.view(np.int64))


def test_wrap_angle_range():
    for a in np.linspace(-20, 20, 401):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi
        assert abs(math.remainder(w - a, 2 * math.pi)) < 1e-9


def test_wrap_angles_matches_wrap_angle_bit_for_bit():
    rng = np.random.RandomState(7)
    a = np.concatenate([rng.uniform(-20, 20, 500), [0.0, -0.0, math.pi, -math.pi,
                                                    3 * math.pi, -3 * math.pi, 1e-300]])
    want = np.array([wrap_angle(float(v)) for v in a])
    assert np.array_equal(wrap_angles(a).view(np.int64), want.view(np.int64))

import math

import numpy as np
import pytest

from ramcell.geometry import Rotation, Vec3, wrap_angle, wrap_angles


def random_rotation(rng) -> Rotation:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return Rotation.from_axis_angle(Vec3(*v), rng.uniform(-math.pi, math.pi))


def test_two_quarter_turns_make_half_turn():
    quarter = Rotation.about_z(math.pi / 2)
    assert (quarter * quarter).angle_to(Rotation.about_z(math.pi)) < 1e-12


def test_quaternion_canonical_w_nonnegative():
    rng = np.random.RandomState(5)
    for _ in range(100):
        r = random_rotation(rng)
        assert r.w >= 0.0
        flipped = Rotation(-r.w, -r.x, -r.y, -r.z)
        assert flipped == r


def test_rotation_matrix_round_trip():
    rng = np.random.RandomState(6)
    for _ in range(100):
        r = random_rotation(rng)
        again = Rotation.from_matrix(r.to_matrix())
        assert r.angle_to(again) < 1e-9


def test_rotation_norm_enforced():
    with pytest.raises(ValueError):
        Rotation(2.0, 0.0, 0.0, 0.0)


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

import math

import numpy as np
import pytest

from ramcell.geometry import (Pose, Rotation, Vec3, compose, transform_point,
                              wrap_angle)


def random_rotation(rng) -> Rotation:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return Rotation.from_axis_angle(Vec3(*v), rng.uniform(-math.pi, math.pi))


def random_pose(rng) -> Pose:
    return Pose(Vec3(*rng.uniform(-500, 500, 3)), random_rotation(rng))


def test_identity_compose_is_neutral():
    rng = np.random.RandomState(1)
    p = random_pose(rng)
    q = compose(Pose.identity(), p)
    assert (q.position - p.position).norm() < 1e-12
    assert q.orientation.angle_to(p.orientation) < 1e-12


def test_pose_inverse_cancels():
    rng = np.random.RandomState(2)
    p = random_pose(rng)
    ident = compose(p, p.inverse())
    assert ident.position.norm() < 1e-9
    assert ident.orientation.angle_to(Rotation.identity()) < 1e-9


def test_two_quarter_turns_make_half_turn():
    quarter = Pose(Vec3(0, 0, 0), Rotation.about_z(math.pi / 2))
    half = compose(quarter, quarter)
    assert half.orientation.angle_to(Rotation.about_z(math.pi)) < 1e-12


def test_transform_point_identity_and_translation():
    assert transform_point(Pose.identity(), Vec3(1, 2, 3)) == Vec3(1, 2, 3)
    moved = transform_point(Pose.from_xyz(10, 0, 0), Vec3(0, 0, 0))
    assert (moved - Vec3(10, 0, 0)).norm() < 1e-12


def test_transform_point_quarter_turn():
    p = Pose(Vec3(0, 0, 0), Rotation.about_z(math.pi / 2))
    got = transform_point(p, Vec3(1, 0, 0))
    assert (got - Vec3(0, 1, 0)).norm() < 1e-9


def test_compose_associative_over_random_triples():
    rng = np.random.RandomState(3)
    for _ in range(200):
        a, b, c = (random_pose(rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert (left.position - right.position).norm() < 1e-9
        assert left.orientation.angle_to(right.orientation) < 1e-9


def test_transform_is_isometry():
    rng = np.random.RandomState(4)
    for _ in range(200):
        p = random_pose(rng)
        a = Vec3(*rng.uniform(-100, 100, 3))
        b = Vec3(*rng.uniform(-100, 100, 3))
        d0 = (a - b).norm()
        d1 = (transform_point(p, a) - transform_point(p, b)).norm()
        assert abs(d0 - d1) < 1e-9


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
    with pytest.raises(ValueError):
        Vec3(float("nan"), 0.0, 0.0)


def test_wrap_angle_range():
    for a in np.linspace(-20, 20, 401):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi
        assert abs(math.remainder(w - a, 2 * math.pi)) < 1e-9

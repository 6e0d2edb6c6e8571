"""Rigid-body primitives: 3-vectors, rotations and poses.

A rotation is a read-only 3x3 matrix and a pose is a position plus a
rotation, so the one-row API converts to and from the 4x4 transforms
the batch kernels use without any other representation in between.

Units are millimeters and radians throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# how far R R^T may stray from I in a rotation matrix
ROTATION_TOL = 1e-6


@dataclass(frozen=True)
class Vec3:
    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def normalized(self) -> "Vec3":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize zero vector")
        return Vec3(self.x / n, self.y / n, self.z / n)

    def to_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(a) -> "Vec3":
        return Vec3(float(a[0]), float(a[1]), float(a[2]))


ZERO = Vec3(0.0, 0.0, 0.0)


@dataclass(frozen=True, eq=False)
class Rotation:
    """Proper rotation held as a read-only 3x3 matrix.

    Construction raises ValueError unless the matrix is 3x3, finite and
    orthonormal to ROTATION_TOL with determinant +1: a scale, a
    reflection or a NaN is refused.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        # entries outside [-1, 1], NaN among them, are refused before squaring
        if (m.shape != (3, 3) or not (np.abs(m) <= 1.0 + ROTATION_TOL).all()
                or np.abs(m @ m.T - np.eye(3)).max() > ROTATION_TOL or np.linalg.det(m) <= 0.0):
            raise ValueError(f"not a proper 3x3 rotation matrix: {m.tolist()}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.eye(3))

    @staticmethod
    def from_axis_angle(axis: Vec3, angle: float) -> "Rotation":
        """Rodrigues: cos(a) I + sin(a) [u]x + (1 - cos(a)) u u^T."""
        u = axis.normalized()
        c, s = math.cos(angle), math.sin(angle)
        skew = np.array([[0.0, -u.z, u.y], [u.z, 0.0, -u.x], [-u.y, u.x, 0.0]])
        uu = np.outer(u.to_array(), u.to_array())
        return Rotation(c * np.eye(3) + s * skew + (1.0 - c) * uu)

    @staticmethod
    def about_x(angle: float) -> "Rotation":
        return Rotation.from_axis_angle(Vec3(1.0, 0.0, 0.0), angle)

    def __mul__(self, other: "Rotation") -> "Rotation":
        return Rotation(self.matrix @ other.matrix)

    def to_matrix(self) -> np.ndarray:
        return self.matrix.copy()

    @staticmethod
    def from_matrix(m: np.ndarray) -> "Rotation":
        return Rotation(m)

    def angle_to(self, other: "Rotation") -> float:
        """Magnitude of the relative rotation, in radians.

        For the relative matrix R, |vee(R - R^T)| / 2 is the sine and
        (tr R - 1) / 2 the cosine of the angle; their atan2 stays well
        conditioned near 0 and near pi (Huynh, J. Math. Imaging Vis. 35,
        2009).
        """
        r = self.matrix.T @ other.matrix
        sine = 0.5 * math.hypot(r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1])
        return math.atan2(sine, 0.5 * (float(np.trace(r)) - 1.0))


@dataclass(frozen=True)
class Pose:
    position: Vec3
    orientation: Rotation

    @staticmethod
    def identity() -> "Pose":
        return Pose(ZERO, Rotation.identity())

    def to_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.orientation.matrix
        m[:3, 3] = self.position.to_array()
        return m

    @staticmethod
    def from_matrix(m: np.ndarray) -> "Pose":
        return Pose(Vec3.from_array(m[:3, 3]), Rotation.from_matrix(m[:3, :3]))


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    w = math.fmod(a + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """wrap_angle element by element, bit for bit, worked out in one buffer."""
    w = np.add(a, math.pi, out=np.empty(np.shape(a)))
    np.fmod(w, 2.0 * math.pi, out=w)
    np.add(w, 2.0 * math.pi, out=w, where=w <= 0.0)
    w -= math.pi
    return w

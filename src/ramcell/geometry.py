"""Rigid-body primitives: 3-vectors, unit-quaternion rotations, poses.

Units are millimeters and radians throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-9


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

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

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


@dataclass(frozen=True)
class Rotation:
    """Unit quaternion, canonicalized so golden-file output is stable."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        n = math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)
        if abs(n - 1.0) > 1e-6:
            raise ValueError(f"quaternion norm {n} too far from 1")
        if abs(n - 1.0) > 1e-12:
            w, x, y, z = self.w / n, self.x / n, self.y / n, self.z / n
        else:
            w, x, y, z = self.w, self.x, self.y, self.z
        # canonical double-cover representative: w > 0, ties broken on first
        # nonzero vector component
        if w < 0.0 or (w == 0.0 and (x, y, z) < (0.0, 0.0, 0.0)):
            w, x, y, z = -w, -x, -y, -z
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_axis_angle(axis: Vec3, angle: float) -> "Rotation":
        u = axis.normalized()
        h = 0.5 * angle
        s = math.sin(h)
        return Rotation(math.cos(h), u.x * s, u.y * s, u.z * s)

    @staticmethod
    def about_x(angle: float) -> "Rotation":
        return Rotation.from_axis_angle(Vec3(1.0, 0.0, 0.0), angle)

    @staticmethod
    def about_z(angle: float) -> "Rotation":
        return Rotation.from_axis_angle(Vec3(0.0, 0.0, 1.0), angle)

    def __mul__(self, other: "Rotation") -> "Rotation":
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Rotation(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + w2 * x1 + y1 * z2 - z1 * y2,
            w1 * y2 + w2 * y1 + z1 * x2 - x1 * z2,
            w1 * z2 + w2 * z1 + x1 * y2 - y1 * x2,
        )

    def inverse(self) -> "Rotation":
        return Rotation(self.w, -self.x, -self.y, -self.z)

    def rotate(self, v: Vec3) -> Vec3:
        # q v q* expanded via the double-cross identity
        qv = Vec3(self.x, self.y, self.z)
        t = 2.0 * qv.cross(v)
        return v + self.w * t + qv.cross(t)

    def to_matrix(self) -> np.ndarray:
        w, x, y, z = self.w, self.x, self.y, self.z
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
            ],
            dtype=float,
        )

    @staticmethod
    def from_matrix(m: np.ndarray) -> "Rotation":
        t = float(np.trace(m))
        if t > 0.0:
            s = math.sqrt(t + 1.0) * 2.0
            return Rotation(
                0.25 * s,
                (m[2, 1] - m[1, 2]) / s,
                (m[0, 2] - m[2, 0]) / s,
                (m[1, 0] - m[0, 1]) / s,
            )
        i = int(np.argmax([m[0, 0], m[1, 1], m[2, 2]]))
        if i == 0:
            s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
            return Rotation((m[2, 1] - m[1, 2]) / s, 0.25 * s,
                            (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s)
        if i == 1:
            s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
            return Rotation((m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s,
                            0.25 * s, (m[1, 2] + m[2, 1]) / s)
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        return Rotation((m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s,
                        (m[1, 2] + m[2, 1]) / s, 0.25 * s)

    def angle_to(self, other: "Rotation") -> float:
        """Magnitude of the relative rotation, in radians."""
        d = self.inverse() * other
        # atan2 form stays well conditioned for near-identity rotations
        return 2.0 * math.atan2(math.sqrt(d.x**2 + d.y**2 + d.z**2), abs(d.w))


@dataclass(frozen=True)
class Pose:
    position: Vec3
    orientation: Rotation

    @staticmethod
    def identity() -> "Pose":
        return Pose(ZERO, Rotation.identity())

    @staticmethod
    def from_xyz(x: float, y: float, z: float) -> "Pose":
        return Pose(Vec3(x, y, z), Rotation.identity())

    def to_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.orientation.to_matrix()
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
    """wrap_angle element by element, bit for bit."""
    w = np.fmod(a + math.pi, 2.0 * math.pi)
    return np.where(w <= 0.0, w + 2.0 * math.pi, w) - math.pi

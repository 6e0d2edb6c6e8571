"""Built-in specimen toolpaths.

Three parameterized families, ids like "rectangle-90x60", "wall-50x10"
and "square-30x30x8.5".  Rectangles and squares are closed centerline
loops (the path is what gets sketched); walls are single strokes with
their endpoints inset half a nozzle width so the as-printed length
matches the nominal dimension.  Multi-layer shapes alternate direction
or winding per layer, which keeps wrist wind-up bounded and evens out
exposure.
"""

from __future__ import annotations

import re

from . import RamcellError
from .geometry import Vec3
from .toolpath import Segment, Toolpath, layer_index

# caliper study of the commissioning prints (high-viscosity fumed-silica
# formulation): dimension name -> (measured mm, half-band mm); predicted
# values are compared against these bands by `ramcell report`
REFERENCE_DIMENSIONS: dict[str, dict[str, tuple[float, float]]] = {
    "wall-50x10": {
        "width": (49.76, 1.27),
        "height": (11.07, 0.86),
    },
    "square-30x30x8.5": {
        "width": (32.09, 0.11),
        "length": (32.01, 0.30),
        "height": (8.62, 0.19),
    },
}


class ShapeError(RamcellError):
    pass


def parse_shape_id(shape_id: str) -> tuple[str, tuple[float, ...]]:
    m = re.fullmatch(r"(rectangle|wall|square)-([0-9.x]+)", shape_id)
    if not m:
        raise ShapeError(f"unknown shape id '{shape_id}'")
    kind = m.group(1)
    try:
        dims = tuple(float(p) for p in m.group(2).split("x"))
    except ValueError as exc:
        raise ShapeError(f"bad dimensions in shape id '{shape_id}'") from exc
    want = {"rectangle": 2, "wall": 2, "square": 3}[kind]
    if len(dims) != want or any(d <= 0 for d in dims):
        raise ShapeError(f"shape '{kind}' needs {want} positive dimensions")
    return kind, dims


def _loop_segments(corners: list[Vec3], speed: float, layer: int) -> list[Segment]:
    segs = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        segs.append(Segment(a, b, speed, extruding=True, uv_on=True, layer=layer))
    return segs


def _hop(at: Vec3, dz: float, travel_speed: float, layer: int) -> Segment:
    return Segment(at, Vec3(at.x, at.y, at.z + dz), travel_speed,
                   extruding=False, uv_on=False, layer=layer)


def generate(shape_id: str, speed_2d: float, speed_3d: float, layer_height: float,
             nozzle_diameter: float, travel_speed: float = 20.0) -> Toolpath:
    """Raw extruding path for a built-in shape (no extensions yet)."""
    kind, dims = parse_shape_id(shape_id)
    if kind == "rectangle":
        lx, ly = dims
        z = layer_height
        lay = layer_index(z, layer_height)
        corners = [Vec3(0, 0, z), Vec3(lx, 0, z), Vec3(lx, ly, z), Vec3(0, ly, z)]
        return Toolpath.from_segments(_loop_segments(corners, speed_2d, lay))
    if kind == "wall":
        length, height = dims
        inset = nozzle_diameter / 2.0
        x0, x1 = inset, length - inset
        if x1 <= x0:
            raise ShapeError("wall shorter than one nozzle diameter")
        n_layers = max(1, round(height / layer_height))
        segs: list[Segment] = []
        for k in range(1, n_layers + 1):
            z = k * layer_height
            lay = layer_index(z, layer_height)
            left_to_right = k % 2 == 1
            a = Vec3(x0 if left_to_right else x1, 0.0, z)
            b = Vec3(x1 if left_to_right else x0, 0.0, z)
            segs.append(Segment(a, b, speed_3d, extruding=True, uv_on=True, layer=lay))
            if k < n_layers:
                segs.append(_hop(b, layer_height, travel_speed, lay))
        return Toolpath.from_segments(segs)
    # square: stacked closed rings, winding alternates per layer
    lx, ly, height = dims
    n_layers = max(1, round(height / layer_height))
    segs = []
    for k in range(1, n_layers + 1):
        z = k * layer_height
        lay = layer_index(z, layer_height)
        corners = [Vec3(0, 0, z), Vec3(lx, 0, z), Vec3(lx, ly, z), Vec3(0, ly, z)]
        if k % 2 == 0:
            corners = [corners[0]] + corners[:0:-1]
        segs.extend(_loop_segments(corners, speed_3d, lay))
        if k < n_layers:
            segs.append(_hop(corners[0], layer_height, travel_speed, lay))
    return Toolpath.from_segments(segs)


def nominal_dimensions(shape_id: str) -> dict[str, float]:
    kind, dims = parse_shape_id(shape_id)
    if kind == "rectangle":
        return {"length": dims[0], "width": dims[1]}
    if kind == "wall":
        return {"width": dims[0], "height": dims[1]}
    return {"length": dims[0], "width": dims[1], "height": dims[2]}

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


def _stack(points: list[tuple[float, float]], n_layers: int, layer_height: float,
           speed: float, travel_speed: float) -> Toolpath:
    """The polyline through the (x, y) points laid at z = k layer_height
    for k = 1 .. n_layers, every other layer reversed, with a hop from
    each layer's end to its z plus one layer height."""
    segs: list[Segment] = []
    for k in range(1, n_layers + 1):
        z = k * layer_height
        lay = layer_index(z, layer_height)
        line = [Vec3(x, y, z) for x, y in (points if k % 2 else points[::-1])]
        segs.extend(Segment(a, b, speed, extruding=True, uv_on=True, layer=lay)
                    for a, b in zip(line, line[1:]))
        if k < n_layers:
            end = line[-1]
            segs.append(Segment(end, Vec3(end.x, end.y, z + layer_height), travel_speed,
                                extruding=False, uv_on=False, layer=lay))
    return Toolpath.from_segments(segs)


def generate(shape_id: str, speed_2d: float, speed_3d: float, layer_height: float,
             nozzle_diameter: float, travel_speed: float = 20.0) -> Toolpath:
    """Raw extruding path for a built-in shape (no extensions yet)."""
    kind, dims = parse_shape_id(shape_id)
    if kind == "wall":
        length, height = dims
        inset = nozzle_diameter / 2.0
        if length - inset <= inset:
            raise ShapeError("wall shorter than one nozzle diameter")
        line = [(inset, 0.0), (length - inset, 0.0)]
        return _stack(line, max(1, round(height / layer_height)), layer_height, speed_3d,
                      travel_speed)
    lx, ly = dims[:2]
    # a closed ring; reversed every other layer, its winding alternates
    ring = [(0, 0), (lx, 0), (lx, ly), (0, ly), (0, 0)]
    if kind == "rectangle":
        return _stack(ring, 1, layer_height, speed_2d, travel_speed)
    return _stack(ring, max(1, round(dims[2] / layer_height)), layer_height, speed_3d,
                  travel_speed)


def nominal_dimensions(shape_id: str) -> dict[str, float]:
    kind, dims = parse_shape_id(shape_id)
    if kind == "rectangle":
        return {"length": dims[0], "width": dims[1]}
    if kind == "wall":
        return {"width": dims[0], "height": dims[1]}
    return {"length": dims[0], "width": dims[1], "height": dims[2]}

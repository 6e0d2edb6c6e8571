import math

import pytest

from ramcell.shapes import (REFERENCE_DIMENSIONS, ShapeError, generate,
                            nominal_dimensions, parse_shape_id)
from ramcell.toolpath import path_stats


def test_shape_id_parsing():
    assert parse_shape_id("rectangle-90x60") == ("rectangle", (90.0, 60.0))
    assert parse_shape_id("square-30x30x8.5") == ("square", (30.0, 30.0, 8.5))
    with pytest.raises(ShapeError):
        parse_shape_id("blob-1x2")
    with pytest.raises(ShapeError):
        parse_shape_id("square-30x30")
    with pytest.raises(ShapeError):
        parse_shape_id("wall-0x10")


def test_rectangle_geometry():
    path = generate("rectangle-90x60", 3.0, 4.0, 0.85, 1.5)
    stats = path_stats(path)
    assert math.isclose(stats["extruded_length"], 300.0)
    assert stats["layer_count"] == 1.0
    assert all(math.isclose(s.speed, 3.0) for s in path.segments)


def test_wall_geometry_and_inset():
    path = generate("wall-50x10", 3.0, 4.0, 0.85, 1.5)
    stats = path_stats(path)
    assert stats["layer_count"] == 12.0
    xs = [s.start.x for s in path.segments if s.extruding]
    xs += [s.end.x for s in path.segments if s.extruding]
    # endpoints inset half a nozzle width so printed length lands on 50
    assert math.isclose(min(xs), 0.75)
    assert math.isclose(max(xs), 49.25)
    assert math.isclose(stats["extruded_length"], 12 * 48.5)
    # strokes alternate direction per layer
    strokes = [s for s in path.segments if s.extruding]
    assert strokes[0].end.x > strokes[0].start.x
    assert strokes[1].end.x < strokes[1].start.x


def test_square_layers_and_winding():
    path = generate("square-30x30x8.5", 3.0, 4.0, 0.85, 1.5)
    stats = path_stats(path)
    assert stats["layer_count"] == 10.0
    assert math.isclose(stats["extruded_length"], 1200.0)
    assert all(math.isclose(s.speed, 4.0) for s in path.segments if s.extruding)
    layer1 = [s for s in path.segments if s.extruding and s.layer == 1]
    layer2 = [s for s in path.segments if s.extruding and s.layer == 2]
    # winding alternates: the first move goes +x on odd layers, +y on even
    assert (layer1[0].end - layer1[0].start).normalized().x == pytest.approx(1.0)
    assert (layer2[0].end - layer2[0].start).normalized().y == pytest.approx(1.0)
    # rings close
    assert (layer1[-1].end - layer1[0].start).norm() < 1e-9


def test_hops_are_travel_moves():
    path = generate("square-30x30x8.5", 3.0, 4.0, 0.85, 1.5)
    hops = [s for s in path.segments if not s.extruding]
    assert len(hops) == 9
    for h in hops:
        assert not h.uv_on
        assert abs(h.end.z - h.start.z - 0.85) < 1e-12


def test_nominal_dimensions():
    assert nominal_dimensions("rectangle-90x60") == {"length": 90.0, "width": 60.0}
    assert nominal_dimensions("square-30x30x8.5") == {
        "length": 30.0, "width": 30.0, "height": 8.5}


def test_reference_bands_present():
    assert REFERENCE_DIMENSIONS["wall-50x10"]["width"] == (49.76, 1.27)
    assert REFERENCE_DIMENSIONS["square-30x30x8.5"]["height"] == (8.62, 0.19)


def test_parameterized_overrides():
    path = generate("square-40x40x1.7", 3.0, 4.0, 0.85, 1.5)
    stats = path_stats(path)
    assert stats["layer_count"] == 2.0
    assert math.isclose(stats["extruded_length"], 2 * 160.0)

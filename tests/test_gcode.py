import math

import numpy as np
import pytest

from ramcell import gcode
from ramcell.gcode import GcodeError, emit, parse, to_toolpath
from ramcell.geometry import Vec3
from ramcell.toolpath import Segment, Toolpath

RECTANGLE = """
M106
G1 X90 Y0 F180
G1 X90 Y60
G1 X0 Y60
G1 X0 Y0
M107
"""


def test_linear_move_units():
    program = parse("G1 X90 Y0 F180")
    assert not program.diagnostics
    cmd = program.commands[0]
    assert cmd.kind == gcode.KIND_LINEAR
    assert cmd.x == 90.0 and cmd.y == 0.0 and cmd.feed == 180.0
    path = to_toolpath(program)
    # 180 mm/min is the printing speed used for flat specimens: 3 mm/s
    assert math.isclose(path.segments[0].speed, 3.0)


def test_empty_file():
    program = parse("")
    assert program.commands == []
    assert program.diagnostics == []


def test_duplicate_axis_word_is_error():
    program = parse("G1 X1 X2")
    assert program.has_errors()
    d = program.diagnostics[0]
    assert d.line == 1 and d.severity == "error"
    assert "duplicate axis" in d.message
    assert d.format() == "1:error:duplicate axis word X"


def test_malformed_number_is_error():
    program = parse("G1 X1..2")
    assert program.has_errors()


def test_arcs_rejected_other_commands_warn():
    program = parse("G2 X1 Y1 I0 J1")
    assert program.has_errors()
    program = parse("G21\nM84\nG1 X5 F120")
    assert not program.has_errors()
    assert [d.severity for d in program.diagnostics] == ["warning", "warning"]


def test_unknown_command_is_error():
    program = parse("T1")
    assert program.has_errors()


def test_comments_preserved():
    program = parse("; header\nG1 X5 F60 (inline) ; trailing\n(standalone)")
    comments = [c for c in program.commands if c.kind == gcode.KIND_COMMENT]
    assert {c.text for c in comments} == {"header", "inline", "trailing", "standalone"}
    assert not program.has_errors()


def test_rectangle_to_toolpath():
    program = parse(RECTANGLE)
    assert not program.has_errors()
    path = to_toolpath(program)
    extruding = [s for s in path.segments if s.extruding]
    assert len(extruding) == 4
    assert math.isclose(sum(s.length() for s in extruding), 300.0)
    assert all(math.isclose(s.speed, 3.0) for s in extruding)


def test_tool_off_disables_extrusion():
    path = to_toolpath(parse("M106\nG1 X10 F180\nM107\nG1 X20"))
    assert path.segments[0].extruding
    assert not path.segments[1].extruding


def test_rapid_then_linear_speeds():
    path = to_toolpath(parse("G0 X10\nM106\nG1 X20 F240"))
    assert not path.segments[0].extruding
    assert path.segments[1].extruding
    # 240 mm/min is the 4 mm/s speed used for stacked specimens
    assert math.isclose(path.segments[1].speed, 4.0)


def test_move_without_feed_or_default_errors():
    with pytest.raises(GcodeError):
        to_toolpath(parse("G1 X10"))
    path = to_toolpath(parse("G1 X10"), default_speed=2.0)
    assert math.isclose(path.segments[0].speed, 2.0)


def test_to_toolpath_refuses_errors():
    program = parse("G1 X1 X2")
    with pytest.raises(GcodeError):
        to_toolpath(program)


def test_uv_mcode_state():
    path = to_toolpath(parse("M42 P2 S1\nM106\nG1 X10 F180\nM42 P2 S0\nG1 X20"))
    assert path.segments[0].uv_on
    assert not path.segments[1].uv_on
    assert parse("M42 P2 S5").has_errors()


def _segment(a, b, speed=3.0, extruding=True, uv=True):
    return Segment(Vec3(*a), Vec3(*b), speed, extruding, uv, 0)


def test_emit_empty_path():
    text = emit(Toolpath(()))
    lines = [l for l in text.splitlines() if l]
    assert lines[0].startswith(";")
    assert all(l.startswith(";") for l in lines)


def test_emit_single_segment_shape():
    text = emit(Toolpath((_segment((0, 0, 0), (10, 0, 0)),)))
    lines = text.splitlines()
    assert "M106" in lines
    assert any(l.startswith("G1 ") and "F180.000000" in l for l in lines)
    assert "M107" in lines
    assert lines.index("M106") < lines.index("M107")


def _path_key(path):
    return [
        (round(s.start.x, 7), round(s.start.y, 7), round(s.start.z, 7),
         round(s.end.x, 7), round(s.end.y, 7), round(s.end.z, 7),
         round(s.speed, 9), s.extruding, s.uv_on)
        for s in path.segments
    ]


def test_round_trip_preserves_everything():
    rng = np.random.RandomState(11)
    pos = Vec3(0.0, 0.0, 0.0)
    segs = []
    for _ in range(40):
        # z never descends: print paths build upward
        step = Vec3(float(np.round(rng.uniform(-40, 40), 3)),
                    float(np.round(rng.uniform(-40, 40), 3)),
                    float(np.round(rng.choice([0.0, 0.0, 0.85]), 3)))
        end = pos + step
        if (end - pos).norm() < 1e-6:
            continue
        segs.append(Segment(pos, end, float(rng.choice([1.5, 3.0, 4.0, 20.0])),
                            bool(rng.rand() < 0.7), bool(rng.rand() < 0.8), 0))
        pos = end
    original = Toolpath(tuple(segs))
    reparsed = to_toolpath(parse(emit(original)))
    assert len(reparsed.segments) == len(original.segments)
    for a, b in zip(original.segments, reparsed.segments):
        assert (a.start - b.start).norm() < 1e-6
        assert (a.end - b.end).norm() < 1e-6
        assert abs(a.speed - b.speed) < 1e-6 * max(1.0, a.speed)
        assert a.extruding == b.extruding
        assert a.uv_on == b.uv_on
    # emission normalizes after one pass: emitting again is byte-identical
    assert emit(reparsed) == emit(to_toolpath(parse(emit(reparsed))))


def test_parser_total_on_garbage():
    rng = np.random.RandomState(12)
    alphabet = list("GXYZF0123456789 .;()M-+eE\nqz#")
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        parse(text)  # must never raise


def test_modal_feed_property():
    rng = np.random.RandomState(13)
    for _ in range(50):
        lines = ["M106"]
        feed = None
        expected = []
        x = 0.0
        for _ in range(rng.randint(1, 15)):
            x += float(rng.randint(1, 9))
            if rng.rand() < 0.4:
                feed = float(rng.randint(1, 9) * 60)
                lines.append(f"G1 X{x} F{feed}")
            else:
                lines.append(f"G1 X{x}")
            expected.append(feed / 60.0 if feed is not None else 2.0)
        path = to_toolpath(parse("\n".join(lines)), default_speed=2.0)
        assert [s.speed for s in path.segments] == pytest.approx(expected)

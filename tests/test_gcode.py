import math
import re

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


@pytest.mark.parametrize("line, severity, message", [
    ("G1 X1 X2", "error", "duplicate axis word X"),
    ("G1 X1 F60 F90", "error", "duplicate feed word F"),
    ("G1.5 X1", "error", "non-integer command code G1.5"),
    ("G1", "error", "move carries neither axis nor feed word"),
    ("G1 X1 F60 E5", "warning", "ignoring word E5"),
    ("M42 P2 S1 Q3", "warning", "ignoring word Q3 on M42"),
], ids=["duplicate-axis", "duplicate-feed", "non-integer-code", "no-words", "ignored-word",
        "ignored-m42-word"])
def test_line_diagnostic(line, severity, message):
    program = parse(line)
    assert bool(program.errors()) == (severity == "error")
    assert [(d.line, d.severity, d.message) for d in program.diagnostics] == [
        (1, severity, message)]


def test_malformed_number_is_error():
    program = parse("G1 X1..2")
    assert program.errors()


def test_arcs_rejected_other_commands_warn():
    program = parse("G2 X1 Y1 I0 J1")
    assert program.errors()
    program = parse("G21\nM84\nG1 X5 F120")
    assert not program.errors()
    assert [d.severity for d in program.diagnostics] == ["warning", "warning"]


def test_unknown_command_is_error():
    program = parse("T1")
    assert program.errors()


def test_comments_preserved():
    program = parse("; header\nG1 X5 F60 (inline) ; trailing\n(standalone)")
    comments = [c for c in program.commands if c.kind == gcode.KIND_COMMENT]
    assert {c.text for c in comments} == {"header", "inline", "trailing", "standalone"}
    assert not program.errors()


def test_rectangle_to_toolpath():
    program = parse(RECTANGLE)
    assert not program.errors()
    path = to_toolpath(program)
    extruding = [s for s in path.segments if s.extruding]
    assert len(extruding) == 4
    assert math.isclose(sum((s.end - s.start).norm() for s in extruding), 300.0)
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
    with pytest.raises(GcodeError, match="line 1: move before any feed"):
        to_toolpath(parse("G1 X10"))
    # a rapid move runs at the travel speed and needs no feed
    with pytest.raises(GcodeError, match="line 2: move before any feed"):
        to_toolpath(parse("G0 X5\nG1 X10"))


def test_to_toolpath_refuses_errors():
    program = parse("G1 X1 X2")
    with pytest.raises(GcodeError, match="^line 1: duplicate axis word X$"):
        to_toolpath(program)
    # one message names the first error and counts the rest
    program = parse("G1 X1 X2 F60\nG2 X1\nT1")
    with pytest.raises(GcodeError, match=r"^line 1: duplicate axis word X \(and 2 more\)$"):
        to_toolpath(program)


def test_uv_mcode_state():
    path = to_toolpath(parse("M42 P2 S1\nM106\nG1 X10 F180\nM42 P2 S0\nG1 X20"))
    assert path.segments[0].uv_on
    assert not path.segments[1].uv_on
    assert parse("M42 P2 S5").errors()


def test_m42_on_another_channel_is_skipped_with_a_warning():
    program = parse("M42 P5 S1\nM106\nG1 X10 F180")
    assert not program.errors()
    assert [(d.line, d.severity) for d in program.diagnostics] == [(1, "warning")]
    assert "P5" in program.diagnostics[0].message
    assert not to_toolpath(program).segments[0].uv_on
    assert to_toolpath(parse("M42 P2 S1\nM106\nG1 X10 F180")).segments[0].uv_on
    # P2.5 is not the UV channel either
    assert not to_toolpath(parse("M42 P2.5 S1\nM106\nG1 X10 F180")).segments[0].uv_on


def _segment(a, b, speed=3.0, extruding=True, uv=True):
    return Segment(Vec3(*a), Vec3(*b), speed, extruding, uv, 0)


def test_emit_empty_path():
    text = emit(Toolpath.from_segments(()))
    lines = [l for l in text.splitlines() if l]
    assert lines[0].startswith(";")
    assert all(l.startswith(";") for l in lines)


def test_emit_single_segment_shape():
    text = emit(Toolpath.from_segments((_segment((0, 0, 0), (10, 0, 0)),)))
    lines = text.splitlines()
    assert "M106" in lines
    assert any(l.startswith("G1 ") and "F180.000000" in l for l in lines)
    assert "M107" in lines
    assert lines.index("M106") < lines.index("M107")


def test_emit_refuses_a_positional_gap():
    path = Toolpath.from_segments((_segment((0, 0, 0), (10, 0, 0)),
                                   _segment((11, 0, 0), (20, 0, 0))))
    with pytest.raises(GcodeError, match="^toolpath has a positional gap; cannot emit$"):
        emit(path)


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
    original = Toolpath.from_segments(tuple(segs))
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
            # the first move must carry a feed
            if feed is None or rng.rand() < 0.4:
                feed = float(rng.randint(1, 9) * 60)
                lines.append(f"G1 X{x} F{feed}")
            else:
                lines.append(f"G1 X{x}")
            expected.append(feed / 60.0)
        path = to_toolpath(parse("\n".join(lines)))
        assert [s.speed for s in path.segments] == pytest.approx(expected)


def test_overflowing_number_is_an_error_naming_the_line():
    program = parse("G1 X10 F600\nG1 X1e400 F600\nG1 Y-2e308\nG1 X5e307 F60")
    errors = [d for d in program.diagnostics if d.severity == "error"]
    # a finite 5e307 lies above the 1e9 bound as well
    assert [d.line for d in errors] == [2, 3, 4]
    assert "X1e400" in errors[0].message and "Y-2e308" in errors[1].message
    assert "X5e307" in errors[2].message
    assert [c.x for c in program.commands if c.kind == gcode.KIND_LINEAR] == [10.0]
    with pytest.raises(GcodeError):
        to_toolpath(program)


def test_a_number_above_1e9_in_magnitude_is_an_error_naming_the_line():
    # Z1e20 would overflow the int64 layer index of the toolpath
    for word in ("Z1e20", "X-2e9", "F1e10", "Y1000000000.5"):
        program = parse(f"G1 F60\nM106\nG1 X1 {word}")
        message = f"number out of range in '{word}': must be at most 1e+09 in magnitude"
        assert [(d.line, d.message) for d in program.errors()] == [(3, message)]
        with pytest.raises(GcodeError, match=rf"^line 3: {re.escape(message)}$"):
            to_toolpath(program)
    # the bound itself loads
    path = to_toolpath(parse("G1 F60\nM106\nG1 X1 Z1e9\nM107\nG1 X-1e9 Z-1e9 F1e9"))
    assert path.end.tolist() == [[1.0, 0.0, 1e9], [-1e9, 0.0, -1e9]]


def test_moves_shorter_than_the_connect_tolerance_are_dropped():
    path = to_toolpath(parse("G1 F60\nM106\nG1 X1\nG1 X1\nG1 X1.0000000001\n"
                             "G1 X1.0000005\nG1 X2"))
    assert path.start[:, 0].tolist() == [0.0, 1.0000005]
    assert path.end[:, 0].tolist() == [1.0, 2.0]


def test_a_feed_that_rounds_to_0_mm_s_is_an_error_naming_the_line():
    program = parse("G1 F1e-323\nG1 F0\nG1 F1e-300 X1")
    assert [(d.line, d.message) for d in program.errors()] == [
        (1, "feed must be positive in mm/s, got 9.88131e-324 mm/min"),
        (2, "feed must be positive in mm/s, got 0 mm/min")]
    with pytest.raises(GcodeError, match=r"^line 1: feed must be positive in mm/s"):
        to_toolpath(program)

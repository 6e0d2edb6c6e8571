"""G-code subset parser and emitter.

Supported commands: G0/G1 linear motion with X/Y/Z/F words, M106/M107
extruder on/off, M42 P<ch> S<0|1> for the UV channel, and comments
(`;` to end of line or parenthesized).  Arcs are rejected; any other
well-formed G/M command is skipped with a warning.  The parser never
raises on input text: every problem becomes a ParseDiagnostic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import RamcellError
from .geometry import Vec3
from .toolpath import Segment, Toolpath, layer_index

UV_CHANNEL = 2

KIND_RAPID = "rapid"
KIND_LINEAR = "linear"
KIND_SET_POSITION = "set_position"
KIND_TOOL_ON = "tool_on"
KIND_TOOL_OFF = "tool_off"
KIND_UV_ON = "uv_on"
KIND_UV_OFF = "uv_off"
KIND_COMMENT = "comment"


class GcodeError(RamcellError):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    severity: str  # "error" | "warning"
    message: str

    def format(self) -> str:
        return f"{self.line}:{self.severity}:{self.message}"


@dataclass(frozen=True)
class GcodeCommand:
    kind: str
    line: int
    x: float | None = None
    y: float | None = None
    z: float | None = None
    feed: float | None = None  # mm/min
    channel: int | None = None
    text: str = ""


@dataclass
class GcodeProgram:
    commands: list[GcodeCommand] = field(default_factory=list)
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    def has_errors(self) -> bool:
        return any(d.severity == "error" for d in self.diagnostics)

    def format_diagnostics(self) -> str:
        return "\n".join(d.format() for d in self.diagnostics)


_WORD_RE = re.compile(r"([A-Za-z])\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)")
_PAREN_RE = re.compile(r"\(([^)]*)\)")


def _split_words(body: str, lineno: int, diags: list[ParseDiagnostic]) -> list[tuple[str, float]] | None:
    words = []
    pos = 0
    for m in _WORD_RE.finditer(body):
        if body[pos:m.start()].strip():
            diags.append(ParseDiagnostic(lineno, "error",
                                         f"malformed input near '{body[pos:m.start()].strip()}'"))
            return None
        words.append((m.group(1).upper(), float(m.group(2))))
        pos = m.end()
    if body[pos:].strip():
        diags.append(ParseDiagnostic(lineno, "error",
                                     f"malformed input near '{body[pos:].strip()}'"))
        return None
    return words


def parse(text: str) -> GcodeProgram:
    """Parse source text; commands keep their 1-based source line."""
    program = GcodeProgram()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw
        comments = []
        if ";" in line:
            line, inline = line.split(";", 1)
            comments.append(inline.strip())
        for m in _PAREN_RE.finditer(line):
            comments.append(m.group(1).strip())
        line = _PAREN_RE.sub(" ", line).strip()
        if line:
            _parse_command(line, lineno, program)
        for c in comments:
            program.commands.append(GcodeCommand(KIND_COMMENT, lineno, text=c))
    return program


def _parse_command(body: str, lineno: int, program: GcodeProgram) -> None:
    words = _split_words(body, lineno, program.diagnostics)
    if words is None:
        return
    if not words:
        return
    letter, number = words[0]
    if number != int(number):
        program.diagnostics.append(
            ParseDiagnostic(lineno, "error", f"non-integer command code {letter}{number}"))
        return
    code = int(number)
    rest = words[1:]
    if letter == "G" and code in (0, 1):
        _parse_move(KIND_RAPID if code == 0 else KIND_LINEAR, rest, lineno, program)
        return
    if letter == "G" and code in (2, 3):
        program.diagnostics.append(ParseDiagnostic(
            lineno, "error", "arc moves (G2/G3) are not supported; tessellate curves upstream"))
        return
    if letter == "G" and code == 92:
        _parse_move(KIND_SET_POSITION, rest, lineno, program)
        return
    if letter == "M" and code == 106:
        program.commands.append(GcodeCommand(KIND_TOOL_ON, lineno))
        return
    if letter == "M" and code == 107:
        program.commands.append(GcodeCommand(KIND_TOOL_OFF, lineno))
        return
    if letter == "M" and code == 42:
        channel = UV_CHANNEL
        state = None
        for w, v in rest:
            if w == "P":
                channel = int(v)
            elif w == "S":
                state = v
            else:
                program.diagnostics.append(
                    ParseDiagnostic(lineno, "warning", f"ignoring word {w}{v:g} on M42"))
        if state not in (0.0, 1.0):
            program.diagnostics.append(
                ParseDiagnostic(lineno, "error", "M42 requires S0 or S1"))
            return
        kind = KIND_UV_ON if state == 1.0 else KIND_UV_OFF
        program.commands.append(GcodeCommand(kind, lineno, channel=channel))
        return
    if letter in ("G", "M"):
        program.diagnostics.append(
            ParseDiagnostic(lineno, "warning", f"unsupported command {letter}{code}, skipped"))
        return
    program.diagnostics.append(
        ParseDiagnostic(lineno, "error", f"unknown command '{letter}{code}'"))


def _parse_move(kind: str, rest: list[tuple[str, float]], lineno: int,
                program: GcodeProgram) -> None:
    axes: dict[str, float] = {}
    feed = None
    for w, v in rest:
        if w in ("X", "Y", "Z"):
            if w in axes:
                program.diagnostics.append(
                    ParseDiagnostic(lineno, "error", f"duplicate axis word {w}"))
                return
            axes[w] = v
        elif w == "F":
            if feed is not None:
                program.diagnostics.append(
                    ParseDiagnostic(lineno, "error", "duplicate feed word F"))
                return
            if v <= 0.0:
                program.diagnostics.append(
                    ParseDiagnostic(lineno, "error", f"feed must be positive, got {v:g}"))
                return
            feed = v
        else:
            program.diagnostics.append(
                ParseDiagnostic(lineno, "warning", f"ignoring word {w}{v:g}"))
    if not axes and feed is None:
        program.diagnostics.append(
            ParseDiagnostic(lineno, "error", "move carries neither axis nor feed word"))
        return
    program.commands.append(GcodeCommand(
        kind, lineno, x=axes.get("X"), y=axes.get("Y"), z=axes.get("Z"), feed=feed))


def to_toolpath(program: GcodeProgram, default_speed: float | None = None,
                start: Vec3 = Vec3(0.0, 0.0, 0.0), travel_speed: float = 20.0,
                layer_height: float = 0.85) -> Toolpath:
    """Interpret a parsed program with modal state.

    The last feed persists across moves; extrusion follows M106/M107 and
    the UV flag follows M42.  Rapid moves never extrude.  Feeds are
    mm/min; segment speeds come out in mm/s.
    """
    if program.has_errors():
        raise GcodeError("program has parse errors; refusing to interpret")
    pos = start
    feed: float | None = None
    extruder = False
    uv = False
    segments: list[Segment] = []
    for cmd in program.commands:
        if cmd.kind == KIND_TOOL_ON:
            extruder = True
        elif cmd.kind == KIND_TOOL_OFF:
            extruder = False
        elif cmd.kind == KIND_UV_ON:
            uv = True
        elif cmd.kind == KIND_UV_OFF:
            uv = False
        elif cmd.kind == KIND_SET_POSITION:
            pos = Vec3(
                cmd.x if cmd.x is not None else pos.x,
                cmd.y if cmd.y is not None else pos.y,
                cmd.z if cmd.z is not None else pos.z,
            )
        elif cmd.kind in (KIND_RAPID, KIND_LINEAR):
            if cmd.feed is not None:
                feed = cmd.feed
            target = Vec3(
                cmd.x if cmd.x is not None else pos.x,
                cmd.y if cmd.y is not None else pos.y,
                cmd.z if cmd.z is not None else pos.z,
            )
            if cmd.kind == KIND_RAPID:
                speed = travel_speed
                extruding = False
            else:
                if feed is not None:
                    speed = feed / 60.0
                elif default_speed is not None:
                    speed = default_speed
                else:
                    raise GcodeError("move before any feed and no default speed",
                                     cmd.line)
                extruding = extruder
            if (target - pos).norm() > 1e-9:
                segments.append(Segment(
                    start=pos, end=target, speed=speed, extruding=extruding,
                    uv_on=uv, layer=layer_index(target.z, layer_height)))
            pos = target
    path = Toolpath.from_segments(segments)
    path.validate()
    return path


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def emit(path: Toolpath) -> str:
    """Render a toolpath back to g-code.

    All motion is emitted as G1 with explicit feeds so parse/interpret
    reproduces every endpoint, speed and flag; extruder and UV state
    changes become M-codes ahead of the move they apply to.
    """
    lines = ["; ramcell g-code v1"]
    extruder = False
    uv = False
    feed = None
    pos = None
    for seg in path.segments:
        if pos is None or (seg.start - pos).norm() > 1e-9:
            if pos is not None:
                raise GcodeError("toolpath has a positional gap; cannot emit")
            # establish the start point without motion
            lines.append(f"G92 X{_fmt(seg.start.x)} Y{_fmt(seg.start.y)} Z{_fmt(seg.start.z)}")
            pos = seg.start
        if seg.extruding != extruder:
            lines.append("M106" if seg.extruding else "M107")
            extruder = seg.extruding
        if seg.uv_on != uv:
            lines.append(f"M42 P{UV_CHANNEL} S{1 if seg.uv_on else 0}")
            uv = seg.uv_on
        words = []
        for letter, a, b in (("X", seg.end.x, pos.x), ("Y", seg.end.y, pos.y),
                             ("Z", seg.end.z, pos.z)):
            if a != b:
                words.append(f"{letter}{_fmt(a)}")
        f_mm_min = seg.speed * 60.0
        if feed is None or f_mm_min != feed:
            words.append(f"F{_fmt(f_mm_min)}")
            feed = f_mm_min
        if not words:
            words.append(f"X{_fmt(seg.end.x)}")
        lines.append("G1 " + " ".join(words))
        pos = seg.end
    if extruder:
        lines.append("M107")
    if uv:
        lines.append(f"M42 P{UV_CHANNEL} S0")
    lines.append("; end")
    return "\n".join(lines) + "\n"

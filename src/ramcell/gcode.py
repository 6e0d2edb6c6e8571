"""G-code subset parser and emitter.

Supported commands: G0/G1 linear motion with X/Y/Z/F words, M106/M107
extruder on/off, M42 P2 S<0|1> for the UV lamp, and comments
(`;` to end of line or parenthesized).  Arcs are rejected; any other
well-formed G/M command is skipped with a warning.  A number above
config.MAX_MAGNITUDE (1e9) in magnitude is an error.  The parser never
raises on input text: every problem becomes a ParseDiagnostic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import RamcellError
from .config import MAX_MAGNITUDE
from .geometry import Vec3
from .toolpath import Segment, Toolpath, layer_index, lengths

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


@dataclass(frozen=True)
class GcodeCommand:
    kind: str
    line: int
    x: float | None = None
    y: float | None = None
    z: float | None = None
    feed: float | None = None  # mm/min
    text: str = ""


@dataclass
class GcodeProgram:
    commands: list[GcodeCommand] = field(default_factory=list)
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    def errors(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]


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
        value = float(m.group(2))
        if not abs(value) <= MAX_MAGNITUDE:
            diags.append(ParseDiagnostic(lineno, "error",
                                         f"number out of range in '{m.group(0).strip()}': "
                                         f"must be at most {MAX_MAGNITUDE:g} in magnitude"))
            return None
        words.append((m.group(1).upper(), value))
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
    if not words:  # malformed (None) or empty
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
                channel = v
            elif w == "S":
                state = v
            else:
                program.diagnostics.append(
                    ParseDiagnostic(lineno, "warning", f"ignoring word {w}{v:g} on M42"))
        if channel != UV_CHANNEL:
            program.diagnostics.append(ParseDiagnostic(
                lineno, "warning", f"M42 on channel P{channel:g} is not the UV lamp, skipped"))
            return
        if state not in (0.0, 1.0):
            program.diagnostics.append(
                ParseDiagnostic(lineno, "error", "M42 requires S0 or S1"))
            return
        kind = KIND_UV_ON if state == 1.0 else KIND_UV_OFF
        program.commands.append(GcodeCommand(kind, lineno))
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
            if not v / 60.0 > 0.0:  # a denormal feed rounds to 0 mm/s
                program.diagnostics.append(ParseDiagnostic(
                    lineno, "error", f"feed must be positive in mm/s, got {v:g} mm/min"))
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


def to_toolpath(program: GcodeProgram, travel_speed: float = 20.0,
                layer_height: float = 0.85) -> Toolpath:
    """Interpret a parsed program with modal state.

    The nozzle starts at the origin and the last feed persists across
    moves; a linear move before any feed is an error.  Extrusion follows
    M106/M107 and the UV flag follows M42.  Rapid moves never extrude.
    Feeds are mm/min; segment speeds come out in mm/s.  A program with
    parse errors is refused, naming the first.
    """
    errors = program.errors()
    if errors:
        more = f" (and {len(errors) - 1} more)" if len(errors) > 1 else ""
        raise GcodeError(errors[0].message + more, errors[0].line)
    pos = Vec3(0.0, 0.0, 0.0)
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
        elif cmd.kind in (KIND_SET_POSITION, KIND_RAPID, KIND_LINEAR):
            target = Vec3(
                cmd.x if cmd.x is not None else pos.x,
                cmd.y if cmd.y is not None else pos.y,
                cmd.z if cmd.z is not None else pos.z,
            )
            if cmd.kind == KIND_SET_POSITION:  # G92 moves nothing
                pos = target
                continue
            if cmd.feed is not None:
                feed = cmd.feed
            if cmd.kind == KIND_RAPID:
                speed = travel_speed
                extruding = False
            else:
                if feed is None:
                    raise GcodeError("move before any feed", cmd.line)
                speed = feed / 60.0
                extruding = extruder
            segments.append(Segment(
                start=pos, end=target, speed=speed, extruding=extruding,
                uv_on=uv, layer=layer_index(target.z, layer_height)))
            pos = target
    path = Toolpath.from_segments(segments)
    path.validate()
    return path


# a move's line starts with the M-codes of its extruder and UV toggles:
# _STARTS[1 + 3 * extruder + uv] for each none 0, on 1, off 2
_STARTS = ("", *(e + u + "G1" for e in ("", "M106\n", "M107\n")
                 for u in ("", f"M42 P{UV_CHANNEL} S1\n", f"M42 P{UV_CHANNEL} S0\n")))


def emit(path: Toolpath) -> str:
    """Render a toolpath back to g-code.

    All motion is emitted as G1 with explicit feeds so parse/interpret
    reproduces every endpoint, speed and flag; extruder and UV state
    changes become M-codes ahead of the move they apply to.  The lines
    are one text table: a move writes the axes that moved since the last
    move ended and the feed where it changed, and the M-codes of the
    extruder and UV toggles; a move that changes none of the four words
    still writes its X.
    """
    if (lengths(path.start[1:] - path.end[:-1]) > 1e-9).any():
        raise GcodeError("toolpath has a positional gap; cannot emit")
    from . import text  # only the writers load the text kernel
    lines = ["; ramcell g-code v1"]
    if len(path):
        # establish the start point without motion
        lines.append("G92 X%.6f Y%.6f Z%.6f" % tuple(path.start[0].tolist()))
        # each move's words are relative to where the last one ended, and
        # its feed to the last move's, so the first move writes its feed
        at = np.concatenate((path.start[:1], path.end[:-1]))
        f_mm_min = path.speed * 60.0
        words = np.column_stack((path.end != at, np.ones(len(path), bool)))
        words[1:, 3] = f_mm_min[1:] != f_mm_min[:-1]
        words[~words.any(axis=1), 0] = True
        ext, uv = path.extruding, path.uv_on
        # one row per word, the first of a move after its line's start
        starts = 1 + (np.diff(ext.astype(np.int64), prepend=0) % 3 * 3
                      + np.diff(uv.astype(np.int64), prepend=0) % 3)
        move, word = np.nonzero(words)
        first = np.concatenate(([True], move[1:] != move[:-1]))
        lines.append(text.rows(
            (_STARTS, np.where(first, starts[move], 0)), ((" X", " Y", " Z", " F"), word),
            text.Cells(np.column_stack((path.end, f_mm_min))[words], 6),
            (("", "\n"), np.concatenate((first[1:], [True]))))[:-1])
        if ext[-1]:
            lines.append("M107")
        if uv[-1]:
            lines.append(f"M42 P{UV_CHANNEL} S0")
    lines.append("; end")
    return "\n".join(lines) + "\n"

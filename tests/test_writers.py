"""The three writers on whole parts against per-row oracles: the g-code
against one f-string per move, the path dump and the robot script against
the per-entry and per-float oracles of tests/toolpath_oracle.py and
tests/branch_oracle.py.  The parts are the built-in specimens, the
40-layer square of the BLAS check, the ramped loop of the CI fixture and
an ingested wall at negative coordinates."""

import functools

import pytest

import toolpath_oracle as oracle
from branch_oracle import emit_program_per_float
from ramcell import cli, extrusion, gcode, pipeline
from ramcell.cell import CellEnvironment, emit_program, plan_trajectory
from ramcell.config import default_config

CFG = default_config()

# a UV-on loop that ramps in Z between two flat layers, then a run-out
# with the extruder off (the fixture of the CI console-script step)
RAMP_GCODE = "\n".join([
    "G0 X0 Y0 Z0.85", "M42 P2 S1", "M106", "G1 X20 Y0 F240", "G1 X20 Y20", "G1 X0 Y20",
    "G1 X0 Y0", "G1 X20 Y0 Z1.0625", "G1 X20 Y20 Z1.275", "G1 X0 Y20 Z1.4875",
    "G1 X0 Y0 Z1.7", "G1 X20 Y0", "G1 X20 Y20", "G1 X0 Y20", "G1 X0 Y0", "M107",
    "G1 X20 Y0", "M42 P2 S0"]) + "\n"

# ten layers of 50 mm strokes, back and forth at x < 0 and y < 0
NEGATIVE_WALL_GCODE = "\n".join(
    ["G92 X-80.25 Y-30.5 Z0.85", "M42 P2 S1", "M106", "G1 X-30.25 F240"]
    + [f"G1 Z{0.85 * k:.4f}\nG1 X{-80.25 if k % 2 == 0 else -30.25}" for k in range(2, 11)]
    + ["M107", "M42 P2 S0"]) + "\n"

PARTS = ["rectangle-90x60", "wall-50x10", "square-30x30x8.5", "square-120x120x34",
         "ramp-gcode", "negative-wall-gcode"]


def gcode_per_move(path) -> str:
    """gcode.emit, one f-string per move: the M-codes of the extruder and
    UV toggles ahead of the move, then its G1 with the axes that moved and
    the feed where it changed (its X when neither did)."""
    lines = ["; ramcell g-code v1"]
    ext = uv = False
    feed = None
    if len(path):
        at = path.start[0].tolist()
        lines.append(f"G92 X{at[0]:.6f} Y{at[1]:.6f} Z{at[2]:.6f}")
    for end, speed, e, u in zip(path.end.tolist(), path.speed.tolist(),
                                path.extruding.tolist(), path.uv_on.tolist()):
        f = speed * 60.0
        words = "".join(f" {a}{v:.6f}" for a, v, w in zip("XYZ", end, at) if v != w)
        words += f" F{f:.6f}" if f != feed else ""
        toggles = ("" if e == ext else "M106\n" if e else "M107\n") + (
            "" if u == uv else f"M42 P2 S{int(u)}\n")
        lines.append(f"{toggles}G1{words or f' X{end[0]:.6f}'}")
        at, feed, ext, uv = end, f, e, u
    lines += ["M107"] * ext + ["M42 P2 S0"] * uv + ["; end"]
    return "\n".join(lines) + "\n"


@functools.cache
def _job(part):
    if part.endswith("-gcode"):
        source = RAMP_GCODE if part == "ramp-gcode" else NEGATIVE_WALL_GCODE
        local = pipeline.build_toolpath_from_gcode(CFG, source)
    else:
        local = pipeline.build_toolpath_from_shape(CFG, part)
    return pipeline.build_job(CFG, part, local)


@pytest.mark.parametrize("part", PARTS)
def test_gcode_matches_one_fstring_per_move(part):
    job = _job(part)
    for path in (job.local_path, job.world_path):
        oracle.assert_same_text(gcode.emit(path), gcode_per_move(path))
    if part == "negative-wall-gcode":
        assert (job.local_path.end[:, :2] < 0).all()
        assert "G1 X-80.250000\n" in gcode.emit(job.local_path)


@pytest.mark.parametrize("part", PARTS)
def test_path_dump_matches_the_per_entry_oracle(part):
    job = _job(part)
    entries = oracle.time_profile_per_entry(job.local_path.segments,
                                            CFG.cell.reorient_rate_rad_s)
    oracle.assert_same_text(cli._path_dump(job).split("\n", 2)[2],
                            "".join(line + "\n" for line in oracle.path_dump_per_entry(entries)))


@pytest.mark.parametrize("part", PARTS)
def test_script_matches_the_per_float_oracle(part):
    job = _job(part)
    sched = extrusion.schedule(job.local_path, job.flow, job.drive,
                               CFG.cell.reorient_rate_rad_s)
    program = plan_trajectory(job.world_path, CFG, CellEnvironment.from_config(CFG.cell),
                              sched.events, (("specimen", part),))
    assert len(program.times) and program.events
    oracle.assert_same_text(emit_program(program), emit_program_per_float(program))

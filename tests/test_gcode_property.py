"""Property: no g-code text ends in a Python traceback.

Short random programs of G0/G1 moves with X/Y/Z/F words, extruder and
UV switches and junk lines run through `simulate` in-process.  It must
exit 0, 2 or 3 without raising, and an exit 2 must be an `error:` line.
Moves ramp in Z at random, so the dose sweep sees nozzle heights that
vary within a timeline entry.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ramcell.cli import main

# moves in a build volume around the origin, now and then at a value
# that pushes the planner and the sweep to their limits or, above 1e9,
# that the parser refuses
COORD = st.one_of(*[st.floats(-60.0, 60.0).map("{:.3f}".format)] * 6,
                  st.sampled_from(["0", "-0", "1e4", "1e9", "1e20", "1e-300"]))
FEED = st.one_of(*[st.floats(1.0, 20000.0).map("{:.1f}".format)] * 6,
                 st.sampled_from(["0.0001", "1e-300", "1e9"]))
MOVE = st.builds(
    lambda g, words: " ".join([g, *words]), st.sampled_from(["G0", "G1", "G1", "G1"]),
    st.lists(st.sampled_from("XYZF"), min_size=1, max_size=4, unique=True).flatmap(
        lambda letters: st.tuples(*(st.builds((a + "{}").format, FEED if a == "F" else COORD)
                                    for a in letters))))
SWITCH = st.sampled_from(["M106", "M107", "M42 P2 S0", "M42 P2 S1"])
# at most one junk line a program, which the parser refuses or skips
JUNK = st.one_of(
    st.sampled_from(["; comment", "(note)", "G28", "T0", "", "G2 X1 Y1 I1 J0",
                     "M42 P2 S7", "M42 P2", "G1", "N10 G1 X1", "G1 X1 E5", "G1 Xnan",
                     "G1 F0", "G1 F-60", "G1 Finf", "G0 X", "hello"]),
    st.text(alphabet="GMXYZF0123456789.- ;()", max_size=12))
PROGRAM = st.builds(
    lambda lines, junk, at: "\n".join(["G1 F240", "M42 P2 S1", "M106", *lines[:at],
                                       *junk, *lines[at:]]) + "\n",
    st.lists(st.one_of(*[MOVE] * 4, SWITCH), min_size=1, max_size=16),
    st.lists(JUNK, max_size=1), st.integers(0, 16))


# tens of ms an example: most programs plan and simulate a few moves
@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(text=PROGRAM)
def test_random_gcode_never_ends_in_a_traceback(text):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "prog.gcode").write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["simulate", "--gcode", str(out / "prog.gcode"), "--out", str(out)])
        assert rc in (0, 2, 3)
        if rc == 2:
            assert err.getvalue().startswith("error: ")

"""Property: no single config value ends in a Python traceback.

Every numeric key of every section, and of the material the job uses, is
set on its own to zero, -1, NaN, infinity, 1e308 or 1e-300, and `emit` (which
simulates first) runs in-process.  It must exit 0, 2 or 3 without
raising, and an exit 2 must be an `error:` line.  A report may say
`printable=1` only when every `predicted_*` value is finite and
non-negative, and the step schedule it then emits must be finite.
"""

import contextlib
import io
import math
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ramcell import config
from ramcell.cli import main

MATERIAL = config.JobConfig().material
KEYS = [(sec.name, f.name) for sec in fields(config.Config) if sec.name != "materials"
        for f in fields(sec.default_factory) if f.type in ("float", "int")]
KEYS += [(f"material:{MATERIAL}", f.name) for f in fields(config.Material)
         if f.type in ("float", "int")]
VALUES = ("0", "-1", "nan", "inf", "1e308", "1e-300")


def test_every_numeric_key_is_generated():
    assert len(KEYS) == 54
    assert ("drivetrain", "microstepping") in KEYS and ("uv", "trail_offset_mm") in KEYS


# a few ms an example: most overrides stop at config load
@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(key=st.sampled_from(KEYS), value=st.sampled_from(VALUES))
def test_single_key_override_never_ends_in_a_traceback(key, value):
    section, name = key
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "override.cfg").write_text(f"[{section}]\n{name} = {value}\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["emit", "--config", str(out / "override.cfg"),
                       "--shape", "wall-20x3", "--out", str(out)])
        assert rc in (0, 2, 3)
        if rc == 2:
            assert err.getvalue().startswith("error: ")
            return
        report = (out / "wall-20x3.report.txt").read_text()
        pairs = dict(line.split("=", 1) for line in report.splitlines())
        assert (rc == 0) == (pairs["printable"] == "1")
        if rc == 3:
            return
        predicted = [float(v) for k, v in pairs.items() if k.startswith("predicted_")]
        assert predicted and all(math.isfinite(v) and v >= 0.0 for v in predicted)
        steps = (out / "wall-20x3.steps.csv").read_text().splitlines()[1:]
        assert all(math.isfinite(float(v)) for line in steps for v in line.split(","))

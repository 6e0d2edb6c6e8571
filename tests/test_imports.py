"""Each command imports only what it runs.

`plan` loads neither the planner (`cell`, `kinematics`) nor the cure
model (`cure`), `report` no cure model, and no command `numpy.ma`: in
numpy 2.4 the first call of `np.median`, `np.unique` or `np.percentile`
in a process imports it, so no module calls them, and
`pipeline.dose_ratio` and `toolpath.path_stats` take their median and
distinct count without them.  The property tests check that both
replacements give exactly what numpy gives."""

import ast
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcell.pipeline import dose_ratio
from ramcell.toolpath import Toolpath, path_stats

SRC = Path(__file__).resolve().parent.parent / "src"
# runs one command, then prints its exit code and sys.modules as JSON
CHILD = ("import json, sys\n"
         "from ramcell import cli\n"
         "code = cli.main(sys.argv[1:])\n"
         "print(json.dumps([code, sorted(sys.modules)]))\n")
PLANNER_AND_CURE = {"ramcell.cell", "ramcell.kinematics", "ramcell.cure"}
# numpy 2.4 imports numpy.ma on the first call of each
IMPORT_NUMPY_MA = {"median", "unique", "percentile"}


def _modules(argv: list[str], cwd: Path) -> set[str]:
    """The modules a fresh interpreter holds after the command argv."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.pop("RAMCELL_CONFIG", None)
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0, (argv, done.stderr)
    return set(modules)


def test_each_command_loads_only_what_it_runs(tmp_path):
    (tmp_path / "box.cfg").write_text("[cell]\nobstacles = 395,60.01,100,405,80,200\n")
    job = ["--shape", "wall-20x3", "--out", "out"]
    loaded = {name: _modules(argv, tmp_path) for name, argv in (
        ("plan", ["plan", *job]),
        ("simulate", ["simulate", *job]),
        ("emit", ["emit", *job]),
        ("report", ["report", "out/wall-20x3.report.txt"]),
        ("simulate, one box", ["simulate", "--config", "box.cfg", *job[:2], "--out", "box"]),
        ("simulate, own g-code", ["simulate", "--gcode", "out/wall-20x3.gcode",
                                  "--out", "gcode"]))}
    assert {name: sorted(m for m in mods if m == "numpy.ma" or m.startswith("numpy.ma."))
            for name, mods in loaded.items()} == {name: [] for name in loaded}
    assert loaded["plan"] & PLANNER_AND_CURE == set()
    assert "ramcell.cure" not in loaded["report"]
    # the commands that run the planner and the cure model do load them
    assert PLANNER_AND_CURE <= loaded["simulate"]
    assert "ramcell.cell" in loaded["report"]


def test_no_module_calls_a_numpy_function_that_imports_numpy_ma():
    found = [f"{path.name}:{node.lineno} np.{node.attr}"
             for path in sorted((SRC / "ramcell").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in IMPORT_NUMPY_MA
             and isinstance(node.value, ast.Name) and node.value.id == "np"]
    assert found == []


# repeats, signed zeros, NaN, infinities and values whose sum overflows
DOSE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, math.nan, math.inf, -math.inf,
                                  1.7e308, -1.7e308, 5e-324]),
                 st.integers(-3, 3).map(float),
                 st.floats(allow_nan=True, allow_infinity=True))


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(doses=st.lists(DOSE, min_size=1, max_size=24))
def test_dose_ratio_is_min_over_numpy_median_bit_for_bit(doses):
    d = np.array(doses)
    # both take a mean that may overflow or meet inf - inf, and warn
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        median = float(np.median(d))
        got = dose_ratio(SimpleNamespace(dose=d))
    want = 0.0 if median <= 0.0 else float(np.min(d)) / median
    assert _bits(got) == _bits(want)


def _path(layers: list[int], extruding: list[bool]) -> Toolpath:
    n = len(layers)
    start = np.zeros((n, 3))
    return Toolpath(start, start + 1.0, np.ones(n), np.array(extruding, bool),
                    np.array(extruding, bool), np.array(layers, np.int64), np.zeros(n))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(rows=st.lists(st.tuples(st.integers(-3, 40), st.booleans()), max_size=30))
def test_path_stats_layer_count_is_numpy_unique_count(rows):
    layers = [layer for layer, _ in rows]
    extruding = [ext for _, ext in rows]
    path = _path(layers, extruding)
    assert path_stats(path)["layer_count"] == len(np.unique(path.layer[path.extruding]))


def test_path_stats_layer_count_of_an_empty_and_a_non_monotone_path():
    assert path_stats(_path([], []))["layer_count"] == 0.0
    assert path_stats(_path([2, 0, 2, 1, 0, 5], [True] * 5 + [False]))["layer_count"] == 3.0

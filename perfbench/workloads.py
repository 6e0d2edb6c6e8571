"""The three benchmark workloads.

Each workload is a closed loop with one client: a pass starts after the
previous one ends, and each job in a pass starts after the previous job.
The program receives only inputs generated here from the seed.  A
workload drives ramcell through its public functions and ``cli.main``
only, and checks every output against ``expected.json`` (digests
recorded when the benchmark was written) without aborting on a mismatch.

``specimens``        the user's real flow and the end-to-end definition:
                     the three README specimens through in-process
                     ``cli.main`` plan -> simulate -> emit -> report.
                     Every layer runs; planning is about half the time,
                     the dose sweep about a third, and it is the only
                     workload where ``emit`` re-running the simulation
                     shows.  The seed changes nothing: the specimens are
                     fixed by the reference measurements.
``material-ladder``  the cure simulation alone, no planner: one
                     square-50x50x8.5 part (2000 elements), simulated
                     for the filler ladder dlp-gf0, dlp-gf35, dlp-gf50.
                     The O(samples x elements) dose sweep dominates.  The
                     part is fixed, like the specimens, so the seed
                     changes nothing here.
``placement-sweep``  the planner alone, no cure: the wall g-code written
                     by ``plan`` is re-ingested, then placed at seeded
                     print origins with seeded obstacle boxes and run
                     through schedule -> plan_trajectory ->
                     check_collisions -> detect_singularity_traversal.
                     IK and branch selection dominate, and the obstacles
                     exercise the per-box collision search that the
                     default (table-only) config skips.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from ramcell import cell, cli, config, extrusion, pipeline, shapes
# bound here so the output checks stay outside any traced span
from ramcell.cell import emit_program
from ramcell.toolpath import time_profile
from reference import NOMINAL_S, reference_cpu_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"

SPECIMENS = (("rectangle-90x60", "dlp-gf50"),
             ("wall-50x10", "dlp-fs9"),
             ("square-30x30x8.5", "dlp-fs9"))
COMMANDS = ("plan", "simulate", "emit", "report")
GOLDEN = ("script.txt", "steps.csv", "io.csv")

LADDER = ("dlp-gf0", "dlp-gf35", "dlp-gf50")
LADDER_SHAPE = "square-50x50x8.5"

WALL = ("wall-50x10", "dlp-fs9")
GRID_X = tuple(range(250, 601, 50))     # print origins, mm, all reachable
GRID_Y = tuple(range(-300, 301, 100))
PLACEMENTS_PER_PASS = 4
OBSTACLES_PER_PLACEMENT = 3
OBSTACLE_MARGIN_MM = 40.0               # beyond the capsule radius


@dataclass
class Job:
    unit: str | tuple
    cpu_s: float = 0.0
    wall_s: float = 0.0
    sim_s: float = 0.0       # simulated print seconds this job accounts for
    ref_s: float = 0.0       # reference work's CPU time around the job

    @property
    def norm_s(self) -> float:
        """CPU time on the nominal host (see reference.py)."""
        return self.cpu_s / self.ref_s * NOMINAL_S


@dataclass
class PassResult:
    """One pass.  Times cover the program's work only, never the checks.

    Each timed block is one job of a named unit (a CLI command on one
    specimen, one material, one placement); the units are the same in
    every pass.  ``cpu_s`` is this process's CPU time, ``wall_s`` its
    wall time; on a shared machine CPU time leaves out the time other
    tenants hold the CPU.  ``ref_s`` is the mean CPU time of the
    reference work run right before and right after the job, outside
    its timed block; one reference run sits between two jobs.
    """
    wall_s: float = 0.0
    jobs: list[Job] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    last_ref_s: float | None = None

    @contextlib.contextmanager
    def timed(self, unit):
        """Time one job of `unit`; the caller sets its ``sim_s``."""
        job = Job(unit)
        self.jobs.append(job)
        before = self.last_ref_s if self.last_ref_s is not None else reference_cpu_s()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            yield job
        finally:
            job.cpu_s = time.process_time() - c0
            job.wall_s = time.perf_counter() - w0
            self.wall_s += job.wall_s
            self.last_ref_s = reference_cpu_s()
            job.ref_s = 0.5 * (before + self.last_ref_s)

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def _dir_digests(path: Path) -> dict[str, str]:
    return {p.name: sha256(p.read_bytes()) for p in sorted(path.iterdir())}


def _dims(dims: dict) -> dict[str, str]:
    return {k: f"{v:.6f}" for k, v in sorted(dims.items())}


class Specimens:
    name = "specimens"

    def __init__(self, seed: int, workdir: Path, expected: dict | None):
        self.workdir = workdir
        self.expected = expected["specimens"] if expected else None
        self.golden = {g: (ROOT / "tests" / "golden" / f"rectangle-90x60.{g}")
                       for g in GOLDEN}

    def run_pass(self, limit: int | None = None) -> PassResult:
        res = PassResult()
        self.record = {}
        for shape, material in SPECIMENS[:limit]:
            out = self.workdir / "out"
            shutil.rmtree(out, ignore_errors=True)
            rec = self.record[shape] = {}
            for cmd in COMMANDS:
                argv = ([cmd, "--shape", shape, "--material", material, "--out", "out"]
                        if cmd != "report" else [cmd, f"out/{shape}.report.txt"])
                buf = io.StringIO()
                problems = []
                try:
                    with res.timed((shape, cmd)) as job, contextlib.redirect_stdout(buf), \
                            contextlib.redirect_stderr(buf):
                        code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # an escaped exception is a failed op
                    code = f"exception {exc!r}"
                got = {"exit": code,
                       "files": _dir_digests(out) if out.is_dir() else {}}
                if cmd == "report":
                    got["stdout"] = sha256(buf.getvalue())
                rec[cmd] = got
                if self.expected is not None:
                    want = self.expected[shape][cmd]
                    problems += [f"{shape} {cmd}: {k} differs (got {got.get(k)!r})"
                                 for k in want if got.get(k) != want[k]]
                if cmd == "emit" and shape == "rectangle-90x60":
                    problems += self._golden(out)
                if cmd == "emit":
                    # the print is counted once per specimen, on its emit
                    job.sim_s = _script_end(out / f"{shape}.script.txt", problems)
                res.op(problems)
        return res

    def _golden(self, out: Path) -> list[str]:
        problems = []
        for suffix, ref in self.golden.items():
            got = out / f"rectangle-90x60.{suffix}"
            if not ref.is_file() or not got.is_file() \
                    or got.read_bytes() != ref.read_bytes():
                problems.append(f"rectangle-90x60.{suffix} differs from tests/golden")
        return problems


def _script_end(script: Path, problems: list[str]) -> float:
    """Simulated print seconds: the `stopj t=` line of the robot program."""
    try:
        for line in reversed(script.read_text(encoding="utf-8").splitlines()):
            if line.startswith("stopj t="):
                return float(line.split("=", 1)[1])
    except OSError:
        pass
    problems.append(f"{script.name}: no stopj line")
    return 0.0


class MaterialLadder:
    name = "material-ladder"

    def __init__(self, seed: int, workdir: Path, expected: dict | None):
        self.cfg = config.default_config()
        self.expected = expected["material-ladder"][LADDER_SHAPE] if expected else None
        # the part is built once; its cost counts toward set-up
        local = pipeline.build_toolpath_from_shape(self.cfg, LADDER_SHAPE)
        self.job = pipeline.build_job(self.cfg, LADDER_SHAPE, local)
        entries = time_profile(self.job.local_path, self.cfg.cell.reorient_rate_rad_s)
        self.sim_per_material = entries[-1].t1

    def run_pass(self, limit: int | None = None) -> PassResult:
        res = PassResult()
        self.record = {}
        deviation = {}
        for material in LADDER[:limit]:
            problems = []
            try:
                with res.timed(material) as job:
                    dmap, dims = pipeline.run_cure_simulation(
                        replace(self.job, material=self.cfg.materials[material]))
                job.sim_s = self.sim_per_material
            except Exception as exc:  # an escaped exception is a failed op
                dmap, dims = None, {}
                problems.append(f"{material}: exception {exc!r}")
            got = {"dims": _dims(dims),
                   "elements": len(dmap) if dmap is not None else 0,
                   "undercured": int((dmap.alpha < self.cfg.cure.alpha_min).sum())
                   if dmap is not None else 0}
            self.record[material] = got
            if self.expected is not None and got != self.expected[material]:
                problems.append(f"{LADDER_SHAPE} {material}: {got} differs from "
                                f"{self.expected[material]}")
            if dims:
                nominal = shapes.nominal_dimensions(LADDER_SHAPE)
                deviation[material] = 0.5 * (abs(dims["length_mm"] - nominal["length"])
                                             + abs(dims["width_mm"] - nominal["width"]))
            res.op(problems)
        if len(deviation) == len(LADDER):
            d0, d35, d50 = (deviation[m] for m in LADDER)
            if not d0 >= d35 > d50:
                res.failed = res.attempted
                res.problems.append(f"deviation ordering broken: {deviation}")
        return res


class PlacementSweep:
    name = "placement-sweep"

    def __init__(self, seed: int, workdir: Path, expected: dict | None):
        shape, material = WALL
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(["plan", "--shape", shape, "--material", material,
                             "--out", "out"])
        if code != 0:
            raise RuntimeError(f"plan {shape} exited {code}: {buf.getvalue()}")
        text = (workdir / "out" / f"{shape}.gcode").read_text(encoding="utf-8")
        cfg = config.default_config()
        self.cfg = replace(cfg, job=replace(cfg.job, shape=shape, material=material))
        local = pipeline.build_toolpath_from_gcode(self.cfg, text)
        self.job = pipeline.build_job(self.cfg, shape, local)
        self.expected = expected["placement-sweep"] if expected else None
        self.placements = generate_placements(seed, self.job.local_path, self.cfg)

    def run_pass(self, limit: int | None = None) -> PassResult:
        res = PassResult()
        for origin, obstacles in self.placements[:limit]:
            problems = []
            key = origin_key(origin)
            with res.timed(key) as job:
                program, collisions, singular = self.place(origin, obstacles, problems)
            if program is not None:
                job.sim_s = program.duration()
                if collisions:
                    problems.append(f"origin {key}: collisions {collisions}")
                got = placement_record(program, singular)
                if self.expected is not None and got != self.expected.get(key):
                    problems.append(f"origin {key}: program differs from expected")
            res.op(problems)
        return res

    def place(self, origin, obstacles: str, problems: list[str]):
        cfg = replace(self.cfg, cell=replace(
            self.cfg.cell, origin_x_mm=float(origin[0]), origin_y_mm=float(origin[1]),
            obstacles=obstacles))
        job = self.job
        program = collisions = singular = None
        try:
            world = pipeline.place_in_cell(cfg, job.local_path)
            sched = extrusion.schedule(job.local_path, job.flow, job.drive,
                                       cfg.cell.reorient_rate_rad_s)
            env = cell.CellEnvironment.from_config(cfg.cell)
            program = cell.plan_trajectory(world, cfg, env, sched.events)
            collisions = cell.check_collisions(program, cfg, env, cfg.cell.collision_dt_s)
            singular = cell.detect_singularity_traversal(program, cfg)
        except Exception as exc:  # PlanningError or anything escaping
            program = None
            problems.append(f"origin {origin}: {exc!r}")
        return program, collisions, singular


def origin_key(origin) -> str:
    return f"{origin[0]},{origin[1]}"


def placement_record(program, singular) -> dict:
    return {"program": sha256(emit_program(program)),
            "singularities": [[f"{a:.6f}", f"{b:.6f}"] for a, b in singular],
            "duration": f"{program.duration():.6f}"}


def generate_placements(seed: int, local, cfg) -> list[tuple[tuple[int, int], str]]:
    """Seeded print origins with obstacle boxes clear of the swept capsule.

    The tool points straight down, so the capsule hangs vertically above
    the nozzle tip and sweeps at most the tip's xy bounding box grown by
    the capsule radius.  Each box sits entirely beyond one side of that
    box, a further margin away, so no seed turns a timing run into a
    collision finding.
    """
    rng = random.Random(seed)
    grid = [(x, y) for x in GRID_X for y in GRID_Y]
    xs = [v for s in local.segments for v in (s.start.x, s.end.x)]
    ys = [v for s in local.segments for v in (s.start.y, s.end.y)]
    half_w = (max(xs) - min(xs)) / 2.0
    half_h = (max(ys) - min(ys)) / 2.0
    clear = cfg.cell.capsule_radius_mm + OBSTACLE_MARGIN_MM
    out = []
    for _ in range(PLACEMENTS_PER_PASS):
        ox, oy = grid.pop(int(rng.random() * len(grid)))
        lo_x, hi_x = ox - half_w - clear, ox + half_w + clear
        lo_y, hi_y = oy - half_h - clear, oy + half_h + clear
        boxes = []
        for _ in range(OBSTACLES_PER_PLACEMENT):
            side = int(rng.random() * 4)
            gap = 150.0 * rng.random()
            sx, sy = 40.0 + 110.0 * rng.random(), 40.0 + 110.0 * rng.random()
            top = 50.0 + 350.0 * rng.random()
            along = rng.random()
            if side < 2:      # beyond -x or +x
                x0 = hi_x + gap if side else lo_x - gap - sx
                y0 = lo_y - sy + along * (hi_y - lo_y + sy)
            else:             # beyond -y or +y
                y0 = hi_y + gap if side == 3 else lo_y - gap - sy
                x0 = lo_x - sx + along * (hi_x - lo_x + sx)
            boxes.append(f"{x0:.3f},{y0:.3f},0,{x0 + sx:.3f},{y0 + sy:.3f},{top:.3f}")
        out.append(((ox, oy), ";".join(boxes)))
    return out


WORKLOADS = {w.name: w for w in (Specimens, MaterialLadder, PlacementSweep)}

"""Benchmark of the ramcell plan -> simulate -> emit pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload specimens --seed 1 --seconds 25 --trace 0

One single-threaded process per workload runs whole passes in a closed
loop until ``--seconds`` have passed, checks every output against
``perfbench/expected.json``, prints a summary and the machine record, and
ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (see ``layers.py``).

Other modes:
  --repeat N           N runs with seeds seed..seed+N-1, each in its own
                       process; prints every metric's median and quartiles
  --smoke              one job per workload, traced and untraced; prints
                       every metric with its unit and the fail ratio
  --check-generator N  plans every placement that seeds 0..N-1 generate and
                       reports any reach, jump or collision failure
  --record             rewrites expected.json from the current program;
                       only for the commit the digests are meant to pin
"""

import time

_T0 = time.perf_counter()  # process start, before numpy and ramcell load

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 9

END_TO_END = {"setup_s": "s", "sim_rate": "s/s", "peak_rss_mb": "MB"}


class ProgramMissing(Exception):
    pass


def import_workloads():
    """Import ramcell from this checkout's src/ and the workload module."""
    if not (SRC / "ramcell" / "__init__.py").is_file():
        raise ProgramMissing(f"no ramcell package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import ramcell
    if Path(ramcell.__file__).resolve().parent != SRC / "ramcell":
        raise ProgramMissing(f"ramcell imported from {ramcell.__file__}, not {SRC}")
    import workloads
    return workloads


@contextlib.contextmanager
def workdir():
    """A fresh directory for the CLI's outputs; the process works inside it."""
    path = WORK / str(os.getpid())
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    old = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(old)
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def machine_record() -> dict:
    import numpy
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), "")
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "load1": os.getloadavg()[0]}


def probe_setup(workload: str, seed: int, repeats: int = SETUP_REPEATS) -> float:
    """CPU seconds from process start to the first job on the nominal
    host: the median over `repeats` fresh processes, each normalised by
    the reference work it runs right after its set-up."""
    from reference import NOMINAL_S
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        cpu, _, ref = map(float, proc.stdout.split())
        samples.append(cpu / ref)
    return statistics.median(samples) * NOMINAL_S


def measure(wl, name: str, seed: int, seconds: float, trace: bool,
            limit: int | None = None) -> dict:
    """Set up one workload and run passes until `seconds` have passed.

    Untraced passes give the end-to-end figures.  With `trace`, traced
    passes alternate with untraced ones (at least one of each) and give
    the per-layer figures and the tracing overhead.
    """
    tracer = None
    if trace:
        import layers
        from tracer import Tracer
        tracer = Tracer(layers.TARGETS)
        tracer.install()
    with workdir() as path:
        try:
            workload = wl.WORKLOADS[name](seed, path, wl.load_expected())
        finally:
            if tracer:
                tracer.uninstall()
        # no warm-up pass: a unit's first run carries its first-call costs
        # (about 1 % of a specimens pass), the same in every run, so they
        # shift the per-unit medians by a constant and add no spread
        from reference import reference_cpu_s
        reference_cpu_s()  # its first run in a process is the slowest
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        while True:
            use_trace = tracer is not None and len(traced) < len(untraced)
            if use_trace:
                tracer.bucket = "pass"
                tracer.install()
            try:
                res = workload.run_pass(limit)
            finally:
                if use_trace:
                    tracer.uninstall()
            (traced if use_trace else untraced).append(res)
            if time.perf_counter() >= deadline and (tracer is None or traced):
                break
    runs = untraced + traced
    unit_s = per_unit(untraced, "norm_s")
    out = {
        "workload": name, "seed": seed, "passes": len(untraced) + len(traced),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "problems": [p for r in runs for p in r.problems],
        "sim_rate": _rate(untraced, unit_s),
        "sim_rate_cpu": _rate(untraced, per_unit(untraced, "cpu_s")),
        "sim_rate_wall": _rate(untraced, per_unit(untraced, "wall_s")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit_s": unit_s,
    }
    if tracer:
        out["per_layer"], out["not_measured"] = layers.per_layer_metrics(
            tracer, [r.wall_s for r in traced], [r.wall_s for r in untraced])
        TRACE_DIR.mkdir(exist_ok=True)
        dump = tracer.dump()
        dump["per_layer"] = out["per_layer"]
        (TRACE_DIR / f"trace-{name}.json").write_text(
            json.dumps(dump), encoding="utf-8")
    return out


def per_unit(passes: list, attr: str) -> dict:
    """The median time `attr` of each unit's jobs over `passes`.

    Every pass runs the same units.  ``norm_s`` divides out how fast the
    shared host runs at the moment of each job (see reference.py); the
    median then drops the jobs the reference did not track.
    """
    times = {}
    for r in passes:
        for job in r.jobs:
            times.setdefault(job.unit, []).append(getattr(job, attr))
    return {unit: statistics.median(v) for unit, v in times.items()}


def _rate(passes: list, unit_s: dict) -> float:
    """Simulated seconds per second of one pass timed by `unit_s`, or 0
    when nothing was timed (the failures are reported)."""
    sim_s = {job.unit: job.sim_s for job in passes[0].jobs} if passes else {}
    time_s = sum(unit_s.values())
    return sum(sim_s.values()) / time_s if time_s > 0 else 0.0


def end_to_end(result: dict, setup_s: float) -> dict:
    values = {"setup_s": setup_s, "sim_rate": result["sim_rate"],
              "peak_rss_mb": result["peak_rss_mb"]}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def print_summary(result: dict, metrics: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload={result['workload']} seed={result['seed']} "
          f"passes={result['passes']} attempted={attempted} failed={failed}")
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<38} {failed / max(1, attempted):>14.6g} ratio")
    if "sim_rate_wall" in result:
        print(f"  {'sim_rate_cpu':<38} {result['sim_rate_cpu']:>14.6g} s/s  "
              "(per CPU second of this host, not normalised)")
        print(f"  {'sim_rate_wall':<38} {result['sim_rate_wall']:>14.6g} s/s  "
              "(per wall second, not normalised)")
    if result["workload"] == "specimens":
        phases = {}
        for (_, cmd), secs in result["unit_s"].items():
            phases[cmd] = phases.get(cmd, 0.0) + secs
        for cmd, secs in phases.items():
            print(f"  {cmd + '_s':<38} {secs:>14.6g} s  (CLI {cmd} summed over the "
                  "three specimens, median of each, nominal host)")
    for name in result.get("not_measured", []):
        print(f"  not measured: {name}")
    for problem in result["problems"][:20]:
        print(f"  FAILED: {problem}")


def cmd_run(args) -> int:
    setup_s = None if args.trace else probe_setup(args.workload, args.seed)
    wl = import_workloads()
    result = measure(wl, args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = end_to_end(result, setup_s)
    print_summary(result, metrics)
    print("machine: " + json.dumps(machine_record()))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def cmd_setup_probe(args) -> int:
    wl = import_workloads()
    with workdir() as path:
        wl.WORKLOADS[args.workload](args.seed, path, wl.load_expected())
        cpu, wall = time.process_time(), time.perf_counter() - _T0
    from reference import reference_cpu_s
    # the first run of the reference in a process is the slowest
    ref = statistics.median(reference_cpu_s() for _ in range(3))
    print(f"{cpu:.9f} {wall:.9f} {ref:.9f}")
    return 0


def cmd_repeat(args) -> int:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for i in range(args.repeat):
        seed = args.seed + i
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr)
            return 1
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed={seed} correct={last['correct']} attempted={last['attempted']} "
              f"failed={last['failed']} " + " ".join(
                  f"{k}={m['value']:.6g}" for k, m in last["metrics"].items()),
              flush=True)
        for k, m in last["metrics"].items():
            values.setdefault(k, []).append(m["value"])
            units[k] = m["unit"]
    summary = {}
    print(f"{'metric':<38} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                      "unit": units[k], "values": vs}
        print(f"{k:<38} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f}")
    print("machine: " + json.dumps(machine_record()))
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "metrics": summary}))
    return 0


def cmd_smoke(args) -> int:
    wl = import_workloads()
    failed = 0
    for name in wl.WORKLOADS:
        result = measure(wl, name, args.seed, 0.0, trace=True, limit=1)
        metrics = end_to_end(result, probe_setup(name, args.seed, repeats=1))
        metrics.update(result["per_layer"])
        print_summary(result, metrics)
        failed += result["failed"]
    print("machine: " + json.dumps(machine_record()))
    print("smoke: " + ("ok" if failed == 0 else f"{failed} failed operations"))
    return 0 if failed == 0 else 1


def cmd_record(args) -> int:
    wl = import_workloads()
    expected = {"specimens": {}, "material-ladder": {}, "placement-sweep": {}}
    problems = []
    with workdir() as path:
        spec = wl.Specimens(0, path, None)
        res = spec.run_pass()
        problems += res.problems
        expected["specimens"] = spec.record
        ladder = wl.MaterialLadder(0, path, None)
        problems += ladder.run_pass().problems
        expected["material-ladder"][wl.LADDER_SHAPE] = ladder.record
        sweep = wl.PlacementSweep(0, path, None)
        for x in wl.GRID_X:
            for y in wl.GRID_Y:
                t0 = time.perf_counter()
                program, collisions, singular = sweep.place((x, y), "", problems)
                dt = time.perf_counter() - t0
                if collisions:
                    problems.append(f"origin {x},{y}: collisions {collisions}")
                if program is not None:
                    expected["placement-sweep"][wl.origin_key((x, y))] = \
                        wl.placement_record(program, singular)
                print(f"origin {x},{y}: {dt:.3f} s", flush=True)
    codes = {rec["exit"] for s in expected["specimens"].values() for rec in s.values()}
    if problems or codes != {0}:
        print("not recorded:", problems, codes)
        return 1
    wl.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    print(f"wrote {wl.EXPECTED_PATH}")
    return 0


def cmd_check_generator(args) -> int:
    wl = import_workloads()
    bad = 0
    with workdir() as path:
        sweep = wl.PlacementSweep(0, path, None)
        for seed in range(args.check_generator):
            for origin, obstacles in wl.generate_placements(seed, sweep.job.local_path,
                                                            sweep.cfg):
                problems = []
                program, collisions, _ = sweep.place(origin, obstacles, problems)
                if program is None or collisions:
                    bad += 1
                    print(f"seed {seed} origin {origin}: {problems or collisions}")
            print(f"seed {seed}: checked", flush=True)
    print(f"generator check: {bad} failing placements")
    return 0 if bad == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="specimens",
                        choices=("specimens", "material-ladder", "placement-sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--repeat", type=int, metavar="N")
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--check-generator", type=int, metavar="N")
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            return cmd_setup_probe(args)
        if args.repeat:
            return cmd_repeat(args)
        if args.smoke:
            return cmd_smoke(args)
        if args.record:
            return cmd_record(args)
        if args.check_generator:
            return cmd_check_generator(args)
        return cmd_run(args)
    except (ProgramMissing, ImportError, OSError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

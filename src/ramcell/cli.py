"""Command-line entry point: plan, simulate, emit, report.

Exit codes: 0 success, 2 usage or configuration problem, 3 failed
checks.  `RAMCELL_CONFIG` supplies a config file when --config is not
given.  All outputs are deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import RamcellError, cell, gcode, pipeline, shapes
from .config import Config, dump_config, default_config, load_config
from .shapes import REFERENCE_DIMENSIONS, ShapeError
from .toolpath import time_profile

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECKS = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramcell",
        description="Plan, simulate and emit robot programs for the "
                    "UV-resin extrusion cell.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_job_options(p):
        p.add_argument("--config", help="config file (fallback: $RAMCELL_CONFIG)")
        p.add_argument("--shape", help="built-in shape id, e.g. rectangle-90x60")
        p.add_argument("--gcode", help="g-code file to ingest instead of a shape")
        p.add_argument("--material", help="material name from the library")
        p.add_argument("--out", help="output directory")

    p_plan = sub.add_parser("plan", help="generate or ingest a toolpath and write artifacts")
    add_job_options(p_plan)
    p_sim = sub.add_parser("simulate", help="plan plus trajectory, clearance and cure simulation")
    add_job_options(p_sim)
    p_emit = sub.add_parser("emit", help="write robot script and step schedule")
    add_job_options(p_emit)
    p_emit.add_argument("--force", action="store_true",
                        help="emit despite under-cure findings (never past "
                             "reach/collision failures)")
    p_rep = sub.add_parser("report", help="print a human-readable report summary")
    p_rep.add_argument("report_file", help="path to a .report.txt file")
    return parser


def _load_config(args) -> Config:
    path = args.config or os.environ.get("RAMCELL_CONFIG")
    cfg = load_config(path) if path else default_config()
    overrides = {}
    if getattr(args, "shape", None):
        shapes.parse_shape_id(args.shape)  # also with --gcode: the written .cfg must load
        overrides["shape"] = args.shape
    if getattr(args, "material", None):
        overrides["material"] = args.material
    if getattr(args, "out", None):
        overrides["out_dir"] = args.out
    if overrides:
        from dataclasses import replace
        cfg = replace(cfg, job=replace(cfg.job, **overrides))
    return cfg


def _build_job(cfg: Config, args) -> pipeline.JobBundle:
    if getattr(args, "gcode", None):
        try:
            text = Path(args.gcode).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise gcode.GcodeError(f"{args.gcode}: not UTF-8 text: {exc}") from exc
        local = pipeline.build_toolpath_from_gcode(cfg, text)
        name = Path(args.gcode).stem
    else:
        local = pipeline.build_toolpath_from_shape(cfg, cfg.job.shape)
        name = cfg.job.shape
    return pipeline.build_job(cfg, name, local)


# one path dump row per move: the timeline columns below, in order, the
# first ten written as %.6f and the flags and layer as %d
_PATH_COLUMNS = ("t0", "t1", "x0", "y0", "z0", "x1", "y1", "z1", "speed", "yaw0",
                 "extruding", "uv_on", "layer")


def _path_dump(job: pipeline.JobBundle) -> str:
    """The path dump: a header, then one row per move, laid out as one
    text table of the stacked columns."""
    from . import text  # only the writers load the text kernel
    tl = time_profile(job.local_path, job.cfg.cell.reorient_rate_rad_s)
    moves = ~tl.dwell
    floats = np.column_stack([tl[c] for c in _PATH_COLUMNS[:10]])[moves]
    ints = np.column_stack([tl[c] for c in _PATH_COLUMNS[10:]])[moves]
    return ("# ramcell path v1\n# t0,t1,x0,y0,z0,x1,y1,z1,speed,yaw,extruding,uv,layer\n"
            + text.rows(text.Cells(floats, 6, ("",) + (",",) * 9), text.Cells(ints, 0, ","),
                        "\n"))


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_plan_artifacts(job: pipeline.JobBundle, out: Path) -> list[Path]:
    files = []
    gcode_path = out / f"{job.name}.gcode"
    _write(gcode_path, gcode.emit(job.local_path))
    files.append(gcode_path)
    dump_path = out / f"{job.name}.path.txt"
    _write(dump_path, _path_dump(job))
    files.append(dump_path)
    cfg_path = out / f"{job.name}.cfg"
    _write(cfg_path, dump_config(job.cfg))
    files.append(cfg_path)
    return files


def cmd_plan(args) -> int:
    cfg = _load_config(args)
    job = _build_job(cfg, args)
    out = Path(cfg.job.out_dir)
    for f in _write_plan_artifacts(job, out):
        print(f)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    job = _build_job(cfg, args)
    out = Path(cfg.job.out_dir)
    files = _write_plan_artifacts(job, out)
    result = pipeline.simulate(job)
    report_path = out / f"{job.name}.report.txt"
    _write(report_path, "\n".join(result.report.to_lines()) + "\n")
    files.append(report_path)
    for f in files:
        print(f)
    return EXIT_OK if result.report.printable else EXIT_CHECKS


def cmd_emit(args) -> int:
    cfg = _load_config(args)
    job = _build_job(cfg, args)
    out = Path(cfg.job.out_dir)
    result = pipeline.simulate(job)
    report_path = out / f"{job.name}.report.txt"
    _write(report_path, "\n".join(result.report.to_lines()) + "\n")
    report = result.report
    if report.hard_failures() or (not report.printable and not args.force):
        print("emit refused: simulation reported failures "
              f"(see {report_path})", file=sys.stderr)
        return EXIT_CHECKS
    assert result.program is not None
    script_path = out / f"{job.name}.script.txt"
    _write(script_path, cell.emit_program(result.program))
    steps_path = out / f"{job.name}.steps.csv"
    _write(steps_path, "\n".join(result.schedule.csv_lines()) + "\n")
    io_path = out / f"{job.name}.io.csv"
    _write(io_path, "\n".join(result.schedule.event_lines()) + "\n")
    for f in (script_path, steps_path, io_path):
        print(f)
    return EXIT_OK


def _report_rows(rep: cell.SimReport) -> list[tuple[str, float, float | None, float | None]]:
    """(dimension, predicted, reference, half_band) rows for the summary:
    a reference is the caliper study's (value, half band), else the
    nominal size with no band."""
    try:
        refs = {name: (size, None)
                for name, size in shapes.nominal_dimensions(rep.specimen).items()}
    except ShapeError:
        refs = {}
    refs.update(REFERENCE_DIMENSIONS.get(rep.specimen, {}))
    # (label, report key, reference name)
    mapping = [(name, f"{name}_mm", name) for name in ("length", "width", "height", "line_width")]
    if rep.specimen.startswith("wall"):
        # the wall's long axis is what the reference study calls its width
        mapping[:2] = [("width(long axis)", "length_mm", "width")]
    return [(label, rep.dimensions[key], *refs.get(ref, (None, None)))
            for label, key, ref in mapping if key in rep.dimensions]


def cmd_report(args) -> int:
    path = Path(args.report_file)
    try:
        rep = cell.SimReport.from_text(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"cannot read report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not rep.specimen:
        print("no specimens")
        return EXIT_OK
    print(f"specimen: {rep.specimen} (material {rep.material})")
    print(f"{'dimension':<18}{'predicted':>12}{'reference':>12}{'band':>10}"
          f"{'deviation':>12}  status")
    for name, predicted, ref, band in _report_rows(rep):
        dev = None if ref is None else predicted - ref
        status = ("-" if dev is None else "nominal" if band is None
                  else "within" if abs(dev) <= band else "OUTSIDE")
        cells = "".join(f"{'-' if v is None else format(v, spec):>{width}}"
                        for v, spec, width in ((ref, ".3f", 12), (band, ".3f", 10),
                                               (dev, "+.3f", 12)))
        print(f"{name:<18}{predicted:>12.3f}{cells}  {status}")
    print(f"min dose ratio: {rep.min_dose_ratio:.3f}")
    print(f"undercured elements: {rep.undercured_count}")
    if rep.singularity_warnings:
        print(f"singularity intervals: {len(rep.singularity_warnings)} "
              "(consider an additional cure light)")
    print(f"printable: {'yes' if rep.printable else 'no'}")
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "plan":
            return cmd_plan(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "emit":
            return cmd_emit(args)
        return cmd_report(args)
    except (RamcellError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

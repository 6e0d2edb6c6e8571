"""Command-line entry point: plan, simulate, emit, report.

Exit codes: 0 success, 2 usage or configuration problem, 3 failed
checks.  `RAMCELL_CONFIG` supplies a config file when --config is not
given.  All outputs are deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

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
        text = Path(args.gcode).read_text(encoding="utf-8")
        local = pipeline.build_toolpath_from_gcode(cfg, text)
        name = Path(args.gcode).stem
    else:
        local = pipeline.build_toolpath_from_shape(cfg, cfg.job.shape)
        name = cfg.job.shape
    return pipeline.build_job(cfg, name, local)


def _path_dump_lines(job: pipeline.JobBundle) -> list[str]:
    lines = ["# ramcell path v1",
             "# t0,t1,x0,y0,z0,x1,y1,z1,speed,yaw,extruding,uv,layer"]
    for e in time_profile(job.local_path, job.cfg.cell.reorient_rate_rad_s):
        if e.kind != "move":
            continue
        lines.append(
            f"{e.t0:.6f},{e.t1:.6f},{e.start.x:.6f},{e.start.y:.6f},{e.start.z:.6f},"
            f"{e.end.x:.6f},{e.end.y:.6f},{e.end.z:.6f},{e.speed:.6f},{e.yaw0:.6f},"
            f"{1 if e.extruding else 0},{1 if e.uv_on else 0},{e.layer}")
    return lines


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_plan_artifacts(job: pipeline.JobBundle, out: Path) -> list[Path]:
    files = []
    gcode_path = out / f"{job.name}.gcode"
    _write(gcode_path, gcode.emit(job.local_path))
    files.append(gcode_path)
    dump_path = out / f"{job.name}.path.txt"
    _write(dump_path, "\n".join(_path_dump_lines(job)) + "\n")
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
    override = report if report.printable else None
    _write(script_path, cell.emit_program(result.program, override))
    steps_path = out / f"{job.name}.steps.csv"
    _write(steps_path, "\n".join(result.schedule.csv_lines()) + "\n")
    io_path = out / f"{job.name}.io.csv"
    _write(io_path, "\n".join(result.schedule.event_lines()) + "\n")
    for f in (script_path, steps_path, io_path):
        print(f)
    return EXIT_OK


def _report_rows(rep: cell.SimReport) -> list[tuple[str, float, float | None, float | None]]:
    """(dimension, predicted, reference, half_band) rows for the summary."""
    reference = REFERENCE_DIMENSIONS.get(rep.specimen, {})
    try:
        nominal = shapes.nominal_dimensions(rep.specimen)
    except ShapeError:
        nominal = {}
    if rep.specimen.startswith("wall"):
        # the wall's long axis is what the reference study calls its width
        mapping = [("width(long axis)", "length_mm", "width"),
                   ("height", "height_mm", "height"),
                   ("line_width", "line_width_mm", None)]
    else:
        mapping = [("length", "length_mm", "length"),
                   ("width", "width_mm", "width"),
                   ("height", "height_mm", "height"),
                   ("line_width", "line_width_mm", None)]
    rows = []
    for label, key, ref_name in mapping:
        if key not in rep.dimensions:
            continue
        if ref_name and ref_name in reference:
            ref, band = reference[ref_name]
        elif ref_name and ref_name in nominal:
            ref, band = nominal[ref_name], None
        else:
            ref, band = None, None
        rows.append((label, rep.dimensions[key], ref, band))
    return rows


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
        if ref is None:
            print(f"{name:<18}{predicted:>12.3f}{'-':>12}{'-':>10}{'-':>12}  -")
            continue
        dev = predicted - ref
        if band is None:
            print(f"{name:<18}{predicted:>12.3f}{ref:>12.3f}{'-':>10}"
                  f"{dev:>+12.3f}  nominal")
        else:
            status = "within" if abs(dev) <= band else "OUTSIDE"
            print(f"{name:<18}{predicted:>12.3f}{ref:>12.3f}{band:>10.3f}"
                  f"{dev:>+12.3f}  {status}")
    print(f"min dose ratio: {rep.min_dose_ratio:.3f}")
    print(f"undercured elements: {rep.undercured_count}")
    if rep.singularity_warnings:
        print(f"singularity intervals: {len(rep.singularity_warnings)} "
              "(consider an additional cure light)")
    print(f"printable: {'yes' if rep.printable else 'no'}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "plan":
            return cmd_plan(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "emit":
            return cmd_emit(args)
        if args.command == "report":
            return cmd_report(args)
    except (RamcellError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser.error(f"unknown command {args.command}")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

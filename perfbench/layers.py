"""Trace targets and per-layer metrics for the ramcell modules.

Layers are the modules of ``src/ramcell``.  Every target below is a
function the pipeline calls at most a few thousand times per pass, so
the wrapper cost stays small; ``geometry`` is traced only through its
entry points, and ``Vec3`` arithmetic counts toward its caller.

Per-layer values are per traced pass: spans of the traced set-up plus
the average of the traced passes.  Times are inclusive unless the name
ends in ``self_s``.  Counts are computed from each call's arguments or
result; ``cell.collision_samples`` and ``cure.sweep_samples`` re-derive
the sampling rule of the code at the time the benchmark was written.
"""

from __future__ import annotations

import math
import statistics

from tracer import Target, Tracer

MODULES = ("shapes", "toolpath", "gcode", "config", "geometry", "extrusion",
           "kinematics", "cell", "cure", "pipeline", "cli")


def _waypoints(tr: Tracer, a: dict, result) -> None:
    tr.count("cell.waypoints", len(result.waypoints))


def _collisions(tr: Tracer, a: dict, result) -> None:
    tr.count("cell.obstacles", len(a["env"].obstacles))
    times = [t for t, _ in a["program"].waypoints]
    if not times:
        return
    duration = times[-1] - times[0]
    n = max(2, int(math.ceil(duration / a["dt_s"])) + 1) if duration > 0 else 1
    tr.count("cell.collision_samples", n)


def _dose(tr: Tracer, a: dict, result) -> None:
    dmap = a["dmap"]
    tr.count("cure.elements", len(dmap))
    if len(dmap) == 0 or a["spot"].irradiance_w_mm2() <= 0.0:
        return
    profile = tr.originals["toolpath.time_profile"]
    samples = 0
    for e in profile(a["path"], a["reorient_rate"]):
        dur = e.t1 - e.t0
        if e.uv_on and dur > 0.0:
            samples += max(1, math.ceil(dur / a["dt_s"]))
    tr.count("cure.sweep_samples", samples)


def _bytes(tr: Tracer, a: dict, result) -> None:
    tr.count("cli.bytes_written", len(a["text"].encode("utf-8")))


def _t(module: str, attr: str, counter=None) -> Target:
    return Target(f"{module}.{attr.rsplit('.', 1)[-1]}", f"ramcell.{module}",
                  attr, counter)


TARGETS = [
    _t("shapes", "generate"),
    _t("toolpath", "add_cure_extensions"),
    _t("toolpath", "assign_orientations"),
    _t("toolpath", "resample"),
    _t("toolpath", "time_profile"),
    _t("toolpath", "path_stats"),
    _t("toolpath", "Toolpath.validate"),
    _t("gcode", "parse"),
    _t("gcode", "to_toolpath"),
    _t("gcode", "emit"),
    _t("config", "default_config"),
    _t("config", "load_config"),
    _t("config", "dump_config"),
    _t("geometry", "yaw_of"),
    _t("geometry", "Rotation.about_z"),
    _t("geometry", "Rotation.from_matrix"),
    _t("geometry", "Pose.from_matrix"),
    _t("extrusion", "schedule"),
    _t("extrusion", "StepSchedule.csv_lines"),
    _t("extrusion", "StepSchedule.event_lines"),
    _t("kinematics", "ik"),
    _t("kinematics", "fk"),
    _t("kinematics", "select_branch"),
    _t("kinematics", "manipulability"),
    _t("cell", "plan_trajectory", _waypoints),
    _t("cell", "check_collisions", _collisions),
    _t("cell", "detect_singularity_traversal"),
    _t("cell", "emit_program"),
    _t("cell", "SimReport.to_lines"),
    _t("cell", "SimReport.from_text"),
    _t("cure", "deposit"),
    _t("cure", "accumulate_dose", _dose),
    _t("cure", "update_cure"),
    _t("cure", "spread"),
    _t("cure", "predict_dimensions"),
    _t("cure", "flag_undercured"),
    _t("pipeline", "build_toolpath_from_shape"),
    _t("pipeline", "build_toolpath_from_gcode"),
    _t("pipeline", "build_job"),
    _t("pipeline", "place_in_cell"),
    _t("pipeline", "run_cure_simulation"),
    _t("pipeline", "simulate"),
    _t("cli", "main"),
    _t("cli", "cmd_plan"),
    _t("cli", "cmd_simulate"),
    _t("cli", "cmd_emit"),
    _t("cli", "cmd_report"),
    _t("cli", "_write", _bytes),
]

# metric -> (unit, kind, span names or count key)
#   kind "incl": inclusive seconds of the spans; "calls": call count;
#   "count": counter value; "self": self seconds of the spans
PER_LAYER = {
    "cell.plan_trajectory_s": ("s", "incl", ["cell.plan_trajectory"]),
    "kinematics.ik_s": ("s", "incl", ["kinematics.ik"]),
    "kinematics.ik_calls": ("count", "calls", ["kinematics.ik"]),
    "cell.waypoints": ("count", "count", "cell.waypoints"),
    "cell.check_collisions_s": ("s", "incl", ["cell.check_collisions"]),
    "cell.collision_samples": ("count", "count", "cell.collision_samples"),
    "cell.obstacles": ("count", "count", "cell.obstacles"),
    "cell.detect_singularity_traversal_s": ("s", "incl", ["cell.detect_singularity_traversal"]),
    "cure.accumulate_dose_s": ("s", "incl", ["cure.accumulate_dose"]),
    "cure.sweep_samples": ("count", "count", "cure.sweep_samples"),
    "cure.elements": ("count", "count", "cure.elements"),
    "cure.deposit_s": ("s", "incl", ["cure.deposit"]),
    "cure.finish_s": ("s", "incl", ["cure.update_cure", "cure.spread",
                                    "cure.predict_dimensions", "cure.flag_undercured"]),
    "toolpath.time_profile_s": ("s", "incl", ["toolpath.time_profile"]),
    "toolpath.time_profile_calls": ("count", "calls", ["toolpath.time_profile"]),
    "toolpath.build_s": ("s", "incl", ["pipeline.build_toolpath_from_shape"]),
    "pipeline.build_job_s": ("s", "incl", ["pipeline.build_job"]),
    "gcode.emit_s": ("s", "incl", ["gcode.emit"]),
    "gcode.parse_s": ("s", "incl", ["gcode.parse"]),
    "extrusion.schedule_s": ("s", "incl", ["extrusion.schedule"]),
    "cli.write_s": ("s", "incl", ["cli._write"]),
    "cli.bytes_written": ("count", "count", "cli.bytes_written"),
    "cli.plan_s": ("s", "incl", ["cli.cmd_plan"]),
    "cli.simulate_s": ("s", "incl", ["cli.cmd_simulate"]),
    "cli.emit_s": ("s", "incl", ["cli.cmd_emit"]),
    "pipeline.simulate_self_s": ("s", "self", ["pipeline.simulate"]),
}
for _m in MODULES:
    PER_LAYER[f"{_m}.self_s"] = ("s", "self", [t.span for t in TARGETS
                                               if t.span.startswith(_m + ".")])
# derived in per_layer_metrics
PER_LAYER["cure.dose_us_per_sample"] = ("us", "derived", None)
PER_LAYER["trace.unattributed_s"] = ("s", "derived", None)
PER_LAYER["trace.overhead_ratio"] = ("ratio", "derived", None)

# the counter that produces each count key
_COUNT_SOURCE = {"cell.waypoints": "cell.plan_trajectory",
                 "cell.collision_samples": "cell.check_collisions",
                 "cell.obstacles": "cell.check_collisions",
                 "cure.sweep_samples": "cure.accumulate_dose",
                 "cure.elements": "cure.accumulate_dose",
                 "cli.bytes_written": "cli._write"}


def per_layer_metrics(tracer: Tracer, traced_pass_s: list[float],
                      untraced_pass_s: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics per traced pass, plus the names not measured."""
    setup = tracer.buckets["setup"]
    passes = tracer.buckets["pass"]
    n = max(1, len(traced_pass_s))

    def total(table: str, names) -> float:
        return (sum(getattr(setup, table)[s] for s in names)
                + sum(getattr(passes, table)[s] for s in names) / n)

    missing = set(tracer.missing) | tracer.uncounted
    values: dict[str, float] = {}
    not_measured: list[str] = []
    for metric, (unit, kind, src) in PER_LAYER.items():
        if kind == "derived":
            continue
        if kind == "count":
            sources = [_COUNT_SOURCE[src]]
            value = setup.counts[src] + passes.counts[src] / n
        else:
            sources = src
            table = {"incl": "incl", "self": "self_s", "calls": "calls"}[kind]
            value = total(table, src)
        if sources and all(s in missing for s in sources):
            not_measured.append(metric)
        values[metric] = float(value)

    samples = values["cure.sweep_samples"]
    values["cure.dose_us_per_sample"] = (
        values["cure.accumulate_dose_s"] / samples * 1e6 if samples else 0.0)
    attributed = sum(passes.self_s.values()) / n
    traced = statistics.median(traced_pass_s)
    values["trace.unattributed_s"] = traced - attributed
    values["trace.overhead_ratio"] = traced / statistics.median(untraced_pass_s)
    if "cure.sweep_samples" in not_measured:
        not_measured.append("cure.dose_us_per_sample")
    metrics = {name: {"value": values[name], "unit": PER_LAYER[name][0]}
               for name in PER_LAYER}
    return metrics, not_measured


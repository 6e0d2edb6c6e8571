import math

import pytest

from ramcell import RamcellError, cell, cli, config, cure, extrusion, gcode, shapes, toolpath
from ramcell.cell import SimReport
from ramcell.cli import build_parser, main
from ramcell.config import dump_config, loads_config


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["plan", "--shape", "wall-50x10", "--out", "o"])
    assert args.command == "plan" and args.shape == "wall-50x10" and args.out == "o"
    args = parser.parse_args(["emit", "--force"])
    assert args.command == "emit" and args.force
    args = parser.parse_args(["report", "r.txt"])
    assert args.command == "report" and args.report_file == "r.txt"


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(build_parser()) or built[-1])
    cli._parser.cache_clear()
    try:
        for name in ("a", "b", "c"):
            assert main(["report", str(tmp_path / f"{name}.report.txt")]) == 2
        assert len(built) == 1
        # each parse of the reused parser starts from the defaults
        assert cli._parser().parse_args(["emit", "--force"]).force
        assert not cli._parser().parse_args(["emit"]).force
    finally:
        cli._parser.cache_clear()


def test_plan_writes_artifacts(tmp_path):
    rc = main(["plan", "--shape", "rectangle-90x60", "--material", "dlp-gf50",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "rectangle-90x60.gcode").exists()
    assert (tmp_path / "rectangle-90x60.path.txt").exists()
    assert (tmp_path / "rectangle-90x60.cfg").exists()
    text = (tmp_path / "rectangle-90x60.gcode").read_text()
    assert "M106" in text and "M42" in text


def test_unknown_material_exits_2(tmp_path, capsys):
    rc = main(["plan", "--shape", "rectangle-90x60", "--material", "unobtainium",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown material" in capsys.readouterr().err


def test_unknown_shape_exits_2(tmp_path):
    rc = main(["plan", "--shape", "pyramid-1x2x3", "--out", str(tmp_path)])
    assert rc == 2


def test_unknown_shape_beside_gcode_exits_2(tmp_path, capsys):
    # the job's shape goes into the written .cfg, which must load again
    prog = tmp_path / "line.gcode"
    prog.write_text("G1 F240\nM106\nG1 X10\nM107\n")
    rc = main(["plan", "--gcode", str(prog), "--shape", "bogus", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown shape id 'bogus'\n"
    assert not (tmp_path / "line.cfg").exists()


def test_gcode_round_trip_identical_path(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["plan", "--shape", "rectangle-90x60", "--out", str(out1)]) == 0
    assert main(["plan", "--gcode", str(out1 / "rectangle-90x60.gcode"),
                 "--out", str(out2)]) == 0
    dump1 = (out1 / "rectangle-90x60.path.txt").read_text()
    dump2 = (out2 / "rectangle-90x60.path.txt").read_text()
    assert dump1 == dump2
    # re-emitted g-code is also byte-stable
    g1 = (out1 / "rectangle-90x60.gcode").read_text()
    g2 = (out2 / "rectangle-90x60.gcode").read_text()
    assert g1 == g2


def test_bad_gcode_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.gcode"
    bad.write_text("G2 X1 Y1 I1 J0\n")
    rc = main(["plan", "--gcode", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    config.ConfigError, shapes.ShapeError, gcode.GcodeError, toolpath.ToolpathError,
    extrusion.ExtrusionError, cure.CureError, cell.PlanningError])
def test_domain_errors_share_one_base(error):
    assert issubclass(error, RamcellError)


def test_extrusion_error_exits_2_without_traceback(tmp_path, capsys):
    cfg_file = tmp_path / "fast.cfg"
    cfg_file.write_text("[job]\nspeed_3d_mm_s = inf\n")
    rc = main(["simulate", "--config", str(cfg_file), "--shape", "wall-20x3",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("section, key, value", [
    ("cell", "collision_dt_s", "0"),
    ("cure", "sweep_dt_s", "0"),
    ("cure", "sweep_dt_s", "1e-300"),
    ("cell", "collision_dt_s", "1e-300"),
    ("job", "resolution_mm", "1e-300"),
    ("job", "layer_height_mm", "0"),
    ("cell", "obstacles", "1,2,x,4,5,6"),
    ("cell", "obstacles", "380,-20,0,nan,20,400"),
    ("job", "speed_3d_mm_s", "inf"),
    ("material:dlp-fs9", "alpha_gel", "1"),
    ("material:dlp-fs9", "attenuation_depth_mm", "0"),
    ("cure", "alpha_min", "nan"),
    ("cell", "capsule_radius_mm", "nan"),
    ("cell", "capsule_length_mm", "nan"),
    ("kinematics", "singular_eps", "nan"),
    ("cell", "max_joint_speed_rad_s", "nan"),
    ("kinematics", "joint_limit_rad", "nan"),
    ("kinematics", "d1_mm", "nan"),
    ("kinematics", "a2_mm", "0"),
    # loads no longer: the closed-form IK solves no target with a2 > 0
    ("kinematics", "a2_mm", "425"),
    ("kinematics", "d6_mm", "inf"),
    ("kinematics", "tcp_offset_z_mm", "nan"),
    ("cell", "origin_x_mm", "nan"),
    ("extrusion", "nozzle_diameter_mm", "nan"),
    ("extrusion", "flow_mm3_s", "nan"),
    ("job", "extension_mm", "nan"),
    ("job", "extension_mm", "1e-300"),
    ("job", "travel_speed_mm_s", "1e-300"),
    ("job", "speed_2d_mm_s", "1e-300"),
    ("job", "speed_3d_mm_s", "1e-300"),
    ("cell", "reorient_rate_rad_s", "1e-300"),
    ("cure", "bead_aspect", "0"),
    ("cure", "max_dwell_s", "-1"),
    ("job", "corner_threshold_deg", "nan"),
    ("uv", "power_w", "nan"),
    ("uv", "standoff_mm", "nan"),
    ("uv", "trail_offset_mm", "inf"),
    ("cure", "c_spread", "nan"),
    ("cure", "crown_fraction", "nan"),
    ("drivetrain", "syringe_bore_mm", "nan"),
    ("drivetrain", "syringe_bore_mm", "1e308"),
    ("kinematics", "a2_mm", "1e308"),
])
def test_bad_config_value_exits_2_naming_the_key(tmp_path, capsys, section, key, value):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"[{section}]\n{key} = {value}\n")
    rc = main(["simulate", "--config", str(cfg_file), "--shape", "wall-20x3",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"[{section}] {key}" in err


# each ran to exit 0 (the first two with printable=1, from a gel dose of
# 0) or past its key before every value was checked once at load
@pytest.mark.parametrize("text, key", [
    ("[material:dlp-fs9]\nalpha_gel = 1e-300\n", "[material:dlp-fs9] alpha_gel"),
    ("[material:dlp-fs9]\ncure_rate_per_j_mm2 = 1e300\nscattering = 1e300\n",
     "[material:dlp-fs9] cure_rate_per_j_mm2"),
    ("[drivetrain]\nsyringe_capacity_ml = 100\n", "[drivetrain] syringe_capacity_ml"),
    ("[extrusion]\nflow_mm3_s = 1e5\n", "[extrusion] flow_mm3_s"),
    ("[uv]\nstandoff_mm = 1e-200\n", "[uv] standoff_mm"),
    ("[job]\nresolution_mm = 7\n", "[job] resolution_mm"),
    ("[DEFAULT]\nresolution_mm = 1e-300\n", "[DEFAULT] resolution_mm"),
    ("[DEFAULT]\nresolution_mm = 1e-300\n[job]\nshape = wall-20x3\n",
     "[DEFAULT] resolution_mm"),
], ids=["gel-dose-0", "cure-rate-overflow", "capacity", "step-rate", "spot-area", "resolution",
        "default", "default-and-job"])
def test_bad_config_exits_2_with_one_error_line_naming_the_key(tmp_path, capsys, text, key):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(text)
    rc = main(["simulate", "--config", str(cfg_file), "--shape", "wall-20x3",
               "--material", "dlp-fs9", "--out", str(tmp_path)])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {cfg_file}: {key} ")


# each loaded before and failed later without the file, or not at all:
# the flags override the job's shape and material after the load
@pytest.mark.parametrize("text, key", [
    ("[job]\nmaterial = nan\n", "[job] material must be one of "),
    ("[job]\nshape = nan\n", "[job] shape: unknown shape id 'nan'"),
    ("[cell]\nobstacles = nan\n", "[cell] obstacles: 'nan': "),
    ("[material:dlp-fs9]\nname = other\n", "[material:dlp-fs9] name is not a key"),
], ids=["material", "shape", "obstacles", "material-name"])
def test_job_obstacle_and_name_keys_fail_at_load_naming_the_file(tmp_path, capsys, text, key):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(text)
    rc = main(["simulate", "--config", str(cfg_file), "--shape", "wall-20x3",
               "--material", "dlp-fs9", "--out", str(tmp_path)])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {cfg_file}: {key}")


def test_gcode_with_several_errors_exits_2_with_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.gcode"
    bad.write_text("G1 X1 X2 F60\nG2 X1\n")
    rc = main(["plan", "--gcode", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: line 1: duplicate axis word X (and 1 more)"]


def test_non_finite_prediction_is_never_printable(tmp_path, capsys, monkeypatch):
    # every config value is checked at load, so no input reaches a NaN
    # prediction any more; force one to check the guard behind the checks
    predict = cure.predict_dimensions
    monkeypatch.setattr(cure, "predict_dimensions",
                        lambda *a: {**predict(*a), "length_mm": math.nan})
    args = ["--shape", "wall-20x3", "--out", str(tmp_path)]
    assert main(["simulate", *args]) == 3
    rep = SimReport.from_text((tmp_path / "wall-20x3.report.txt").read_text())
    assert not rep.printable and rep.hard_failures()
    assert "predicted_length_mm" in rep.non_finite()
    assert main(["emit", "--force", *args]) == 3
    assert not (tmp_path / "wall-20x3.script.txt").exists()
    assert "refused" in capsys.readouterr().err


def test_nan_bore_refuses_to_emit_steps(tmp_path, capsys):
    cfg_file = tmp_path / "bore.cfg"
    cfg_file.write_text("[drivetrain]\nsyringe_bore_mm = nan\n")
    rc = main(["emit", "--config", str(cfg_file), "--shape", "wall-20x3",
               "--out", str(tmp_path)])
    assert rc == 2
    assert not (tmp_path / "wall-20x3.steps.csv").exists()
    assert "[drivetrain] syringe_bore_mm" in capsys.readouterr().err


def test_overflowing_gcode_number_exits_2_naming_the_line(tmp_path, capsys):
    bad = tmp_path / "big.gcode"
    bad.write_text("M106\nG1 X10 F600\nG1 X1e400 F600\n")
    rc = main(["plan", "--gcode", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == ("error: line 3: number out of range in 'X1e400': "
                                          "must be at most 1e+09 in magnitude\n")


@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_gcode_coordinate_above_1e9_exits_2_naming_the_line(tmp_path, capsys, command):
    # Z1e20 once overflowed the toolpath's int64 layer index
    bad = tmp_path / "far.gcode"
    bad.write_text("G1 F60\nM106\nG1 X1 Z1e20\n")
    rc = main([command, "--gcode", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == ("error: line 3: number out of range in 'Z1e20': "
                                          "must be at most 1e+09 in magnitude\n")


def test_simulate_wall_report(tmp_path):
    rc = main(["simulate", "--shape", "wall-50x10", "--material", "dlp-fs9",
               "--out", str(tmp_path)])
    assert rc == 0
    rep = SimReport.from_text((tmp_path / "wall-50x10.report.txt").read_text())
    assert rep.printable
    assert rep.min_dose_ratio >= 0.9
    assert "length_mm" in rep.dimensions and "height_mm" in rep.dimensions


def test_simulate_uv_disabled_flags_undercure(tmp_path):
    cfg_file = tmp_path / "nouv.cfg"
    cfg_file.write_text("[uv]\noptical_efficiency = 0.0\n")
    rc = main(["simulate", "--config", str(cfg_file), "--shape", "square-30x30x8.5",
               "--material", "dlp-fs9", "--out", str(tmp_path)])
    assert rc == 3
    rep = SimReport.from_text((tmp_path / "square-30x30x8.5.report.txt").read_text())
    assert not rep.printable
    assert rep.undercured_count == 1200
    assert rep.min_alpha == 0.0


def test_simulate_reach_failure_recorded(tmp_path):
    cfg_file = tmp_path / "far.cfg"
    cfg_file.write_text("[cell]\norigin_x_mm = 1200.0\n")
    rc = main(["simulate", "--config", str(cfg_file), "--shape", "rectangle-90x60",
               "--out", str(tmp_path)])
    assert rc == 3
    rep = SimReport.from_text((tmp_path / "rectangle-90x60.report.txt").read_text())
    assert rep.reach_failures
    assert not rep.printable


def test_emit_writes_three_files(tmp_path):
    rc = main(["emit", "--shape", "wall-50x10", "--material", "dlp-fs9",
               "--out", str(tmp_path)])
    assert rc == 0
    for suffix in (".script.txt", ".steps.csv", ".io.csv"):
        assert (tmp_path / f"wall-50x10{suffix}").exists()


def test_emit_refused_on_failures(tmp_path, capsys):
    cfg_file = tmp_path / "far.cfg"
    cfg_file.write_text("[cell]\norigin_x_mm = 1200.0\n")
    rc = main(["emit", "--config", str(cfg_file), "--shape", "rectangle-90x60",
               "--out", str(tmp_path)])
    assert rc == 3
    assert not (tmp_path / "rectangle-90x60.script.txt").exists()
    assert not (tmp_path / "rectangle-90x60.steps.csv").exists()
    assert "refused" in capsys.readouterr().err


def test_emit_force_does_not_override_hard_failures(tmp_path):
    cfg_file = tmp_path / "far.cfg"
    cfg_file.write_text("[cell]\norigin_x_mm = 1200.0\n")
    rc = main(["emit", "--config", str(cfg_file), "--shape", "rectangle-90x60",
               "--out", str(tmp_path), "--force"])
    assert rc == 3
    assert not (tmp_path / "rectangle-90x60.script.txt").exists()


def test_emit_force_overrides_undercure(tmp_path):
    cfg_file = tmp_path / "nouv.cfg"
    cfg_file.write_text("[uv]\noptical_efficiency = 0.0\n")
    rc = main(["emit", "--config", str(cfg_file), "--shape", "wall-50x10",
               "--material", "dlp-fs9", "--out", str(tmp_path), "--force"])
    assert rc == 0
    assert (tmp_path / "wall-50x10.script.txt").exists()


def test_emit_deterministic_bytes(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        assert main(["emit", "--shape", "wall-50x10", "--material", "dlp-fs9",
                     "--out", str(out)]) == 0
    for suffix in (".script.txt", ".steps.csv", ".io.csv", ".report.txt"):
        a = (out1 / f"wall-50x10{suffix}").read_bytes()
        b = (out2 / f"wall-50x10{suffix}").read_bytes()
        assert a == b, suffix


def test_report_wall_table(tmp_path, capsys):
    assert main(["simulate", "--shape", "wall-50x10", "--material", "dlp-fs9",
                 "--out", str(tmp_path)]) == 0
    rc = main(["report", str(tmp_path / "wall-50x10.report.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "49.760" in out
    assert "1.270" in out
    assert "11.070" in out
    assert "within" in out
    assert "printable: yes" in out


def test_report_square_rows(tmp_path, capsys):
    assert main(["simulate", "--shape", "square-30x30x8.5", "--material", "dlp-fs9",
                 "--out", str(tmp_path)]) == 0
    rc = main(["report", str(tmp_path / "square-30x30x8.5.report.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    for token in ("length", "width", "height", "32.090", "32.010", "8.620"):
        assert token in out


_HEADER = "dimension            predicted   reference      band   deviation  status"
_DIMENSIONS = {"length_mm": 90.4, "width_mm": 59.75, "height_mm": 0.9, "line_width_mm": 1.21}


@pytest.mark.parametrize("specimen, edit, rows, tail", [
    # nominal sizes for the rectangle's two axes, nothing for the rest
    ("rectangle-90x60", {"min_dose_ratio": 1.5}, [
        "length                  90.400      90.000         -      +0.400  nominal",
        "width                   59.750      60.000         -      -0.250  nominal",
        "height                   0.900           -         -           -  -",
        "line_width               1.210           -         -           -  -"],
     ["min dose ratio: 1.500", "undercured elements: 0", "printable: yes"]),
    # a g-code name has no nominal size (ShapeError) and no study
    ("ramp", {"undercured_count": 3}, [
        "length                  90.400           -         -           -  -",
        "width                   59.750           -         -           -  -",
        "height                   0.900           -         -           -  -",
        "line_width               1.210           -         -           -  -"],
     ["min dose ratio: 0.000", "undercured elements: 3", "printable: no"]),
    # the wall's long axis against the study's width, its across-wall
    # width not shown
    ("wall-50x10", {"singularity_warnings": [(1.5, 2.5)],
                    "dimensions": {**_DIMENSIONS, "length_mm": 52.0, "height_mm": 11.5}}, [
        "width(long axis)        52.000      49.760     1.270      +2.240  OUTSIDE",
        "height                  11.500      11.070     0.860      +0.430  within",
        "line_width               1.210           -         -           -  -"],
     ["min dose ratio: 0.000", "undercured elements: 0",
      "singularity intervals: 1 (consider an additional cure light)", "printable: yes"]),
])
def test_report_summary_lines(tmp_path, capsys, specimen, edit, rows, tail):
    """The exact summary of hand-built reports: one row per dimension,
    '-' where the reference, band or deviation is missing."""
    rep = SimReport(specimen=specimen, material="dlp-fs9", dimensions=dict(_DIMENSIONS))
    for name, value in edit.items():
        setattr(rep, name, value)
    f = tmp_path / f"{specimen}.report.txt"
    f.write_text("\n".join(rep.to_lines()) + "\n")
    assert main(["report", str(f)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"specimen: {specimen} (material dlp-fs9)", _HEADER, *rows, *tail]


def test_report_empty_and_malformed(tmp_path, capsys):
    empty = tmp_path / "empty.report.txt"
    empty.write_text("report_version=1\nspecimen=\n")
    assert main(["report", str(empty)]) == 0
    assert "no specimens" in capsys.readouterr().out
    bad = tmp_path / "bad.report.txt"
    bad.write_text("what even is this")
    assert main(["report", str(bad)]) == 2
    assert main(["report", str(tmp_path / "missing.txt")]) == 2


def test_env_config_fallback(tmp_path, monkeypatch):
    cfg_file = tmp_path / "env.cfg"
    cfg_file.write_text("[job]\nshape = wall-50x10\nmaterial = dlp-fs9\n")
    monkeypatch.setenv("RAMCELL_CONFIG", str(cfg_file))
    rc = main(["plan", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "wall-50x10.gcode").exists()


def test_effective_config_round_trips(tmp_path):
    assert main(["plan", "--shape", "wall-50x10", "--material", "dlp-fs9",
                 "--out", str(tmp_path)]) == 0
    dumped = (tmp_path / "wall-50x10.cfg").read_text()
    cfg = loads_config(dumped)
    assert cfg.job.shape == "wall-50x10"
    assert cfg.job.material == "dlp-fs9"
    assert dump_config(cfg) == dumped
    # replanning from the dumped config reproduces the artifacts exactly
    out2 = tmp_path / "again"
    assert main(["plan", "--config", str(tmp_path / "wall-50x10.cfg"),
                 "--out", str(out2)]) == 0
    assert (out2 / "wall-50x10.gcode").read_bytes() == \
        (tmp_path / "wall-50x10.gcode").read_bytes()
    assert (out2 / "wall-50x10.path.txt").read_bytes() == \
        (tmp_path / "wall-50x10.path.txt").read_bytes()


def test_too_long_collision_check_exits_2(tmp_path, capsys):
    # 1000 s of square at the floor step is 1e7 samples, gigabytes of them
    cfg_file = tmp_path / "fine.cfg"
    cfg_file.write_text("[cell]\ncollision_dt_s = 0.0001\n")
    rc = main(["simulate", "--config", str(cfg_file), "--shape", "square-30x30x8.5",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: collision check of a ") and "more than 2e+06" in err
    assert "[cell] collision_dt_s" in err


@pytest.mark.parametrize("text", [
    b"[job]\nshape = wall-20x3\n[job]\nmaterial = dlp-fs9\n",
    b"[job]\nshape = wall-20x3\nshape = wall-50x10\n",
    b"[job]\nshape wall-20x3\n",
    b"shape = wall-20x3\n",
    b"[job]\nresolution_mm = %(x)s\n",
    b"[meta]\nschema_version = x\n",
    b"[job]\nmaterial = dlp-fs9 \xff\n",
], ids=["duplicate-section", "duplicate-option", "no-equals", "no-section", "percent",
        "schema-version", "not-utf8"])
def test_malformed_config_file_exits_2_naming_it(tmp_path, capsys, text):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_bytes(text)
    rc = main(["simulate", "--config", str(cfg_file), "--shape", "wall-20x3",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(cfg_file) in err


def test_gcode_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    bad = tmp_path / "latin1.gcode"
    bad.write_bytes("; caf\xe9\nG1 X10 F600\n".encode("latin-1"))
    assert main(["plan", "--gcode", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err


def test_report_missing_a_counted_entry_exits_2(tmp_path, capsys):
    short = tmp_path / "short.report.txt"
    short.write_text("report_version=1\nspecimen=wall-20x3\ncollision_count=1\n")
    assert main(["report", str(short)]) == 2
    assert capsys.readouterr().err == "cannot read report: report has no collision_0\n"


@pytest.mark.parametrize("lines, err", [
    ("collision_count=-1\ncollision_0=1.000000:table\n",
     "report's collision_count=-1 is not a non-negative integer"),
    ("collision_count=0\ncollision_0=1.000000:table\n",
     "report has collision_0 but collision_count=0"),
    ("undercured_count=-1\n", "report's undercured_count=-1 is not a non-negative integer"),
    ("undercured_count=1\nundercured_0=0.1:1:2:3\nundercured_1=0.2:1:2:3\n",
     "report has undercured_1 but undercured_count=1")])
def test_report_count_that_disagrees_with_its_entries_exits_2(tmp_path, capsys, lines, err):
    bad = tmp_path / "bad.report.txt"
    bad.write_text("report_version=1\nspecimen=wall-20x3\n" + lines)
    assert main(["report", str(bad)]) == 2
    assert capsys.readouterr() == ("", f"cannot read report: {err}\n")


@pytest.mark.parametrize("old, new, err", [
    # a printable= line that the findings read back contradict
    ("undercured_count=0\n",
     "undercured_count=2\nundercured_0=0.1:1:2:3\nundercured_1=0.2:1:2:3\n",
     "report's printable=1 disagrees with its findings (printable=0)"),
    ("printable=1\n", "printable=0\n",
     "report's printable=0 disagrees with its findings (printable=1)"),
    # a key written twice
    ("material=", "specimen=rectangle-90x60\nmaterial=", "report has specimen twice")])
def test_report_that_contradicts_itself_exits_2(tmp_path, capsys, old, new, err):
    assert main(["simulate", "--shape", "wall-20x3", "--out", str(tmp_path)]) == 0
    f = tmp_path / "wall-20x3.report.txt"
    text = f.read_text()
    assert text.count(old) == 1
    f.write_text(text.replace(old, new))
    capsys.readouterr()
    assert main(["report", str(f)]) == 2
    assert capsys.readouterr() == ("", f"cannot read report: {err}\n")


def test_report_without_a_printable_line_reads_its_findings(tmp_path, capsys):
    assert main(["simulate", "--shape", "wall-20x3", "--out", str(tmp_path)]) == 0
    f = tmp_path / "wall-20x3.report.txt"
    f.write_text(f.read_text().replace("printable=1\n", "").replace(
        "undercured_count=0\n", "undercured_count=1\n"))
    capsys.readouterr()
    assert main(["report", str(f)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["undercured elements: 1",
                                                         "printable: no"]


def test_report_short_entry_exits_2_naming_it(tmp_path, capsys):
    short = tmp_path / "short.report.txt"
    short.write_text("report_version=1\nspecimen=wall-20x3\nreach_failure_count=1\n"
                     "reach_failure_0=1.0:2.0:3.0\n")
    assert main(["report", str(short)]) == 2
    assert capsys.readouterr().err == ("cannot read report: report's reach_failure_0 "
                                       "has 3 of 4 fields\n")


def test_percent_in_a_value_is_literal_and_round_trips(tmp_path):
    out = tmp_path / "o%1"
    assert main(["plan", "--shape", "wall-20x3", "--out", str(out)]) == 0
    assert loads_config((out / "wall-20x3.cfg").read_text()).job.out_dir == str(out)
    assert main(["simulate", "--config", str(out / "wall-20x3.cfg")]) == 0
    assert (out / "wall-20x3.report.txt").exists()

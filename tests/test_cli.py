import pytest

from ramcell import (RamcellError, cell, config, cure, extrusion, gcode, kinematics,
                     shapes, toolpath)
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
    extrusion.ExtrusionError, cure.CureError, kinematics.UnreachableError,
    cell.PlanningError])
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


def test_non_finite_prediction_is_never_printable(tmp_path, capsys):
    cfg_file = tmp_path / "nanflow.cfg"
    cfg_file.write_text("[extrusion]\nflow_mm3_s = nan\n")
    args = ["--config", str(cfg_file), "--shape", "wall-20x3", "--out", str(tmp_path)]
    assert main(["simulate", *args]) == 3
    rep = SimReport.from_text((tmp_path / "wall-20x3.report.txt").read_text())
    assert not rep.printable and rep.hard_failures()
    assert "predicted_length_mm" in rep.non_finite()
    assert main(["emit", "--force", *args]) == 3
    assert not (tmp_path / "wall-20x3.script.txt").exists()
    assert "refused" in capsys.readouterr().err


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

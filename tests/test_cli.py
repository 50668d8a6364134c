import json
import math

import numpy as np
import pytest

import trajrot as tr
from trajrot.cli import main, to_json

from conftest import circle3d


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_circle_csv(path, n=801, plane="xy", center=(0, 0, 0), phase=0.0):
    tr.curve_to_csv(circle3d(n=n, plane=plane, center=center, phase=phase),
                    str(path))


def test_integrate_spiral_csv(tmp_path, capsys):
    out = tmp_path / "spiral.csv"
    code, _, err = run_cli(capsys, "integrate", "--field", "spiral2d",
                           "--x0", "0.5,0", "--t0", "0", "--t1", "10",
                           "--out", str(out))
    assert code == 0, err
    c = tr.curve_from_csv(str(out))
    assert np.all(np.diff(c.t) > 0)
    r = float(np.linalg.norm(c.x[-1]))
    assert 0.0 < r < 0.5


def test_integrate_constant_endpoint(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, _, _ = run_cli(capsys, "integrate", "--field", "constant:1,0,0",
                         "--x0", "0,0,0", "--t1", "1", "--out", str(out))
    assert code == 0
    c = tr.curve_from_csv(str(out))
    assert np.allclose(c.t[-1], 1.0)
    assert np.allclose(c.x[-1], [1.0, 0.0, 0.0], atol=1e-9)


def test_integrate_bad_window_exit2(capsys):
    code, _, err = run_cli(capsys, "integrate", "--field", "spiral2d",
                           "--x0", "0.5,0", "--t0", "1", "--t1", "0")
    assert code == 2
    assert "t1 must exceed t0" in err


def test_integrate_numerical_failure_exit3(capsys):
    code, _, err = run_cli(capsys, "integrate", "--field",
                           "linear:-1e16,0,0,-1e16", "--x0", "1,1",
                           "--t1", "1")
    assert code == 3
    assert "StepUnderflow" in err


def test_integrate_field_overflow_exit3(capsys):
    with np.errstate(all="ignore"):
        code, _, err = run_cli(capsys, "integrate", "--field", "spiral2d",
                               "--x0", "1e103,0", "--t1", "1")
    assert code == 3
    assert "StepUnderflow" in err


def test_rotate_signed_circle(tmp_path, capsys):
    th = np.linspace(0, 2 * math.pi, 801)
    c = tr.Curve(np.linspace(0, 1, 801),
                 np.stack([np.cos(th), np.sin(th)], axis=1), closed=True)
    path = tmp_path / "circle.csv"
    tr.curve_to_csv(c, str(path))
    code, out, _ = run_cli(capsys, "rotate", "--curve", str(path),
                           "--point", "0,0", "--mode", "signed")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 1.0) < 1e-9
    assert payload["convention"] == "signed_turns"


def test_rotate_twist_line(tmp_path, capsys):
    c = tr.twist_invariant_curve(0.05, 0.2)
    path = tmp_path / "twist.csv"
    tr.curve_to_csv(c, str(path))
    code, out, _ = run_cli(capsys, "rotate", "--curve", str(path),
                           "--line", "0,0,0,1,0,0", "--mode", "abs",
                           "--guard", "0")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 15.0) / 15.0 < 0.01


def test_rotate_guard_violation_exit2(tmp_path, capsys):
    c = tr.Curve([0, 1, 2], [[-1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    path = tmp_path / "c.csv"
    tr.curve_to_csv(c, str(path))
    code, _, err = run_cli(capsys, "rotate", "--curve", str(path),
                           "--point", "0,0", "--mode", "abs")
    assert code == 2
    assert "DistanceTooSmall" in err


def test_link_hopf(tmp_path, capsys):
    p1, p2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    write_circle_csv(p1)
    write_circle_csv(p2, plane="xz", center=(1, 0, 0), phase=0.37)
    code, out, _ = run_cli(capsys, "link", "--curve1", str(p1),
                           "--curve2", str(p2))
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["nearest_integer"]) == 1
    assert payload["residual"] < 0.02


def test_link_separated_zero(tmp_path, capsys):
    p1, p2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    write_circle_csv(p1)
    write_circle_csv(p2, center=(3, 0, 0))
    code, out, _ = run_cli(capsys, "link", "--curve1", str(p1),
                           "--curve2", str(p2))
    assert code == 0
    assert json.loads(out)["nearest_integer"] == 0


def test_link_overlapping_exit2(tmp_path, capsys):
    p1, p2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    write_circle_csv(p1)
    write_circle_csv(p2, phase=0.005)
    code, _, err = run_cli(capsys, "link", "--curve1", str(p1),
                           "--curve2", str(p2))
    assert code == 2
    assert "CurvesTooClose" in err


def test_link_pair_budget_exit3(tmp_path, capsys):
    # two cheap 40001-sample lines: 1.6e9 segment pairs, over the budget
    t = np.linspace(0.0, 1.0, 40_001)
    paths = []
    for k in range(2):
        path = tmp_path / f"line{k}.csv"
        np.savetxt(path, np.stack([t, t, 0 * t + k, 0 * t], axis=1),
                   delimiter=",", header="t,x1,x2,x3", comments="")
        paths.append(str(path))
    code, _, err = run_cli(capsys, "link", "--curve1", paths[0],
                           "--curve2", paths[1], "--mode", "signed")
    assert code == 3
    assert "SampleBudgetExceeded" in err


def test_crofton_constants_command(capsys):
    code, out, _ = run_cli(capsys, "crofton", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["C_n"] - 8 * math.pi) < 1e-12


def test_crofton_estimate_command(tmp_path, capsys):
    th = np.linspace(0, 2 * math.pi, 801)
    c = tr.Curve(np.linspace(0, 1, 801),
                 np.stack([np.cos(th), np.sin(th), np.zeros_like(th)],
                          axis=1), closed=True)
    path = tmp_path / "gc.csv"
    tr.curve_to_csv(c, str(path))
    code, out, _ = run_cli(capsys, "crofton", "--curve", str(path),
                           "-m", "2000", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["estimate"] - 2 * math.pi) <= 4 * payload["stderr"] + 1e-9


def test_witness_command(tmp_path, capsys):
    t = np.linspace(0, 1, 3001)
    phi = 10 * math.pi * t
    c = tr.Curve(t, np.stack([np.cos(phi), np.sin(phi)], axis=1), closed=True)
    path = tmp_path / "loop.csv"
    tr.curve_to_csv(c, str(path))
    code, out, _ = run_cli(capsys, "witness", "--curve", str(path),
                           "--kind", "circle", "--theta", "4.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["v_proj_1"] * payload["v_proj_2"] < 0


def test_witness_precondition_exit2(tmp_path, capsys):
    t = np.linspace(0, 1, 301)
    phi = 2 * math.pi * t
    c = tr.Curve(t, np.stack([np.cos(phi), np.sin(phi)], axis=1), closed=True)
    path = tmp_path / "short.csv"
    tr.curve_to_csv(c, str(path))
    code, _, err = run_cli(capsys, "witness", "--curve", str(path),
                           "--kind", "circle", "--theta", "5")
    assert code == 2
    assert "PreconditionLength" in err


def test_witness_coarse_loop_exit0(tmp_path, capsys):
    # 12 samples over 4.6 turns: the best pair is antipodal and also within
    # the coinciding-position tolerance
    t = np.linspace(0, 4.6, 12)
    phi = 2 * math.pi * t
    c = tr.Curve(t, np.stack([np.cos(phi), np.sin(phi)], axis=1))
    path = tmp_path / "coarse.csv"
    tr.curve_to_csv(c, str(path))
    code, out, err = run_cli(capsys, "witness", "--curve", str(path),
                             "--kind", "circle", "--theta", "4.5")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["relation"] == "antipodal"
    assert payload["v_proj_1"] * payload["v_proj_2"] < 0


def test_witness_json_reports_match_tol(tmp_path, capsys):
    t = np.linspace(0, 1, 3001)
    phi = 10 * math.pi * t
    c = tr.Curve(t, np.stack([np.cos(phi), np.sin(phi)], axis=1), closed=True)
    path = tmp_path / "loop.csv"
    tr.curve_to_csv(c, str(path))
    code, out, _ = run_cli(capsys, "witness", "--curve", str(path),
                           "--kind", "circle", "--theta", "4.5")
    assert code == 0
    assert json.loads(out)["match_tol"] == 2 * math.pi / math.sqrt(3001)


def test_witness_zero_trials_exit2(tmp_path, capsys):
    t = np.linspace(0, 1, 2001)
    phi = 12 * math.pi * t
    c = tr.Curve(t, np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)],
                             axis=1), closed=True)
    path = tmp_path / "equator.csv"
    tr.curve_to_csv(c, str(path))
    code, out, err = run_cli(capsys, "witness", "--curve", str(path),
                             "--kind", "equator", "--theta", "4.5",
                             "--trials", "0")
    assert code == 2
    assert out == ""
    assert "ValueError" in err and "trials" in err


def test_missing_input_file_exit2(tmp_path, capsys):
    missing = tmp_path / "absent.csv"
    code, out, err = run_cli(capsys, "rotate", "--curve", str(missing),
                             "--point", "0,0")
    assert code == 2
    assert out == ""
    assert err.startswith("FileNotFoundError: ")


def test_crofton_needs_exactly_one_of_curve_and_n(tmp_path, capsys):
    path = tmp_path / "gc.csv"
    write_circle_csv(path)
    for argv in (["crofton"], ["crofton", "--curve", str(path), "--n", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_sink_pair(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scenario", "sink-pair",
                           "--theorem", "thm3_8")
    assert code == 0
    payload = json.loads(out)
    assert payload["satisfied"] is True
    assert payload["theorem_id"] == "thm3_8"


def test_verify_twist_line_not_invariant(capsys):
    code, _, err = run_cli(capsys, "verify", "--scenario", "twist-line",
                           "--theorem", "prop3_2")
    assert code == 2
    assert "NotInvariant" in err


def test_verify_unknown_theorem_exit2(capsys):
    code, _, err = run_cli(capsys, "verify", "--scenario", "sink-pair",
                           "--theorem", "thm9_99")
    assert code == 2
    # no check emits thm3_9
    code, _, err = run_cli(capsys, "verify", "--scenario", "sink-pair",
                           "--theorem", "thm3_9")
    assert code == 2
    assert "unknown theorem id 'thm3_9'" in err


def test_verify_uncovered_theorem_exit2(capsys):
    code, out, err = run_cli(capsys, "verify", "--scenario", "spiral-point",
                             "--theorem", "thm3_8")
    assert code == 2 and out == ""
    assert err == "ValueError: scenario spiral-point does not cover thm3_8\n"


def test_paper_repro_rejects_seed(tmp_path, capsys):
    # paper-repro has no stochastic step, so it takes no --seed
    with pytest.raises(SystemExit) as exc:
        main(["paper-repro", "--out", str(tmp_path), "--seed", "1"])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_rerun_byte_identical(tmp_path, capsys):
    th = np.linspace(0, 2 * math.pi, 401)
    c = tr.Curve(np.linspace(0, 1, 401),
                 np.stack([np.cos(th), np.sin(th)], axis=1), closed=True)
    path = tmp_path / "c.csv"
    tr.curve_to_csv(c, str(path))
    _, out1, _ = run_cli(capsys, "rotate", "--curve", str(path),
                         "--point", "0.2,0.1", "--mode", "abs")
    _, out2, _ = run_cli(capsys, "rotate", "--curve", str(path),
                         "--point", "0.2,0.1", "--mode", "abs")
    assert out1 == out2


def test_roundtrip_matches_library(tmp_path, capsys):
    out = tmp_path / "sp.csv"
    run_cli(capsys, "integrate", "--field", "spiral2d", "--x0", "0.5,0",
            "--t1", "5", "--rel-tol", "1e-10", "--abs-tol", "1e-12",
            "--chord-tol", "1e-5", "--obs-center", "0,0", "--out", str(out))
    code, out_json, _ = run_cli(capsys, "rotate", "--curve", str(out),
                                "--point", "0,0", "--mode", "abs")
    assert code == 0
    via_cli = json.loads(out_json)["value"]
    cfg = tr.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, chord_tol=1e-5)
    traj = tr.integrate_trajectory(tr.spiral2d(), np.array([0.5, 0.0]), 0.0,
                                   5.0, cfg, obs_centers=[np.zeros(2)])
    direct = tr.absolute_rotation_point(traj, np.zeros(2)).value
    assert via_cli == direct


def test_config_file_defaults(tmp_path, capsys):
    conf = tmp_path / "conf.txt"
    conf.write_text("rel_tol=1e-10\nabs_tol=1e-12\nchord_tol=1e-4\n")
    out = tmp_path / "c.csv"
    code, _, _ = run_cli(capsys, "integrate", "--field", "constant:1,0",
                         "--x0", "0,0", "--t1", "1", "--config", str(conf),
                         "--out", str(out))
    assert code == 0


def test_flags_override_config(tmp_path, capsys):
    sink = "linear:-1,0,0,0,-1,-2,0,2,-1"
    conf = tmp_path / "conf.txt"
    conf.write_text("max_samples=50\nchord_tol=1e-7\n")
    out = tmp_path / "c.csv"
    code, _, err = run_cli(capsys, "integrate", "--field", sink,
                           "--x0", "1,1,0", "--t1", "3",
                           "--config", str(conf), "--out", str(out))
    assert code == 3 and "SampleBudgetExceeded" in err
    code, _, _ = run_cli(capsys, "integrate", "--field", sink,
                         "--x0", "1,1,0", "--t1", "3",
                         "--config", str(conf),
                         "--max-samples", "100000", "--out", str(out))
    assert code == 0


@pytest.mark.parametrize("line", ["reltol=1e-3", "max-step=0.5"])
def test_config_unknown_key_exit2(tmp_path, capsys, line):
    conf = tmp_path / "conf.txt"
    conf.write_text(f"rel_tol=1e-10\n{line}\n")
    out = tmp_path / "c.csv"
    code, _, err = run_cli(capsys, "integrate", "--field", "spiral2d",
                           "--x0", "0.5,0", "--t1", "1", "--config", str(conf),
                           "--out", str(out))
    assert code == 2
    assert repr(line.partition("=")[0]) in err
    assert not out.exists()


def test_rotate_non_finite_line_exit2(tmp_path, capsys):
    path = tmp_path / "c.csv"
    write_circle_csv(path)
    code, out, err = run_cli(capsys, "rotate", "--curve", str(path),
                             "--line", "0,0,0,nan,0,0")
    assert code == 2 and out == ""
    assert "must be finite" in err


def test_rotate_subspace_flag(tmp_path, capsys):
    t = np.linspace(0.0, 6 * math.pi, 800)
    helix = tr.Curve(t, np.stack([np.cos(t), np.sin(t), 0.15 * t], axis=1))
    path = tmp_path / "h.csv"
    tr.curve_to_csv(helix, str(path))
    code, out, _ = run_cli(capsys, "rotate", "--curve", str(path),
                           "--subspace", "0,0,0;0,0,1", "--mode", "signed")
    assert code == 0
    assert abs(json.loads(out)["value"] - 3.0) < 1e-9


def test_json_formatter_fixed_digits():
    s = to_json({"v": 1.0 / 3.0, "i": 3, "flag": True, "none": None,
                 "arr": [1.5]})
    assert "0.33333333333333331" in s
    assert json.loads(s) == {"v": 1.0 / 3.0, "i": 3, "flag": True,
                             "none": None, "arr": [1.5]}


def test_paper_repro_artifacts(tmp_path, capsys):
    outdir = tmp_path / "repro"
    code, out, err = run_cli(capsys, "paper-repro", "--out", str(outdir))
    assert code == 0, err
    summary = json.loads((outdir / "summary.json").read_text())
    assert abs(summary["circle_line_linking_turns"]["value"] - 1.0) < 1e-3
    spiral_rows = summary["spiral_unit_rate_rows"]
    assert abs(spiral_rows[-1]["rotation_rad"] - 10.0) / 10.0 < 1e-3
    rows = {r["a"]: r for r in summary["twist_blowup_rows"]}
    assert abs(rows[0.05]["rotation_rad"] - 15.0) / 15.0 < 0.01
    assert abs(rows[0.025]["rotation_rad"] - 35.0) / 35.0 < 0.01
    assert all(r["elapsed_time"] < 0.2 for r in summary["twist_blowup_rows"])
    assert abs(summary["twist_pair_mutual_turns"]["signed"]["value"]) < 1e-4
    growth = [r["measured_turns"] for r in summary["sink_log_growth_rows"]]
    assert growth == sorted(growth)


def test_paper_repro_rerun_byte_identical(tmp_path, capsys):
    outputs = []
    for name in ("a", "b"):
        code, out, err = run_cli(capsys, "paper-repro", "--out",
                                 str(tmp_path / name))
        assert code == 0, err
        files = sorted(p.name for p in (tmp_path / name).iterdir())
        outputs.append((out.replace(str(tmp_path / name), "OUT"), files,
                        [(tmp_path / name / f).read_bytes() for f in files]))
    assert outputs[0] == outputs[1]

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyploop
from hyploop import cli, euclidean, fields, melnikov
from hyploop.cli import main, to_json
from hyploop.errors import DegenerateLoop, HyploopError
from hyploop.fields import PlaneBox, RegionBox
from hyploop.loops import Loop, reference_loop, save_loop

QUADRATIC = "z1^2 + (z2-2)^2"


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestJsonFormat:
    def test_floats_are_17_significant_digits(self):
        text = to_json({"x": 1 / 3})
        assert "0.33333333333333331" in text

    def test_non_finite_floats_are_null(self):
        text = to_json({"a": np.inf, "b": [-np.inf, np.nan, 1.5], "c": np.float64("nan")})
        assert json.loads(text, parse_constant=reject_constant) == {
            "a": None, "b": [None, None, 1.5], "c": None,
        }

    def test_round_trips_through_json(self):
        payload = {"a": [1.0, np.pi, True, None], "b": {"c": 7}}
        again = json.loads(to_json(payload))
        assert again["a"][1] == np.pi
        assert again["b"]["c"] == 7


class TestMelnikovCommand:
    def test_constant_field_exits_blocked(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "melnikov", "--k", "2", "--field", "1",
            "--box", "-1,1,1,3", "--grid", "8", "--out", str(tmp_path / "m.csv"),
        )
        assert code == 2
        report = json.loads(out)
        assert report["points"] == []
        assert "constant" in report["note"]

    @pytest.mark.parametrize("command", [
        ("melnikov", "--box", "-0.6,0.6,1.2,2.8"),
        ("solve", "--eps", "0.01", "--box", "-0.6,0.6,1.2,2.8"),
        ("euclid", "solve", "--eps", "0.01", "--box", "-0.6,0.6,1.4,2.6"),
    ])
    def test_large_constant_field_has_no_critical_point(self, capsys, tmp_path, command):
        # the rounding scale of F = 1e6 * area must not hide that grad F is 0
        code, _, err = run(capsys, *command, "--k", "2", "--field", "1e6", "--grid", "8",
                           "--out", str(tmp_path / "out.csv"))
        assert code == 2
        assert err == "no critical point: F constant, no critical point\n"

    def test_quadratic_writes_grid_and_points(self, capsys, tmp_path):
        out_csv = tmp_path / "m.csv"
        code, out, err = run(
            capsys, "melnikov", "--k", "2", "--field", QUADRATIC,
            "--box", "-0.6,0.6,1.2,2.8", "--grid", "8", "--out", str(out_csv),
        )
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "hyploop/1"
        assert len(report["points"]) == 1
        assert report["points"][0]["classification"] == "min"
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "z1,z2,F,dF1,dF2"
        assert len(lines) == 1 + 8 * 8

    def test_deterministic_output(self, capsys, tmp_path):
        args = (
            "melnikov", "--k", "2", "--field", QUADRATIC,
            "--box", "-0.6,0.6,1.2,2.8", "--grid", "6",
        )
        code1, out1, _ = run(capsys, *args, "--out", str(tmp_path / "a.csv"))
        code2, out2, _ = run(capsys, *args, "--out", str(tmp_path / "b.csv"))
        assert code1 == code2 == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert out1.replace("a.csv", "b.csv") == out2

    def test_unresolved_gradient_quadrature_exits_4(self, capsys, tmp_path):
        # F has its minimum on z1 = 0.3, the kink of K: every boundary circle
        # that crosses it gives a kinked integrand, whose trapezoid error
        # decays only like nb**-2, so the scan fails instead of finding no zero
        out_csv = tmp_path / "m.csv"
        code, out, err = run(
            capsys, "melnikov", "--k", "2", "--field", "abs(z1 - 0.3) + (z2-2)^2",
            "--box", "-0.6,0.6,1.2,2.8", "--grid", "12", "--out", str(out_csv),
        )
        assert code == 4 and out == "" and not out_csv.exists()
        assert err.count("\n") == 1
        assert err.startswith(
            "hyploop: numerical failure: QuadratureFailure: gradient quadrature unresolved at center"
        )

    @pytest.mark.parametrize(
        "command,module,value_name,grad_name,box",
        [
            (("melnikov",), melnikov, "melnikov_grid", "melnikov_gradient_grid",
             RegionBox(-0.6, 0.6, 1.2, 2.8)),
            (("euclid", "melnikov"), euclidean, "melnikov_grid_euclid",
             "melnikov_gradient_grid_euclid", PlaneBox(-0.6, 0.6, 1.4, 2.6)),
        ],
    )
    def test_csv_is_the_search_grid_evaluated_once(
        self, capsys, tmp_path, monkeypatch, command, module, value_name, grad_name, box,
    ):
        value_grid, grad_grid = getattr(module, value_name), getattr(module, grad_name)
        calls = {"value": [], "gradient": []}

        def counted(kind, fn):
            def wrapper(z1, z2, *args, **kwargs):
                calls[kind].append(list(zip(np.ravel(z1), np.ravel(z2))))
                return fn(z1, z2, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(module, value_name, counted("value", value_grid))
        monkeypatch.setattr(module, grad_name, counted("gradient", grad_grid))
        out_csv = tmp_path / "m.csv"
        box_text = f"{box.z1min},{box.z1max},{box.z2min},{box.z2max}"
        code, _, _ = run(capsys, *command, "--k", "2", "--field", QUADRATIC,
                         "--box", box_text, "--grid", "8", "--out", str(out_csv))
        assert code == 0

        g1, g2 = box.grid(8)  # no node at the critical point
        z1, z2 = g1.ravel(), g2.ravel()
        rows = np.loadtxt(out_csv, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 0], z1) and np.array_equal(rows[:, 1], z2)
        assert np.array_equal(rows[:, 2], value_grid(z1, z2, 2.0, QUADRATIC))
        d1, d2 = grad_grid(z1, z2, 2.0, QUADRATIC)
        assert np.array_equal(rows[:, 3], d1) and np.array_equal(rows[:, 4], d2)

        centers = list(zip(z1, z2))
        values = [c for call in calls["value"] for c in call]
        assert all(values.count(c) == 1 for c in centers)
        # the grid is one call, the scan; every other call is one Newton iterate
        # on five centers: a point z and its four neighbours z +- h e_i
        scan, *newton = calls["gradient"]
        assert scan == centers and newton
        for call in newton:
            (a, b), h = call[0], 1e-5 * max(1.0, np.hypot(*call[0]))
            assert call == [(a, b), (a + h, b), (a, b + h), (a - h, b), (a, b - h)]
        assert all(len(call) == 1 for call in calls["value"][1:])


class TestKernelCommand:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "kernel", "--k", "2", "--n-samples", "64")
        assert code == 0
        report = json.loads(out)
        assert report["dimension"] == 3
        assert report["sigma_min_nonzero"] > 0
        zero_modes = {row["n"]: row["zeros"] for row in report["per_mode"] if row["zeros"]}
        assert zero_modes == {"0": 1, "1": 2} or zero_modes == {0: 1, 1: 2}

    @pytest.mark.parametrize("error", [DegenerateLoop, HyploopError])
    def test_every_numerical_error_exits_4_with_the_prefix(self, capsys, monkeypatch, error):
        def failing(k, n):
            raise error("boom")

        monkeypatch.setattr(cli, "kernel_report", failing)
        code, out, err = run(capsys, "kernel", "--k", "2")
        assert (code, out) == (4, "")
        assert err == f"hyploop: numerical failure: {error.__name__}: boom\n"


class TestSolveVerifyRoundTrip:
    def test_solve_then_verify(self, capsys, tmp_path):
        loop_csv = tmp_path / "loop.csv"
        code, out, _ = run(
            capsys, "solve", "--k", "2", "--eps", "0.01", "--field", QUADRATIC,
            "--box", "-0.6,0.6,1.2,2.8", "--grid", "8", "--n-samples", "128",
            "--out", str(loop_csv),
        )
        assert code == 0
        report = json.loads(out)
        assert report["mu"] == 1 and report["embedded"]
        assert report["defects"]["curvature_defect"] < 1e-8
        assert loop_csv.exists() and (tmp_path / "loop.json").exists()

        code, out1, _ = run(capsys, "verify", "--in", str(loop_csv), "--k", "2")
        assert code == 0
        code, out2, _ = run(capsys, "verify", "--in", str(loop_csv), "--k", "2")
        assert out1 == out2  # reload re-verifies to identical defects
        verified = json.loads(out1)
        assert verified["eps"] == 0.01  # sidecar metadata supplied eps and field
        assert verified["defects"]["curvature_defect"] < 1e-8

    def test_solve_at_k_1_3(self, capsys, tmp_path):
        # the raw residual floor of the k = 1.3 circle lies above REDUCE_TOL at N = 256
        code, out, _ = run(
            capsys, "solve", "--k", "1.3", "--eps", "0.01", "--field", QUADRATIC,
            "--box", "-0.6,0.6,1.2,2.8", "--grid", "12", "--out", str(tmp_path / "loop.csv"),
        )
        assert code == 0
        report = json.loads(out)
        assert report["mu"] == 1 and report["embedded"]
        assert report["defects"]["curvature_defect"] < 1e-10

    def test_reduce_agrees_across_fine_resolutions(self, capsys):
        thetas = []
        for n in ("512", "1024", "2048"):
            code, out, _ = run(
                capsys, "reduce", "--k", "2", "--eps", "0.01", "--field", QUADRATIC,
                "--z", "0,2", "--n-samples", n,
            )
            assert code == 0
            thetas.append(json.loads(out)["theta"][1])
        assert thetas[0] == pytest.approx(-4.1493883889e-4, abs=1e-14)
        assert max(thetas) - min(thetas) < 1e-12

    def test_verify_degenerate_loop_exits_4_with_valid_json(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        save_loop(path, Loop(np.tile([0.0, 1.0], (64, 1))), {"k": 2.0})
        code, out, err = run(capsys, "verify", "--in", str(path), "--k", "2")
        assert code == 4
        report = json.loads(out, parse_constant=reject_constant)
        defects = report["defects"]
        assert defects["residual_sup"] is None and defects["speed_defect"] is None
        assert defects["curvature_defect"] is None and defects["killing"] == [None] * 3
        assert not defects["embedded"]
        assert len(err.strip().splitlines()) == 1 and "degenerate" in err

    def test_verify_non_finite_field_is_not_a_degenerate_loop(self, capsys, tmp_path):
        # K is NaN on the loop; the loop itself is a regular, embedded circle
        path = tmp_path / "loop.csv"
        save_loop(path, reference_loop(2.0, 64), {"k": 2.0, "eps": 0.0})
        code, out, err = run(capsys, "verify", "--in", str(path), "--k", "2", "--eps", "0.01",
                             "--field", "z1^2 + exp(1000*z2) - exp(1000*z2)")
        assert code == 4
        defects = json.loads(out, parse_constant=reject_constant)["defects"]
        assert defects["residual_sup"] is None and defects["curvature_defect"] is None
        assert defects["speed_defect"] < 1e-12 and defects["mu"] == 1 and defects["embedded"]
        assert err == ("hyploop: numerical failure: K is not finite on the loop; "
                       "the residual and curvature defects are null\n")

    @pytest.fixture
    def loop_file(self, tmp_path):
        path = tmp_path / "loop.csv"
        save_loop(path, reference_loop(2.0, 64), {"k": 2.0, "eps": 0.0})
        return path

    def _verify_exits_3(self, capsys, path):
        code, out, err = run(capsys, "verify", "--in", str(path), "--k", "2")
        assert code == 3 and out == ""
        assert "config error" in err
        return err

    @pytest.mark.parametrize("rows", [32, 39])
    def test_verify_rejects_truncated_loop(self, capsys, loop_file, rows):
        lines = loop_file.read_text().splitlines(keepends=True)
        loop_file.write_text("".join(lines[: 1 + rows]))
        assert "sidecar says N = 64" in self._verify_exits_3(capsys, loop_file)

    def test_verify_rejects_bad_j_column(self, capsys, loop_file):
        lines = loop_file.read_text().splitlines(keepends=True)
        lines[5] = lines[4]  # j = 3 twice, j = 4 missing
        loop_file.write_text("".join(lines))
        assert "0..63" in self._verify_exits_3(capsys, loop_file)

    def test_verify_rejects_malformed_csv(self, capsys, loop_file):
        loop_file.write_text(loop_file.read_text().replace("\n3,", "\n3,x,", 1))
        self._verify_exits_3(capsys, loop_file)

    def test_verify_rejects_missing_file(self, capsys, tmp_path):
        self._verify_exits_3(capsys, tmp_path / "absent.csv")

    def test_verify_rejects_unparsable_sidecar(self, capsys, loop_file):
        loop_file.with_suffix(".json").write_text('{"k": 2.0, "N": ')
        self._verify_exits_3(capsys, loop_file)

    def test_verify_rejects_loop_below_the_axis(self, capsys, tmp_path):
        path = tmp_path / "low.csv"
        save_loop(path, reference_loop(2.0, 64) - [0.0, 1.0], {"k": 2.0})
        assert "half-plane" in self._verify_exits_3(capsys, path)

    @pytest.mark.parametrize("column", [3, 4])  # u1, u2
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_verify_rejects_a_non_finite_sample(self, capsys, loop_file, column, value):
        lines = loop_file.read_text().splitlines(keepends=True)
        row = lines[6].split(",")
        row[column] = value + ("\n" if column == 4 else "")
        lines[6] = ",".join(row)
        loop_file.write_text("".join(lines))
        err = self._verify_exits_3(capsys, loop_file)
        assert err.count("\n") == 1
        assert err.startswith(f"hyploop: config error: cannot read loop {str(loop_file)!r}: ")
        assert "not finite" in err

    @pytest.mark.parametrize("sidecar,message", [
        ({"field": 3}, "config key 'field' must be text, got 3"),
        ({"field": "z1", "eps": True}, "sidecar eps must be comma-separated numbers, got True"),
        ({"field": "z1", "eps": "nan"}, "sidecar eps must be finite, got 'nan'"),
    ])
    def test_verify_reads_the_sidecar_by_the_setting_rules(self, capsys, loop_file, sidecar,
                                                            message):
        loop_file.with_suffix(".json").write_text(json.dumps({"k": 2.0, "N": 64, **sidecar}))
        code, out, err = run(capsys, "verify", "--in", str(loop_file), "--k", "2")
        assert (code, out) == (3, "")
        assert err == f"hyploop: config error: cannot read loop {str(loop_file)!r}: {message}\n"

    def test_verify_flags_and_config_win_over_a_bad_sidecar(self, capsys, loop_file, tmp_path):
        loop_file.with_suffix(".json").write_text('{"k": 2.0, "N": 64, "field": 3, "eps": "nan"}')
        (tmp_path / "run.json").write_text('{"field": "z1", "eps": 0.01}')
        by_flags = run(capsys, "verify", "--in", str(loop_file), "--k", "2",
                       "--field", "z1", "--eps", "0.01")
        by_config = run(capsys, "verify", "--in", str(loop_file), "--k", "2",
                        "--config", str(tmp_path / "run.json"))
        assert by_flags == by_config and by_flags[0] == 0
        report = json.loads(by_flags[1])
        assert (report["field"], report["eps"]) == ("z1", 0.01)

    @pytest.mark.parametrize("source", ["flag", "sidecar"])
    def test_verify_reports_a_bad_field_as_every_command_does(self, capsys, loop_file, source):
        _, _, want = run(capsys, "melnikov", "--k", "2", "--field", "z1+",
                         "--box", "-0.6,0.6,1.2,2.8")
        assert want.startswith("hyploop: config error: bad field text: ")
        if source == "flag":
            got = run(capsys, "verify", "--in", str(loop_file), "--k", "2", "--field", "z1+")
        else:
            loop_file.with_suffix(".json").write_text('{"k": 2.0, "N": 64, "field": "z1+"}')
            got = run(capsys, "verify", "--in", str(loop_file), "--k", "2")
        assert got == (3, "", want)

    def test_solve_blocked_by_bounded_total_curvature(self, capsys, tmp_path):
        # k + eps*K stays inside [-1, 1] on the sampled box: refuse before Newton
        code, out, _ = run(
            capsys, "solve", "--k", "2", "--eps", "-2", "--field", "tanh(z1)",
            "--box", "2,3,1,2", "--grid", "8", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        report = json.loads(out)
        assert "blocked" in report
        assert report["nonexistence"]["supnorm_le_one"]
        assert report["nonexistence"]["monotone_e1"]
        assert not (tmp_path / "x.csv").exists()

    def test_blocked_solve_reports_the_total_curvature(self, capsys, tmp_path, monkeypatch):
        # K = 2 + z1 has |K| up to 3, but k + eps*K = 1 - z1/2 lies in [0.5, 1]:
        # the evidence is that of k + eps*K on the max(grid, 16) grid that refused
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "solve", "--k", "2", "--eps", "-0.5", "--field", "2 + z1",
                             "--box", "0,1,1,2", "--grid", "8")
        assert code == 2 and err == "blocked: bounded total curvature (sampled)\n"
        evidence = json.loads(out)["nonexistence"]
        assert evidence["sup_abs"] == 1.0 and evidence["supnorm_le_one"]
        assert evidence["monotone_e1"] and evidence["samples"] == 16
        assert list(tmp_path.iterdir()) == []

    def test_unblocked_solve_builds_no_symbolic_gradient(self, capsys, tmp_path, monkeypatch):
        def refuse(field):
            raise AssertionError("grad_field called")

        monkeypatch.setattr(fields, "grad_field", refuse)
        code, _, _ = run(capsys, "solve", "--k", "2", "--eps", "0.01", "--field", QUADRATIC,
                         "--box", "-0.6,0.6,1.2,2.8", "--grid", "6", "--n-samples", "64",
                         "--out", str(tmp_path / "loop.csv"))
        assert code == 0

    def test_solve_monotone_field_no_critical_point(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "solve", "--k", "2", "--eps", "0.01", "--field", "tanh(z1)",
            "--box", "-1,1,1,2", "--grid", "6", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_numerical_failure_exits_4(self, capsys, tmp_path):
        # eps far beyond the continuation limit: correction Newton diverges
        code, out, err = run(
            capsys, "solve", "--k", "2", "--eps", "500", "--field", QUADRATIC,
            "--box", "-0.6,0.6,1.2,2.8", "--grid", "6", "--n-samples", "128",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 4
        assert "numerical failure" in err

    def test_reduce_command(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "--k", "2", "--eps", "0.01", "--field", QUADRATIC,
            "--z", "0.0,2.0", "--n-samples", "128",
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["t"]) < 1e-10
        assert report["residual_sup"] < 1e-11
        assert len(report["eta_samples"]) == 128

    def test_reduce_below_the_guard_exits_4(self, capsys):
        code, out, err = run(
            capsys, "reduce", "--k", "2", "--eps", "0.01", "--field", QUADRATIC,
            "--z", "0,1e-7",
        )
        assert code == 4 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("hyploop: numerical failure: NewtonDiverged:")
        assert "admissible set" in err

    @pytest.mark.parametrize("command", [  # main silences numpy's overflow warnings
        ("reduce", "--z", "0,2"),
        ("solve", "--box", "-0.6,0.6,1.2,2.8", "--grid", "4"),
    ])
    def test_nan_field_exits_4(self, capsys, tmp_path, monkeypatch, command):
        # inf - inf: K is NaN everywhere; neither a converged correction nor
        # evidence that the total curvature is bounded by 1
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *command, "--k", "2", "--eps", "0.01",
                             "--field", f"{QUADRATIC} + exp(1000*z2) - exp(1000*z2)")
        assert code == 4 and out == ""
        assert err.startswith("hyploop: numerical failure: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_continue_command(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "continue", "--k", "2", "--field", QUADRATIC,
            "--box", "-0.6,0.6,1.2,2.8", "--grid", "8", "--n-samples", "128",
            "--eps-list", "0.001,0.01", "--out", str(tmp_path / "chain"),
        )
        assert code == 0
        report = json.loads(out)
        assert report["eps_bar"] == 0.01
        assert len(report["solved"]) == 2
        assert (tmp_path / "chain_0.csv").exists()
        assert (tmp_path / "chain_1.csv").exists()

    def test_continue_failing_at_the_first_target_exits_numerical(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "continue", "--k", "2", "--field", QUADRATIC, "--box", "-0.6,0.6,1.2,2.8",
            "--eps-list", "5", "--out", str(tmp_path / "chain"),
        )
        assert code == 4
        report = json.loads(out)
        assert report["solved"] == [] and report["failure"]["eps"] == 5
        assert err.startswith("continuation failed at the first target: "
                              "(5.0, 'StepTooLarge: damping exhausted")
        assert list(tmp_path.iterdir()) == []

    def test_continue_without_a_critical_point_exits_blocked(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "continue", "--k", "2", "--field", "z1", "--box", "-0.6,0.6,1.2,2.8",
            "--eps-list", "0.01", "--out", str(tmp_path / "chain"),
        )
        assert (code, out, err) == (2, "", "hyploop: no gradient zero found in the region\n")
        assert list(tmp_path.iterdir()) == []


class TestEuclidCommands:
    def test_melnikov(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "euclid", "melnikov", "--k", "2", "--field", QUADRATIC,
            "--box", "-0.6,0.6,1.4,2.6", "--grid", "8", "--out", str(tmp_path / "m.csv"),
        )
        assert code == 0
        report = json.loads(out)
        z = report["points"][0]
        assert abs(z["z1"]) < 1e-8 and abs(z["z2"] - 2.0) < 1e-8

    def test_euclid_box_may_cross_axis(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "euclid", "melnikov", "--k", "2", "--field", "z1^2 + z2^2",
            "--box", "-1,1,-1,1", "--grid", "8", "--out", str(tmp_path / "m.csv"),
        )
        assert code == 0
        z = json.loads(out)["points"][0]
        assert np.hypot(z["z1"], z["z2"]) < 1e-8

    def test_solve(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "euclid", "solve", "--k", "2", "--eps", "0.01", "--field", QUADRATIC,
            "--box", "-0.6,0.6,1.4,2.6", "--grid", "8", "--n-samples", "128",
            "--out", str(tmp_path / "loop.csv"),
        )
        assert code == 0
        report = json.loads(out)
        assert report["embedded"] and report["mu"] == 1

    def test_solve_then_verify_in_the_flat_plane(self, capsys, tmp_path):
        # the sidecar names the plane, so verify reproduces the solve's defects
        out = tmp_path / "flat.csv"
        code, solved, _ = run(capsys, "euclid", "solve", "--k", "2", "--eps", "0.01",
                              "--field", QUADRATIC, "--box", "-0.6,0.6,1.4,2.6",
                              "--out", str(out))
        assert code == 0
        assert json.loads(out.with_suffix(".json").read_text())["plane"] == "flat"
        code, verified, err = run(capsys, "verify", "--in", str(out), "--k", "2")
        assert code == 0, err
        assert json.loads(verified)["defects"] == json.loads(solved)["defects"]

    def test_verify_takes_the_k_rule_of_the_sidecar_plane(self, capsys, tmp_path):
        # a flat circle of curvature 0.5 verifies; a half-plane loop still needs k > 1
        save_loop(tmp_path / "flat.csv", euclidean.reference_circle(0.5, 64),
                  {"k": 0.5, "eps": 0.0, "field": None, "plane": "flat"})
        code, out, err = run(capsys, "verify", "--in", str(tmp_path / "flat.csv"), "--k", "0.5")
        assert code == 0, err
        assert json.loads(out)["defects"]["curvature_defect"] < 1e-12
        save_loop(tmp_path / "hyp.csv", reference_loop(2.0, 64), {"k": 2.0, "eps": 0.0})
        code, out, err = run(capsys, "verify", "--in", str(tmp_path / "hyp.csv"), "--k", "0.5")
        assert code == 3 and out == ""
        assert "needs k >= 1 + 1e-05, got 0.5" in err

    def test_verify_accepts_a_flat_loop_below_the_axis(self, capsys, tmp_path):
        save_loop(tmp_path / "low.csv", euclidean.reference_circle(2.0, 64),  # about (0, 0)
                  {"k": 2.0, "eps": 0.0, "field": None, "plane": "flat"})
        code, out, err = run(capsys, "verify", "--in", str(tmp_path / "low.csv"), "--k", "2")
        assert code == 0, err
        assert json.loads(out)["defects"]["curvature_defect"] < 1e-12


class TestConfigHandling:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "k": 2.0, "field": "1", "box": [-1, 1, 1, 3], "grid": 8,
        }))
        out_csv = tmp_path / "m.csv"
        # override the constant field from the config with the quadratic one
        code, out, _ = run(
            capsys, "melnikov", "--config", str(cfg), "--field", QUADRATIC,
            "--out", str(out_csv),
        )
        assert code == 0
        assert json.loads(out)["field"] == QUADRATIC

    @pytest.mark.parametrize(
        "argv",
        [
            ("melnikov", "--field", "1", "--box", "-1,1,1,3"),          # missing k
            ("melnikov", "--k", "0.5", "--field", "1", "--box", "-1,1,1,3"),  # k <= 1
            ("melnikov", "--k", "2", "--field", "1", "--box", "-1,1,3"),      # bad box
            ("melnikov", "--k", "2", "--field", "2z1", "--box", "-1,1,1,3"),  # bad field
            ("solve", "--k", "2", "--field", "1", "--box", "-1,1,1,3",
             "--n-samples", "100"),                                     # not a power of two
            ("reduce", "--k", "2", "--field", "1"),                     # missing z
        ],
    )
    def test_config_errors_exit_3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3

    BASE_SETTINGS = {
        "reduce": {"k": 2.0, "eps": 0.01, "field": QUADRATIC, "z": [0.0, 2.0]},
        "solve": {"k": 2.0, "eps": 0.01, "field": QUADRATIC, "grid": 6,
                  "box": [-0.6, 0.6, 1.2, 2.8]},
        "continue": {"k": 2.0, "field": QUADRATIC, "grid": 6,
                     "box": [-0.6, 0.6, 1.2, 2.8], "eps_list": [0.001, 0.01]},
    }

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("key,command", [
        ("k", "reduce"), ("eps", "reduce"), ("z", "reduce"), ("box", "solve"),
        ("eps_list", "continue"),
    ])
    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_non_finite_numbers_exit_3(self, capsys, tmp_path, monkeypatch,
                                       source, key, command, value):
        monkeypatch.chdir(tmp_path)  # a run that went ahead would write here
        settings = dict(self.BASE_SETTINGS[command])
        old = settings[key]
        settings[key] = [*old[:-1], value] if isinstance(old, list) else value
        if source == "flags":
            argv = [
                f"--{name.replace('_', '-')}="
                + (",".join(map(repr, val)) if isinstance(val, list) else str(val))
                for name, val in settings.items()
            ]
        else:  # json writes NaN, Infinity and -Infinity, and reads them back
            (tmp_path / "run.json").write_text(json.dumps(settings))
            argv = ["--config", "run.json"]
        code, out, err = run(capsys, command, *argv)
        assert code == 3 and out == ""
        assert err.startswith(f"hyploop: config error: --{key.replace('_', '-')} must be finite")
        assert sorted(p.name for p in tmp_path.iterdir()) == (["run.json"] if source == "config" else [])

    @pytest.mark.parametrize("text", [
        "[1, 2]", "3",                                # not a JSON object
        '{"grid": "abc"}', '{"n_samples": "x"}',       # not a number
        '{"grid": 12.7}',                              # not an integer
        '{"gird": 4}',                                 # misspelled key
        '{"tolerances": {"reduce_tol": 1e-3}}',        # no such setting
        '{"field": 3}',                                # not text
    ])
    def test_bad_config_file_exits_3(self, capsys, tmp_path, monkeypatch, text):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_text(text)
        field = [] if '"field"' in text else ["--field", QUADRATIC]
        code, out, err = run(capsys, "reduce", "--config", "run.json", "--k", "2",
                             "--eps", "0.01", "--z", "0,2", *field)
        assert code == 3 and out == ""
        assert err.startswith("hyploop: config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,config,message", [
        # several bad settings: the first in reading order is reported
        (("melnikov", "--k", "0.5", "--field", "1", "--box", "-1,1,3"), None,
         "--k: hyperbolic constant curvature needs k >= 1 + 1e-05, got 0.5"),
        (("melnikov", "--k", "0.5", "--field", "1", "--box", "-1,1,-1,3"), None,
         "--k: hyperbolic constant curvature needs k >= 1 + 1e-05, got 0.5"),
        (("euclid", "melnikov", "--k", "0", "--field", "1", "--box", "1,-1,1,3"), None,
         "--k: Euclidean curvature needs k > 0, got 0.0"),
        (("solve", "--k", "2", "--field", "1", "--box", "1,-1,1,3", "--n-samples", "100"), None,
         "RegionBox needs z1min < z1max and 0 < z2min < z2max, got "
         "RegionBox(z1min=1.0, z1max=-1.0, z2min=1.0, z2max=3.0)"),
        (("solve", "--k", "2", "--field", "1", "--box", "-1,1,1,3", "--n-samples", "100",
          "--grid", "1"), None, "--n-samples must be a power of two >= 4, got 100"),
        (("solve",), {"field": 3}, "config key 'field' must be text, got 3"),
        (("solve", "--k", "2", "--box", "-1,1,3"), {"eps": "x"},
         "--box needs 4 comma-separated numbers, got 3"),
        (("reduce", "--k", "2", "--z", "0"), {"eps_list": [1, "a"], "grid": 1},
         "--z needs 2 comma-separated numbers, got 1"),
        # out of the domain: a center on or below the axis, a k whose square overflows
        (("reduce", "--k", "2", "--field", "1", "--z", "0,0"), None, "--z needs z2 > 0, got 0.0"),
        (("reduce", "--k", "2", "--field", "1", "--z", "0,-1"), None,
         "--z needs z2 > 0, got -1.0"),
        (("kernel", "--k", "1e200"), None,
         "--k: curvature k = 1e+200 is too large: k**2 overflows"),
        (("reduce", "--k", "1e200", "--field", "1", "--z", "0,2"), None,
         "--k: curvature k = 1e+200 is too large: k**2 overflows"),
        (("euclid", "solve", "--k", "1e200", "--field", "1", "--box", "-1,1,-1,1"), None,
         "--k: curvature k = 1e+200 is too large: k**2 overflows"),
        # a JSON true or false is not a number, and an integer past the float range is none
        (("reduce",), {"eps": True, "k": 2, "field": "0.001*z1", "z": "0,2"},
         "--eps must be comma-separated numbers, got True"),
        (("melnikov", "--k", "2", "--field", "1"), {"box": [True, 1, 1, 3]},
         "--box must be comma-separated numbers, got [True, 1, 1, 3]"),
        pytest.param(("reduce", "--k", "2", "--field", "1", "--z", "0,2"), {"eps": 10**400},
                     f"--eps must be comma-separated numbers, got {10**400}",
                     id="eps-int-past-float-range"),
        # a k so near 1 that the kernel of the linearization is misjudged
        (("kernel", "--k", "1.000001"), None,
         "--k: hyperbolic constant curvature needs k >= 1 + 1e-05, got 1.000001"),
    ])
    def test_first_bad_setting_is_reported(self, capsys, tmp_path, monkeypatch, argv, config,
                                           message):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "run.json").write_text(json.dumps(config))
            argv = (*argv, "--config", "run.json")
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == f"hyploop: config error: {message}\n"

    @pytest.mark.parametrize("key,command", [
        ("k", "kernel"), ("n_samples", "kernel"), ("eps", "reduce"), ("field", "reduce"),
        ("z", "reduce"), ("box", "melnikov"), ("grid", "melnikov"), ("out", "melnikov"),
        ("eps_list", "continue"), ("infile", "verify"),
    ])
    def test_null_leaves_a_setting_unset(self, capsys, tmp_path, monkeypatch, key, command):
        # {key: null} runs exactly as if the key were absent
        monkeypatch.chdir(tmp_path)
        flags = () if key == "k" else ("--k", "2")
        results = []
        for config in ({key: None}, {}):
            (tmp_path / "run.json").write_text(json.dumps(config))
            results.append(run(capsys, command, "--config", "run.json", *flags))
        assert results[0] == results[1]
        if key == "k":
            assert results[0] == (3, "", "hyploop: config error: --k is required\n")

    @pytest.mark.parametrize("command,flags", [
        (("solve",), ["--k", "--eps", "--field", "--box", "--grid", "--n-samples", "--out"]),
        (("reduce",), ["--k", "--eps", "--field", "--n-samples", "--z"]),
        (("continue",), ["--k", "--field", "--box", "--grid", "--n-samples", "--out",
                         "--eps-list"]),
        (("melnikov",), ["--k", "--field", "--box", "--grid", "--out"]),
        (("kernel",), ["--k", "--n-samples"]),
        (("verify",), ["--k", "--eps", "--field", "--in"]),
        (("euclid", "solve"), ["--k", "--eps", "--field", "--box", "--grid", "--n-samples",
                               "--out"]),
        (("euclid", "melnikov"), ["--k", "--field", "--box", "--grid", "--out"]),
    ])
    def test_help_lists_the_flags_of_each_command(self, capsys, command, flags):
        with pytest.raises(SystemExit) as info:
            main([*command, "--help"])
        assert info.value.code == 0
        listed = [word.rstrip(",") for word in capsys.readouterr().out.split()
                  if word.startswith("--")]
        assert listed == ["--help", "--config", *flags]

    def test_help_lists_euclid_last(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # one usage line
        with pytest.raises(SystemExit):
            main(["--help"])
        assert capsys.readouterr().out.splitlines()[0] == (
            "usage: hyploop [-h] {solve,reduce,continue,melnikov,kernel,verify,euclid} ...")

    def test_unknown_flag_exits_3(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["melnikov", "--bogus"])
        assert info.value.code == 3

    @pytest.mark.parametrize("command", [("solve",), ("melnikov",), ("euclid", "melnikov")])
    def test_threads_flag_is_gone(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)  # a run that accepted the flag would write here
        with pytest.raises(SystemExit) as info:
            main([*command, "--k", "2", "--field", QUADRATIC, "--box", "-0.6,0.6,1.2,2.8",
                  "--threads", "4"])
        assert info.value.code == 3


class TestResourceErrors:
    @pytest.mark.parametrize("command", [
        ("melnikov", "--grid", "4"),
        ("solve", "--eps", "0.01", "--grid", "4", "--n-samples", "64"),
        ("continue", "--eps-list", "0.001", "--grid", "4", "--n-samples", "64"),
        ("euclid", "melnikov", "--grid", "4"),
        ("euclid", "solve", "--eps", "0.01", "--grid", "4", "--n-samples", "64"),
    ])
    def test_missing_output_directory_exits_3(self, capsys, tmp_path, monkeypatch, command):
        # the output is checked before any landscape or solve runs
        def refuse(*args, **kwargs):
            raise AssertionError("computed before checking the output")

        for owner, name in ((melnikov, "find_critical"),
                            (euclidean, "solve_full_euclid"), (cli, "solve_full"),
                            (cli, "continue_eps")):
            monkeypatch.setattr(owner, name, refuse)
        code, out, err = run(capsys, *command, "--k", "2", "--field", QUADRATIC,
                             "--box", "-0.6,0.6,1.2,2.8",
                             "--out", str(tmp_path / "missing" / "x"))
        assert code == 3 and out == ""
        assert err.startswith("hyploop: config error: cannot write output: [Errno 2] ")
        assert err.count("\n") == 1

    def test_output_under_a_file_exits_3(self, capsys, tmp_path):
        (tmp_path / "file").write_text("")
        code, out, err = run(capsys, "melnikov", "--k", "2", "--field", QUADRATIC, "--grid", "4",
                             "--box", "-0.6,0.6,1.2,2.8", "--out", str(tmp_path / "file" / "x"))
        assert code == 3 and out == ""
        assert err.startswith("hyploop: config error: cannot write output: [Errno 20] ")

    def test_unwritable_stdout_exits_3(self, capsys, monkeypatch):
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["kernel", "--k", "2", "--n-samples", "8"]) == 3
        assert capsys.readouterr().err == ("hyploop: config error: cannot write output: "
                                           "[Errno 32] Broken pipe\n")

    def test_too_deep_field_exits_3(self, capsys):
        code, out, err = run(capsys, "reduce", "--k", "2", "--eps", "0.01", "--z", "0,2",
                             "--field", "+".join(["z1"] * (fields.MAX_DEPTH + 1)))
        assert code == 3 and out == ""
        assert err == ("hyploop: config error: bad field text: "
                       f"field nests deeper than {fields.MAX_DEPTH} levels at offset 0\n")

    def test_impossible_allocation_exits_4(self, capsys, monkeypatch):
        def too_large(self, n):
            raise MemoryError(f"Unable to allocate a {n} x {n} grid")

        monkeypatch.setattr(RegionBox, "grid", too_large)
        code, out, err = run(capsys, "melnikov", "--k", "2", "--field", QUADRATIC,
                             "--box", "-0.6,0.6,1.2,2.8", "--grid", "200000")
        assert code == 4 and out == ""
        assert err == ("hyploop: numerical failure: out of memory: "
                       "Unable to allocate a 200000 x 200000 grid\n")


BOX = "-0.6,0.6,1.2,2.8"
SOLVE = ("solve", "--k", "2", "--eps", "0.01", "--field", QUADRATIC, "--box", BOX,
         "--grid", "8", "--n-samples", "128")


class TestOutputContract:
    """Every exit prints one JSON report headed by schema and command, or none when an
    exception decided the exit, and exactly one line on stderr."""

    @pytest.mark.parametrize("steps,codes", [
        ([("melnikov", "--k", "2", "--field", "z1", "--box", BOX, "--grid", "4")], [2]),
        ([("solve", "--k", "1.001", "--eps", "-0.01", "--field", "1", "--box", BOX,
           "--grid", "4")], [2]),  # blocked by the total-curvature bound
        ([("solve", "--k", "2", "--eps", "0.01", "--field", "z1", "--box", BOX,
           "--grid", "4")], [2]),  # no critical point
        ([("continue", "--k", "2", "--field", QUADRATIC, "--box", BOX, "--eps-list", "5")],
         [4]),
        ([SOLVE, ("verify", "--in", "loop.csv", "--k", "2", "--field", "exp(1000*z2)")],
         [0, 4]),
        ([("euclid", "solve", "--k", "2", "--eps", "0.01", "--field", QUADRATIC,
           "--box", "-0.6,0.6,1.4,2.6"), ("verify", "--in", "loop.csv", "--k", "2")], [0, 0]),
    ], ids=["melnikov-none", "solve-blocked", "solve-none", "continue-fails",
            "verify-K-not-finite", "euclid-solve-verify"])
    def test_one_report_and_one_summary_line(self, capsys, tmp_path, monkeypatch, steps, codes):
        monkeypatch.chdir(tmp_path)
        for argv, expected in zip(steps, codes):
            code, out, err = run(capsys, *argv)
            assert code == expected and err.count("\n") == 1 and err.endswith("\n"), err
            report = json.loads(out, parse_constant=reject_constant)
            assert out.endswith("}\n") and isinstance(report, dict)
            command = " ".join(argv[:2]) if argv[0] == "euclid" else argv[0]
            assert list(report)[:2] == ["schema", "command"]
            assert (report["schema"], report["command"]) == (cli.SCHEMA, command)

    @pytest.mark.parametrize("argv,expected", [
        (("solve", "--k", "2", "--field", QUADRATIC), 3),  # --box is required
        (("melnikov", "--k", "2", "--field", "log(z1-5)", "--box", BOX, "--grid", "4"), 4),
    ], ids=["config-error", "numerical-error"])
    def test_a_raised_exit_prints_only_its_line(self, capsys, tmp_path, monkeypatch, argv,
                                                 expected):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out, err.count("\n")) == (expected, "", 1) and err.endswith("\n")


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The arguments of every ``hyploop`` line in the README's bash blocks, continuations joined."""
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.lstrip().startswith("hyploop ")]


def run_process(*argv, cwd):
    """``python -m hyploop.cli`` in a fresh interpreter, with warnings shown as usual."""
    env = dict(os.environ, PYTHONPATH=str(Path(hyploop.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


class TestProcess:
    @pytest.mark.parametrize("command", [
        ("reduce", "--field", "exp(1000*z2)-exp(1000*z2)", "--z", "0,2"),
        ("solve", "--field", "z1^2+(z2-2)^2+exp(1000*z2)-exp(1000*z2)",
         "--box", "-0.6,0.6,1.2,2.8", "--grid", "4"),
    ])
    def test_overflowing_field_prints_one_stderr_line(self, tmp_path, command):
        proc = run_process("-m", "hyploop.cli", command[0], "--k", "2", "--eps", "0.01",
                           *command[1:], cwd=tmp_path)
        assert proc.returncode == 4 and proc.stdout == ""
        assert proc.stderr.startswith("hyploop: numerical failure: ")
        assert proc.stderr.count("\n") == 1, proc.stderr

    def test_readme_examples_run(self, tmp_path):
        commands = readme_commands()
        assert len(commands) >= 7
        for argv in commands:  # in order, in one directory: verify reads what solve wrote
            proc = run_process("-m", "hyploop.cli", *argv, cwd=tmp_path)
            assert proc.returncode == 0, (argv, proc.stderr)
            assert proc.stderr.count("\n") == 1, (argv, proc.stderr)

    def test_parser_is_built_once_on_first_use(self, tmp_path):
        proc = run_process("-c", """
import argparse, contextlib, io
builds = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    builds.extend([1] if kwargs.get("prog") == "hyploop" else [])
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import hyploop.cli
at_import = len(builds)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [hyploop.cli.main(["kernel", "--k", "2", "--n-samples", "8"]) for _ in range(3)]
print(at_import, len(builds), codes)
""", cwd=tmp_path)
        assert proc.stdout == "0 1 [0, 0, 0]\n", proc.stderr

    def test_import_builds_no_quadrature_rule(self, tmp_path):
        # the disk rules are built on first use, so start-up pays for none of them
        proc = run_process("-c", """
import hyploop.cli
from hyploop import _quad
rules = (_quad.disk_rule, _quad.nested_disk_rule, _quad._gk21)
print([f.cache_info().currsize for f in rules])
""", cwd=tmp_path)
        assert proc.stdout == "[0, 0, 0]\n", proc.stderr

    def test_cli_import_leaves_scipy_out(self, tmp_path):
        proc = run_process("-c", "import sys, hyploop.cli; print('scipy' in sys.modules)",
                           cwd=tmp_path)
        assert proc.stdout == "False\n", proc.stderr

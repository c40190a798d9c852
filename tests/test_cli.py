import json

import numpy as np
import pytest

from hyploop import euclidean, melnikov
from hyploop.cli import main, to_json
from hyploop.fields import PlaneBox, RegionBox

QUADRATIC = "z1^2 + (z2-2)^2"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestJsonFormat:
    def test_floats_are_17_significant_digits(self):
        text = to_json({"x": 1 / 3})
        assert "0.33333333333333331" in text

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

    def test_threads_give_identical_csv(self, capsys, tmp_path):
        args = ("melnikov", "--k", "2", "--field", QUADRATIC, "--box", "-0.6,0.6,1.2,2.8",
                "--grid", "6")
        run(capsys, *args, "--out", str(tmp_path / "a.csv"))
        run(capsys, *args, "--out", str(tmp_path / "b.csv"), "--threads", "4")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

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
        # Newton's one-center calls start from grid nodes; the scan itself is one batch
        batches = [call for call in calls["gradient"] if len(call) > 1]
        assert batches == [centers]
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

    def test_unknown_flag_exits_3(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["melnikov", "--bogus"])
        assert info.value.code == 3

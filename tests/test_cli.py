import json

import numpy as np
import pytest

from hyploop import euclidean, fields, melnikov
from hyploop.cli import main, to_json
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the field overflows on purpose
    @pytest.mark.parametrize("command", [
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
         "half-plane commands need k > 1, got 0.5"),
        (("melnikov", "--k", "0.5", "--field", "1", "--box", "-1,1,-1,3"), None,
         "half-plane commands need k > 1, got 0.5"),
        (("euclid", "melnikov", "--k", "0", "--field", "1", "--box", "1,-1,1,3"), None,
         "euclid commands need k > 0, got 0.0"),
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
        (("kernel", "--k", "1e200"), None, "--k is too large: its square overflows, got 1e+200"),
        (("reduce", "--k", "1e200", "--field", "1", "--z", "0,2"), None,
         "--k is too large: its square overflows, got 1e+200"),
        (("euclid", "solve", "--k", "1e200", "--field", "1", "--box", "-1,1,-1,1"), None,
         "--k is too large: its square overflows, got 1e+200"),
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

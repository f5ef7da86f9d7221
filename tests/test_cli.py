"""End-to-end command behaviour: arguments, exit codes, CSV artifacts."""
import pytest

from epipower import cli
from epipower.cli import EXIT_OK, EXIT_SOLVER, EXIT_USAGE, main

FAST_SWEEP = """
[scenario]
trials = 32
nodes = 5
noise_power_db = -30
[grid]
levels = 101
[policy]
max_stages = 4
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFitGamma:
    def test_basic_fit(self, capsys):
        code, out, _ = run(capsys, "fit-gamma", "--powers", "1,1,1")
        assert code == EXIT_OK
        assert "alpha_hat = 3" in out
        assert "theta_hat = 2" in out

    def test_rate_flag_and_its_alias(self, capsys):
        code_a, out_a, _ = run(capsys, "fit-gamma", "--powers", "1,3", "--rate", "1.0")
        code_b, out_b, _ = run(capsys, "fit-gamma", "--powers", "1,3", "--lambda", "1.0")
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b
        assert "alpha_hat = 1.6" in out_a
        assert "theta_hat = 2.5" in out_a

    def test_sigma_flag(self, capsys):
        # sigma 1 means rate 0.5, the default
        _, out_sigma, _ = run(capsys, "fit-gamma", "--powers", "2,2", "--sigma", "1")
        _, out_plain, _ = run(capsys, "fit-gamma", "--powers", "2,2")
        assert out_sigma == out_plain

    def test_rate_and_sigma_conflict(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fit-gamma", "--powers", "1", "--rate", "1", "--sigma", "1"])
        assert err.value.code == 2

    def test_empty_powers_fail_usage(self, capsys):
        code, _, err = run(capsys, "fit-gamma", "--powers", "")
        assert code == EXIT_USAGE
        assert "no interferers" in err

    def test_shifted_moment_report(self, capsys):
        code, out, _ = run(
            capsys,
            "fit-gamma", "--powers", "1,1,1", "--eta", "100",
            "--moment", "1", "--truncation", "4",
        )
        assert code == EXIT_OK
        assert "E[1/(Y+eta)^1] = 0.00944371129" in out
        assert "terms=4, ok" in out


class TestSolve:
    def test_nash_single_node(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "nash", "--gains", "1", "--thresholds-db", "0", "--noise-db", "0",
        )
        assert code == EXIT_OK
        assert "node 0: power=1 feasible=True" in out
        assert "profitable_deviations = 0" in out

    def test_epistemic_single_node(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "epistemic", "--gains", "1", "--thresholds-db", "0",
            "--noise-db", "0",
        )
        assert code == EXIT_OK
        assert "converged=True" in out
        assert "total_evaluations" in out

    def test_epistemic_unconverged_exit(self, capsys):
        code, _, _ = run(
            capsys,
            "solve", "epistemic", "--gains", "1,0.5", "--thresholds-db=-10,-10",
            "--noise-db", "0", "--max-stages", "1",
        )
        assert code == EXIT_SOLVER

    def test_exhaustive_flag_reports_full_scans(self, capsys):
        _, fast, _ = run(
            capsys,
            "solve", "epistemic", "--gains", "1", "--thresholds-db", "0",
            "--noise-db", "0", "--grid-levels", "33", "--p-max", "4",
        )
        _, slow, _ = run(
            capsys,
            "solve", "epistemic", "--gains", "1", "--thresholds-db", "0",
            "--noise-db", "0", "--grid-levels", "33", "--p-max", "4", "--exhaustive",
        )
        assert "power=1 " in fast and "power=1 " in slow
        assert fast.split("evaluations=")[1] != slow.split("evaluations=")[1]

    def test_epa_level_checked_against_grid(self, capsys):
        code, _, err = run(
            capsys,
            "solve", "epa", "--gains", "1,1", "--thresholds-db", "0,0",
            "--epa-level", "0.55",
        )
        assert code == EXIT_USAGE
        assert "not a grid level" in err
        code, out, _ = run(
            capsys,
            "solve", "epa", "--gains", "1,1", "--thresholds-db", "0,0",
            "--epa-level", "0.5",
        )
        assert code == EXIT_OK
        assert out.count("power=0.5") == 2

    def test_sncpc_solver(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "sncpc", "--gains", "1", "--thresholds-db", "0",
            "--noise-db", "0",
        )
        assert code == EXIT_OK
        assert "converged = True" in out

    def test_length_mismatch_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "solve", "nash", "--gains", "1,1", "--thresholds-db", "0",
        )
        assert code == EXIT_USAGE
        assert "equal length" in err


class TestFigure:
    def conditioned_config(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            FAST_SWEEP + "[sweep]\ngains_linear = 0.5\nthresholds_db = -24\n"
        )
        return str(path)

    def population_config(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            FAST_SWEEP + "[sweep]\ninterference_pct = 60\npolicies = M1, EPA\n"
        )
        return str(path)

    def test_conditioned_figure_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "fig3.csv"
        code, out, _ = run(
            capsys,
            "figure", "3", "--config", self.conditioned_config(tmp_path),
            "--out", str(out_csv),
        )
        assert code == EXIT_OK
        assert "wrote 1 rows" in out
        text = out_csv.read_text().splitlines()
        assert "# figure = 3" in text
        assert "# metric = avg_power" in text
        assert "# scenario.seed = 42" in text
        header_at = text.index("gain,threshold_db,metric,ci")
        data = text[header_at + 1].split(",")
        assert data[0] == "0.5" and data[1] == "-24"
        assert 0.0 <= float(data[2]) <= 1.0

    def test_coverage_figure_uses_same_sweep(self, capsys, tmp_path):
        out_csv = tmp_path / "fig4.csv"
        code, _, _ = run(
            capsys,
            "figure", "4", "--config", self.conditioned_config(tmp_path),
            "--out", str(out_csv),
        )
        assert code == EXIT_OK
        text = out_csv.read_text()
        assert "# metric = coverage" in text

    def test_population_figures(self, capsys, tmp_path):
        cfg = self.population_config(tmp_path)
        out5 = tmp_path / "fig5.csv"
        out6 = tmp_path / "fig6.csv"
        code5, _, _ = run(capsys, "figure", "5", "--config", cfg, "--out", str(out5))
        code6, _, _ = run(capsys, "figure", "6", "--config", cfg, "--out", str(out6))
        assert code5 == EXIT_OK and code6 == EXIT_OK
        lines5 = [l for l in out5.read_text().splitlines() if not l.startswith("#")]
        assert lines5[0] == "interference_pct,policy,metric,ci"
        assert len(lines5) == 3  # header + one row per policy
        assert lines5[1].startswith("60,M1,")
        assert lines5[2].startswith("60,EPA,")
        # fixed allocation always transmits the full budget
        epa_power = [l for l in out6.read_text().splitlines() if ",EPA," in l]
        assert epa_power[0].split(",")[2] == "1"

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        cfg = self.population_config(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(capsys, "figure", "5", "--config", cfg, "--out", str(a))
        run(capsys, "figure", "5", "--config", cfg, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_lands_in_stamp(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SEED", "1234")
        out_csv = tmp_path / "fig3.csv"
        code, _, _ = run(
            capsys,
            "figure", "3", "--config", self.conditioned_config(tmp_path),
            "--out", str(out_csv),
        )
        assert code == EXIT_OK
        assert "# scenario.seed = 1234" in out_csv.read_text()

    def test_bad_config_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\ntrails = 10\n")
        code, _, err = run(
            capsys, "figure", "3", "--config", str(path), "--out", "unused.csv"
        )
        assert code == EXIT_USAGE
        assert "config error" in err
        assert "trails" in err

    def test_off_grid_epa_level_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[grid]\nlevels = 11\np_max_linear = 0.5\n"
            "[sweep]\npolicies = EPA, M1\n"
        )
        out_csv = tmp_path / "fig6.csv"
        code, _, err = run(
            capsys, "figure", "6", "--config", str(path), "--out", str(out_csv)
        )
        assert code == EXIT_USAGE
        assert "config error" in err and "epa_level_linear" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "figure, sweep, key",
        [
            (5, "interference_pct = 50, 0\npolicies = SNCPC", "interference_pct"),
            (3, "gains_linear = 0.5, 0\nthresholds_db = -24", "gains_linear"),
            (3, "gains_linear = 0.5\nthresholds_db = -4000", "thresholds_db"),
        ],
    )
    def test_invalid_sweep_point_is_usage_error(
        self, capsys, tmp_path, monkeypatch, figure, sweep, key
    ):
        # the whole sweep is checked before its first point runs
        monkeypatch.setattr(cli, "sweep", None)
        path = tmp_path / "cfg.ini"
        path.write_text(FAST_SWEEP + f"[sweep]\n{sweep}\n")
        out_csv = tmp_path / "fig.csv"
        code, _, err = run(
            capsys, "figure", str(figure), "--config", str(path), "--out", str(out_csv)
        )
        assert code == EXIT_USAGE
        assert "config error: [sweep] " + key in err
        assert not out_csv.exists()

    def test_print_defaults(self, capsys):
        code, out, _ = run(capsys, "figure", "5", "--print-defaults", "--out", "x")
        assert code == EXIT_OK
        assert "[scenario]" in out
        assert "trials = 10000" in out

    def test_solver_failure_budget_sets_exit_code(self, capsys, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            FAST_SWEEP
            + "[sweep]\ninterference_pct = 60\npolicies = SNCPC\n"
            + "[baselines]\nsncpc_max_iter = 1\n"
        )
        out_csv = tmp_path / "fig5.csv"
        code, _, err = run(
            capsys, "figure", "5", "--config", str(path), "--out", str(out_csv)
        )
        assert code == EXIT_SOLVER
        assert "failure fraction" in err
        # the CSV is still written for inspection
        assert out_csv.exists()


class TestSelftest:
    def test_battery_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert out.count("PASS") >= 4

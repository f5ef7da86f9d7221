"""End-to-end command behaviour: arguments, exit codes, CSV artifacts."""
import shlex
from pathlib import Path

import pytest

from epipower import cli
from epipower.cli import EXIT_OK, EXIT_SOLVER, EXIT_USAGE, main
from epipower.config import load_run_config
from epipower.engine import EpistemicPolicy
from epipower.game import MAX_SWEEPS, NashResult

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


README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"

TWO_NODES = ("--gains", "1,0.5", "--thresholds-db=-10,-10", "--noise-db", "0")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_examples():
    """(argv, stdout lines) of every `$ epipower ...` example in README.md."""
    lines = README.read_text(encoding="utf-8").splitlines()
    examples = []
    i = 0
    while i < len(lines):
        if not lines[i].startswith("$ epipower "):
            i += 1
            continue
        command = lines[i]
        while command.endswith("\\"):
            i += 1
            command = command[:-1] + lines[i]
        i += 1
        expected = []
        while i < len(lines) and lines[i] and not lines[i].startswith(("$", "```")):
            expected.append(lines[i])
            i += 1
        examples.append((shlex.split(command)[2:], expected))
    return examples


def test_readme_transcripts_match(capsys):
    examples = readme_examples()
    assert [argv[:2] for argv, _ in examples] == [
        ["fit-gamma", "--powers"],
        ["solve", "NASH"],
        ["solve", "M1"],
    ]
    for argv, expected in examples:
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK, argv
        assert out.splitlines() == expected, argv


# transcript -> its run count; tests/golden/solve.sh wrote these: for NASH,
# SNCPC and EPA one run; for M4 a run to convergence, then one at belief
# depth 1, which stops unconverged; for nash_zero_gain two certified Nash
# runs whose node 0 has a zero squared gain
SOLVE_GOLDENS = {"nash": 1, "sncpc": 1, "nash_zero_gain": 2, "M4": 2, "EPA": 1}


@pytest.mark.parametrize("scheme", SOLVE_GOLDENS)
def test_solve_transcripts_match_goldens(capsys, scheme):
    blocks = (GOLDEN / f"solve_{scheme}.txt").read_text().split("$ epipower ")
    assert blocks[0] == "" and len(blocks) == SOLVE_GOLDENS[scheme] + 1
    for block in blocks[1:]:
        command, *expected = block.splitlines()
        code, out, err = run(capsys, *shlex.split(command))
        assert (out + err).splitlines() + [f"exit {code}"] == expected, command


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "M1", *TWO_NODES, "--max-stages", "-1"),
        ("solve", "M1", *TWO_NODES, "--sigma", "0"),
        ("solve", "M1", *TWO_NODES, "--max-stages", "0"),
        ("solve", "NASH", *TWO_NODES, "--max-stages", "0"),
        ("solve", "SNCPC", *TWO_NODES, "--max-stages", "0"),
        ("fit-gamma", "--powers", "1,2", "--eta", "1", "--moment", "0"),
        ("fit-gamma", "--powers", "1,2", "--eta", "1", "--truncation", "-1"),
        # the series options are read only with a positive shift
        ("fit-gamma", "--powers", "1,2,3", "--moment", "0", "--truncation", "9"),
        ("fit-gamma", "--moment", "1", "--powers", "1,2,3"),
        ("fit-gamma", "--powers", "1,2,3", "--eta", "0", "--truncation", "4"),
        # a grid on which a belief policy's Gamma fit overflows
        ("solve", "M1", "--gains", "1,1,1", "--thresholds-db", "0,0,0",
         "--p-max", "1e200", "--grid-levels", "11"),
        ("solve", "M4", "--gains", "1,1,1", "--thresholds-db", "0,0,0",
         "--p-max", "1e100", "--grid-levels", "11"),
        # dB beyond float range, a gain rate that is not finite, NaN and inf
        ("solve", "NASH", "--gains", "1", "--thresholds-db", "4000"),
        ("solve", "NASH", "--gains", "1", "--thresholds-db", "0", "--noise-db", "4000"),
        ("solve", "NASH", "--gains", "1", "--thresholds-db", "inf"),
        ("solve", "M1", "--gains", "1,1", "--thresholds-db", "0,0",
         "--sigma", "1e-200"),
        ("solve", "M1", "--gains", "1,1", "--thresholds-db", "0,0",
         "--sigma", "1e200"),
        ("solve", "M1", "--gains", "nan", "--thresholds-db", "0"),
        ("solve", "NASH", "--gains", "nan", "--thresholds-db", "0"),
        ("solve", "SNCPC", "--gains", "1,inf", "--thresholds-db", "0,0"),
        ("fit-gamma", "--powers", "1,2", "--eta", "nan", "--moment", "1"),
        ("fit-gamma", "--powers", "1,2", "--rate", "inf"),
        ("solve", "SNCPC", "--gains", "1", "--thresholds-db", "0", "--p-max", "inf"),
        # a finite gain whose square overflows
        ("solve", "M1", "--gains", "1e200,1", "--thresholds-db", "0,0"),
        ("solve", "NASH", "--gains", "1e200,1", "--thresholds-db", "0,0"),
        # --exhaustive and --max-stages belong to the belief policies,
        # --sigma to them and S-NCPC
        ("solve", "SNCPC", *TWO_NODES, "--exhaustive"),
        ("solve", "EPA", *TWO_NODES, "--exhaustive"),
        ("solve", "NASH", *TWO_NODES, "--exhaustive"),
        ("solve", "NASH", *TWO_NODES, "--max-stages", "5"),
        ("solve", "SNCPC", *TWO_NODES, "--max-stages", "5"),
        ("solve", "EPA", *TWO_NODES, "--max-stages", "5"),
        ("solve", "NASH", *TWO_NODES, "--sigma", "1"),
        ("solve", "EPA", *TWO_NODES, "--sigma", "1"),
        # the label names the whole policy: no scheme names, no order 5
        ("solve", "nash", *TWO_NODES),
        ("solve", "epistemic", *TWO_NODES),
        ("solve", "M5", *TWO_NODES),
    ],
    ids=lambda argv: " ".join(argv[:2] + argv[-2:]),
)
def test_bad_argument_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""


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

    def test_series_options_default_without_being_named(self, capsys):
        named = run(
            capsys, "fit-gamma", "--powers", "1,1,1", "--eta", "100",
            "--moment", "1", "--truncation", "4",
        )
        assert run(capsys, "fit-gamma", "--powers", "1,1,1", "--eta", "100") == named

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
            "solve", "NASH", "--gains", "1", "--thresholds-db", "0", "--noise-db", "0",
        )
        assert code == EXIT_OK
        assert "node 0: power=1 feasible=True" in out
        assert "profitable_deviations = 0" in out

    def test_nash_deviation_found_exits_one(self, capsys, monkeypatch):
        # a wasteful profile: node 0 meets its target at every level from
        # 1 up, so each of levels 1..9 undercuts p_max = 10
        monkeypatch.setattr(
            cli,
            "solve_nash_full_csi",
            lambda network, grid: NashResult((10.0,), (True,), 1),
        )
        code, out, _ = run(
            capsys,
            "solve", "NASH", "--gains", "1", "--thresholds-db", "0",
            "--noise-db", "0", "--grid-levels", "11", "--p-max", "10",
        )
        assert code == EXIT_SOLVER
        assert "node 0: power=10 feasible=True" in out
        assert "profitable_deviations = 9" in out

    def test_knife_edge_target_certifies(self, capsys):
        # g^2*p/noise at p = 3 equals the target, but the solver's
        # (g^2/noise)*p rounds one ulp below it and takes p = 4; the scan
        # tests the same product, so p = 3 is no deviation
        code, out, _ = run(
            capsys,
            "solve", "NASH", "--gains", "1", "--thresholds-db", "7.701212547196625",
            "--noise-db=-2.93", "--grid-levels", "11", "--p-max", "10",
        )
        assert code == EXIT_OK
        assert "node 0: power=4 feasible=True" in out
        assert "profitable_deviations = 0" in out

    @pytest.mark.parametrize("gain", ["0", "1e-170"])
    def test_zero_squared_gain_certifies(self, capsys, gain):
        # node 0's squared gain is 0 (1e-170 squared underflows): SINR 0 at
        # every level, so p_max is its best response, not a tie to leave
        code, out, _ = run(
            capsys,
            "solve", "NASH", "--gains", f"{gain},1", "--thresholds-db", "0,0",
            "--grid-levels", "11", "--p-max", "10",
        )
        assert code == EXIT_OK
        assert "node 0: power=10 feasible=False" in out
        assert "profitable_deviations = 0" in out

    def test_epistemic_single_node(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "M1", "--gains", "1", "--thresholds-db", "0",
            "--noise-db", "0",
        )
        assert code == EXIT_OK
        assert "converged=True" in out
        assert "total_evaluations" in out

    def test_epistemic_unconverged_exit(self, capsys):
        code, _, _ = run(
            capsys,
            "solve", "M1", "--gains", "1,0.5", "--thresholds-db=-10,-10",
            "--noise-db", "0", "--max-stages", "1",
        )
        assert code == EXIT_SOLVER

    def test_exhaustive_flag_reports_full_scans(self, capsys):
        _, fast, _ = run(
            capsys,
            "solve", "M1", "--gains", "1", "--thresholds-db", "0",
            "--noise-db", "0", "--grid-levels", "33", "--p-max", "4",
        )
        _, slow, _ = run(
            capsys,
            "solve", "M1", "--gains", "1", "--thresholds-db", "0",
            "--noise-db", "0", "--grid-levels", "33", "--p-max", "4", "--exhaustive",
        )
        assert "power=1 " in fast and "power=1 " in slow
        assert fast.split("evaluations=")[1] != slow.split("evaluations=")[1]

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_label_sets_the_moment_order(self, capsys, monkeypatch, order):
        seen = []

        def game(network, grid, policy, prior, max_stages, exhaustive):
            seen.append(policy)
            return original(network, grid, policy, prior, max_stages, exhaustive)

        original = cli.run_epistemic_game
        monkeypatch.setattr(cli, "run_epistemic_game", game)
        code, _, _ = run(capsys, "solve", f"M{order}", *TWO_NODES)
        assert code == EXIT_OK
        assert seen == [EpistemicPolicy(moment_order=order)]

    def test_nash_non_convergence_exits_one(self, capsys, monkeypatch):
        original = cli.solve_nash_full_csi
        monkeypatch.setattr(
            cli,
            "solve_nash_full_csi",
            lambda network, grid: original(network, grid, max_rounds=1),
        )
        code, out, err = run(capsys, "solve", "NASH", *TWO_NODES)
        assert code == EXIT_SOLVER
        assert err == "error: no best-response fixed point within 1 rounds\n"
        assert out == ""

    def test_sncpc_unconverged_exits_one(self, capsys, monkeypatch):
        original = cli.sncpc_solve
        monkeypatch.setattr(
            cli,
            "sncpc_solve",
            lambda network, grid, prior: original(network, grid, prior, max_iter=1),
        )
        code, out, _ = run(capsys, "solve", "SNCPC", *TWO_NODES)
        assert code == EXIT_SOLVER
        assert "iterations = 1\nconverged = False\n" in out

    def test_comparators_sweep_to_the_shared_cap(self, capsys, monkeypatch):
        # --max-stages is belief depth only; NASH and SNCPC take MAX_SWEEPS
        caps = []
        nash, sncpc = cli.solve_nash_full_csi, cli.sncpc_solve

        def nash_spy(network, grid, max_rounds=MAX_SWEEPS):
            caps.append(max_rounds)
            return nash(network, grid, max_rounds)

        def sncpc_spy(network, grid, prior, max_iter=MAX_SWEEPS):
            caps.append(max_iter)
            return sncpc(network, grid, prior, max_iter)

        monkeypatch.setattr(cli, "solve_nash_full_csi", nash_spy)
        monkeypatch.setattr(cli, "sncpc_solve", sncpc_spy)
        assert run(capsys, "solve", "NASH", *TWO_NODES)[0] == EXIT_OK
        assert run(capsys, "solve", "SNCPC", *TWO_NODES)[0] == EXIT_OK
        assert caps == [MAX_SWEEPS, MAX_SWEEPS]

    @pytest.mark.parametrize("label", ["EPA", "SNCPC", "NASH"])
    def test_comparators_run_on_a_huge_grid(self, capsys, label):
        # only the belief policies fit a Gamma model to p_max
        code, out, err = run(
            capsys,
            "solve", label, "--gains", "1,1,1", "--thresholds-db", "0,0,0",
            "--p-max", "1e200", "--grid-levels", "11",
        )
        assert code == EXIT_OK and err == ""
        assert out.count("power=1e+200 feasible=False") == 3

    def test_epa_feasible_is_realised_coverage(self, capsys):
        # both transmit at p_max = 120 against noise 1: node 0 realises
        # 120 / 31 = 3.9 and meets its 0 dB target, node 1 realises
        # 30 / 121 = 0.25 and misses it
        code, out, _ = run(
            capsys,
            "solve", "EPA", "--gains", "1,0.5", "--thresholds-db", "0,0",
            "--noise-db", "0",
        )
        assert code == EXIT_OK
        assert "node 0: power=120 feasible=True" in out
        assert "node 1: power=120 feasible=False" in out

    def test_sncpc_solver(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "SNCPC", "--gains", "1", "--thresholds-db", "0",
            "--noise-db", "0",
        )
        assert code == EXIT_OK
        assert "converged = True" in out

    def test_length_mismatch_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "solve", "NASH", "--gains", "1,1", "--thresholds-db", "0",
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

    @pytest.mark.parametrize(
        "figure, sweep",
        [
            (3, "gains_linear = 0.5\nthresholds_db = -24"),
            (6, "interference_pct = 60\npolicies = EPA"),
        ],
        ids=["figure3", "figure6_EPA"],
    )
    def test_any_p_max_runs(self, capsys, tmp_path, figure, sweep):
        # EPA transmits at the grid's own p_max, so no second setting can
        # disagree with [grid] p_max_linear
        path = tmp_path / "cfg.ini"
        grid = "levels = 101\n"
        path.write_text(
            FAST_SWEEP.replace(grid, grid + "p_max_linear = 0.5\n")
            + f"[sweep]\n{sweep}\n"
        )
        out_csv = tmp_path / "fig.csv"
        code, _, err = run(
            capsys, "figure", str(figure), "--config", str(path), "--out", str(out_csv)
        )
        assert code == EXIT_OK, err
        rows = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 2
        if figure == 6:
            # powers are reported as a fraction of p_max
            assert rows[1].startswith("60,EPA,1,")

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

    @pytest.mark.parametrize(
        "figure, section, setting",
        [
            (3, "scenario", "noise_power_db = 4000"),
            (5, "scenario", "noise_power_db = 4000"),
            (3, "scenario", "sinr_threshold_db = 4000"),
            (5, "scenario", "sinr_threshold_db = 4000"),
            (3, "scenario", "rayleigh_sigma = 1e-200"),
            (5, "scenario", "rayleigh_sigma = 1e-200"),
            (3, "sweep", "thresholds_db = 4000"),
            (3, "sweep", "gains_linear = 1e200"),
            # a trial index must fit one 32-bit seed word
            (5, "scenario", "trials = 4294967297"),
            (4, "policy", "label = M7"),
            (5, "grid", "p_max_linear = inf"),
            # the belief policies' Gamma fit overflows at this p_max
            (3, "grid", "p_max_linear = 1e200"),
            (5, "grid", "p_max_linear = 1e200"),
        ],
    )
    def test_out_of_range_value_is_usage_error(
        self, capsys, tmp_path, monkeypatch, figure, section, setting
    ):
        # rejected while the config loads, before the first point runs
        monkeypatch.setattr(cli, "sweep", None)
        path = tmp_path / "cfg.ini"
        path.write_text(f"[{section}]\n{setting}\n")
        out_csv = tmp_path / "fig.csv"
        code, out, err = run(
            capsys, "figure", str(figure), "--config", str(path), "--out", str(out_csv)
        )
        assert code == EXIT_USAGE
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert out == ""
        assert not out_csv.exists()

    def test_print_defaults(self, capsys, tmp_path):
        # the printout is every key the figure accepts, as a loadable INI
        for figure, n_keys in ((3, 13), (5, 12)):
            code, out, _ = run(capsys, "figure", str(figure), "--print-defaults")
            assert code == EXIT_OK
            assert "trials = 10000" in out and "seed = 42" in out
            assert out.count(" = ") == n_keys
            path = tmp_path / "defaults.ini"
            path.write_text(out)
            printed = load_run_config(figure, path=str(path), env={})
            builtin = load_run_config(figure, env={})
            assert printed.spec == builtin.spec
            assert printed.stamp_lines() == builtin.stamp_lines()

    def test_zero_workers_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "sweep", None)
        code, out, err = run(capsys, "figure", "5", "--workers", "0", "--out", "x.csv")
        assert code == EXIT_USAGE
        assert err == "config error: workers must be at least 1\n"
        assert out == ""

    def test_run_without_out_is_usage_error(self, capsys):
        code, out, err = run(capsys, "figure", "5")
        assert code == EXIT_USAGE
        assert err == "error: the following arguments are required: --out\n"
        assert out == ""

    @pytest.mark.parametrize(
        "figure, section, setting",
        [
            (3, "scenario", "sinr_threshold_db = -20"),
            (3, "scenario", "conditioned_gain_linear = 0.5"),
            (3, "sweep", "interference_pct = 50"),
            (3, "sweep", "policies = M1"),
            (5, "scenario", "interference_fraction = 0.3"),
            (5, "scenario", "solver = sncpc"),
            (5, "policy", "moment_order = 4"),
            (5, "sweep", "gains_linear = 7"),
            (5, "sweep", "thresholds_db = -20"),
            (5, "scenario", "conditioned_gain_linear = 0.5"),
            # the policy label replaced the solver and its moment order
            (3, "scenario", "solver = epa"),
            (4, "policy", "moment_order = 4"),
            # belief policies expand to order 4 and EPA transmits at p_max
            (3, "policy", "truncation = 4"),
            (6, "policy", "truncation = 2"),
            (4, "baselines", "epa_level_linear = 1.0"),
            (5, "baselines", "epa_level_linear = 0.5"),
            # the pool size is figure --workers alone
            (5, "scenario", "workers = 2"),
            (3, "scenario", "workers = 1"),
        ],
    )
    def test_key_the_figure_does_not_read_is_usage_error(
        self, capsys, tmp_path, monkeypatch, figure, section, setting
    ):
        # an axis sets the key at every point, or the figure never reads it
        monkeypatch.setattr(cli, "sweep", None)
        path = tmp_path / "cfg.ini"
        path.write_text(f"[{section}]\n{setting}\n")
        key = setting.split(" = ")[0]
        code, out, err = run(
            capsys, "figure", str(figure), "--config", str(path), "--out", "x.csv"
        )
        assert code == EXIT_USAGE
        assert err == (
            f"config error: unknown config key {key!r} in [{section}] "
            f"for figure {figure}\n"
        )
        assert out == ""

    def test_keys_the_axes_override_are_rejected(self, capsys, tmp_path):
        # figure 5 reads neither solver nor moment_order (its policy axis
        # sets the label at every point), the load axis sets
        # interference_fraction, and figure 5 has no gain axis
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[scenario]\ntrials = 8\nnodes = 5\nsolver = sncpc\n"
            "interference_fraction = 0.3\n[grid]\nlevels = 11\n"
            "[policy]\nmoment_order = 4\n"
            "[sweep]\ninterference_pct = 80\npolicies = M1\ngains_linear = 7\n"
        )
        out_csv = tmp_path / "fig5.csv"
        code, out, err = run(
            capsys, "figure", "5", "--config", str(path), "--out", str(out_csv)
        )
        assert code == EXIT_USAGE
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert out == ""
        assert not out_csv.exists()

    def test_policy_label_names_the_conditioned_policy(self, capsys, tmp_path):
        # EPA transmits at p_max, the top grid level, on every row
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[scenario]\ntrials = 16\nnodes = 5\n[grid]\nlevels = 11\n"
            "[policy]\nlabel = EPA\n[sweep]\ngains_linear = 0.5, 1\n"
            "thresholds_db = -24, -18\n"
        )
        out_csv = tmp_path / "fig3.csv"
        code, _, _ = run(
            capsys, "figure", "3", "--config", str(path), "--out", str(out_csv)
        )
        assert code == EXIT_OK
        text = out_csv.read_text().splitlines()
        assert "# policy.label = EPA" in text
        assert not [line for line in text if "solver" in line or "moment_order" in line]
        rows = text[text.index("gain,threshold_db,metric,ci") + 1 :]
        assert len(rows) == 4
        assert all(row.split(",")[2] == "1" for row in rows)
        # the population figures' policy axis sets the label at every point
        code, _, err = run(
            capsys, "figure", "5", "--config", str(path), "--out", str(out_csv)
        )
        assert code == EXIT_USAGE
        assert "unknown config key 'label' in [policy] for figure 5" in err

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

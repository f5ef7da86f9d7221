"""Layered run configuration: defaults, INI overrides, environment seed."""
import pytest

from epipower.config import ConfigError, figure_defaults, load_run_config
from epipower.engine import EpistemicPolicy


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


class TestDefaults:
    def test_conditioned_defaults(self):
        cfg = load_run_config(3, env={})
        assert cfg.spec.n_nodes == 100
        assert cfg.spec.trials == 10000
        assert cfg.spec.seed == 42
        assert cfg.spec.max_stages == 1
        assert len(cfg.spec.grid) == 1001
        assert cfg.spec.grid.p_max == 1.0
        assert cfg.spec.interference_fraction == 1.0
        assert cfg.metric == "avg_power"
        assert cfg.axes == (
            ("gain", (0.2, 0.5, 1.0)),
            ("threshold_db", (-30.0, -27.0, -24.0, -21.0, -18.0)),
        )
        # the axes set the target and the tracked gain at every point
        table = figure_defaults(3)
        assert not {"sinr_threshold_db", "conditioned_gain_linear"} & set(
            table["scenario"]
        )
        assert not {"interference_pct", "policies"} & set(table["sweep"])
        # one label names the policy
        assert cfg.spec.label == "M1"
        assert table["policy"]["label"] == "M1"
        assert "solver" not in table["scenario"]
        assert "moment_order" not in table["policy"]

    def test_population_defaults(self):
        cfg = load_run_config(5, env={})
        assert len(cfg.spec.grid) == 10001
        assert cfg.spec.max_stages == 3
        assert cfg.spec.sncpc_max_iter == 2000
        assert cfg.metric == "outage"
        assert cfg.axes == (
            ("interference_pct", (20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0)),
            ("policy", ("M1", "M2", "M3", "M4", "EPA", "SNCPC")),
        )
        # the axes set the load and the policy label at every point
        table = figure_defaults(5)
        assert not {
            "interference_fraction", "solver", "conditioned_gain_linear"
        } & set(table["scenario"])
        assert not {"label", "moment_order"} & set(table["policy"])
        assert not {"gains_linear", "thresholds_db"} & set(table["sweep"])

    def test_figure_defaults_table(self):
        table = figure_defaults(4)
        assert "scenario" in table and "sweep" in table
        with pytest.raises(ConfigError):
            figure_defaults(7)

    def test_stamp_lists_every_resolved_key(self):
        cfg = load_run_config(5, env={})
        lines = cfg.stamp_lines()
        assert "scenario.seed = 42" in lines
        assert "scenario.trials = 10000" in lines
        assert any(line.startswith("sweep.policies") for line in lines)


class TestFileOverrides:
    def test_values_override_defaults(self, tmp_path):
        path = write(
            tmp_path,
            "[scenario]\ntrials = 64\nnodes = 5\n\n[grid]\nlevels = 11\n",
        )
        cfg = load_run_config(5, path=path, env={})
        assert cfg.spec.trials == 64
        assert cfg.spec.n_nodes == 5
        assert len(cfg.spec.grid) == 11
        assert "scenario.trials = 64" in cfg.stamp_lines()

    def test_unknown_section_rejected(self, tmp_path):
        path = write(tmp_path, "[simulation]\ntrials = 64\n")
        with pytest.raises(ConfigError, match=r"unknown config section \[simulation\]"):
            load_run_config(5, path=path, env={})

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "[scenario]\ntrails = 64\n")
        with pytest.raises(ConfigError, match="'trails'"):
            load_run_config(5, path=path, env={})

    def test_bad_value_rejected(self, tmp_path):
        path = write(tmp_path, "[scenario]\ntrials = many\n")
        with pytest.raises(ConfigError, match="trials"):
            load_run_config(5, path=path, env={})

    def test_bad_policy_label_rejected(self, tmp_path):
        path = write(tmp_path, "[sweep]\npolicies = M1, M9\n")
        with pytest.raises(ConfigError, match="M9"):
            load_run_config(5, path=path, env={})

    def test_policy_label_sets_the_spec(self, tmp_path):
        path = write(tmp_path, "[policy]\nlabel = M4\n")
        cfg = load_run_config(3, path=path, env={})
        assert cfg.spec.label == "M4" and cfg.spec.solver == "epistemic"
        assert cfg.spec.policy == EpistemicPolicy(moment_order=4)
        assert "policy.label = M4" in cfg.stamp_lines()
        path = write(tmp_path, "[policy]\nlabel = M7\n")
        with pytest.raises(ConfigError, match=r"^unknown policy label 'M7'"):
            load_run_config(3, path=path, env={})

    def test_empty_sweep_axis_rejected(self, tmp_path):
        for figure, text, keys in (
            (3, "thresholds_db =", "gains_linear and thresholds_db"),
            (6, "policies =", "interference_pct and policies"),
        ):
            path = write(tmp_path, f"[sweep]\n{text}\n")
            with pytest.raises(ConfigError, match=f"^sweep needs {keys}$"):
                load_run_config(figure, path=path, env={})

    @pytest.mark.parametrize(
        "figure, text, key",
        [
            (5, "interference_pct = 0", "interference_pct"),
            (5, "interference_pct = 50, 0", "interference_pct"),
            (5, "interference_pct = 150", "interference_pct"),
            (3, "gains_linear = 0", "gains_linear"),
            # a finite gain whose square overflows
            (3, "gains_linear = 1e200", "gains_linear"),
            # 10**(-4000/10) underflows to a zero target
            (3, "thresholds_db = -24, -4000", "thresholds_db"),
        ],
    )
    def test_sweep_value_making_a_point_invalid_rejected(
        self, tmp_path, figure, text, key
    ):
        path = write(tmp_path, f"[sweep]\n{text}\n")
        with pytest.raises(ConfigError, match=rf"^\[sweep\] {key} value "):
            load_run_config(figure, path=path, env={})

    def test_belief_labels_reject_a_grid_their_fit_overflows(self, tmp_path):
        grid = "[grid]\np_max_linear = 1e200\n"
        for figure in (3, 5):
            path = write(tmp_path, grid)
            with pytest.raises(ConfigError, match="overflows the belief fit"):
                load_run_config(figure, path=path, env={})
        # the policy axis names the label that fails
        path = write(tmp_path, grid + "[sweep]\npolicies = EPA, M2\n")
        with pytest.raises(ConfigError, match=r"^\[sweep\] policies value M2: p_max"):
            load_run_config(5, path=path, env={})
        # the comparators alone run on such a grid
        path = write(tmp_path, grid + "[sweep]\npolicies = EPA, SNCPC\n")
        assert load_run_config(5, path=path, env={}).spec.grid.p_max == 1e200

    def test_sncpc_sweep_cap_must_be_positive(self, tmp_path):
        path = write(tmp_path, "[baselines]\nsncpc_max_iter = 0\n")
        with pytest.raises(ConfigError, match="sncpc_max_iter must be at least 1"):
            load_run_config(5, path=path, env={})

    def test_inline_comments_stripped(self, tmp_path):
        path = write(tmp_path, "[scenario]\ntrials = 64  # quick run\n")
        cfg = load_run_config(5, path=path, env={})
        assert cfg.spec.trials == 64


class TestSeedPrecedence:
    def test_env_seed_applies_when_unpinned(self):
        cfg = load_run_config(3, env={"SEED": "7"})
        assert cfg.spec.seed == 7
        assert "scenario.seed = 7" in cfg.stamp_lines()

    def test_config_file_wins_over_env(self, tmp_path):
        path = write(tmp_path, "[scenario]\nseed = 9\n")
        cfg = load_run_config(3, path=path, env={"SEED": "7"})
        assert cfg.spec.seed == 9

    def test_bad_env_seed_rejected(self):
        with pytest.raises(ConfigError, match="SEED"):
            load_run_config(3, env={"SEED": "forty-two"})

    def test_workers_override(self):
        cfg = load_run_config(3, env={}, workers_override=4)
        assert cfg.spec.workers == 4

    def test_worker_count_never_stamped(self):
        # outputs must hash the same on a laptop and a 64-core box
        assert (
            load_run_config(3, env={}, workers_override=8).stamp_lines()
            == load_run_config(3, env={}).stamp_lines()
        )

    def test_stamp_lists_every_accepted_key(self):
        for figure in (3, 4, 5, 6):
            table = figure_defaults(figure)
            cfg = load_run_config(figure, env={})
            assert [line.split(" = ")[0] for line in cfg.stamp_lines()] == [
                f"{section}.{key}"
                for section in sorted(table)
                for key in sorted(table[section])
            ]

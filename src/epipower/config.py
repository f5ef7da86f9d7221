"""INI configuration for the simulation CLI.

Keys carry their unit in the name (``_db`` or ``_linear``) so a config
file can never be misread by a factor of ten.  Unknown sections or keys
are hard errors: a typo must not silently fall back to a default.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

from .engine import EpistemicPolicy
from .game import PowerGrid
from .harness import _AXES, POLICY_LABELS, ScenarioSpec

__all__ = ["ConfigError", "RunConfig", "load_run_config", "figure_defaults"]


class ConfigError(ValueError):
    """Malformed, unknown or out-of-range configuration input."""


_SCHEMA: dict[str, dict[str, str]] = {
    "scenario": {
        "nodes": "int",
        "rayleigh_sigma": "float",
        "noise_power_db": "float",
        "sinr_threshold_db": "float",
        "interference_fraction": "float",
        "conditioned_gain_linear": "float",
        "trials": "int",
        "seed": "int",
        "workers": "int",
        "solver": "str",
    },
    "grid": {
        "levels": "int",
        "p_max_linear": "float",
    },
    "policy": {
        "moment_order": "int",
        "truncation": "int",
        "max_stages": "int",
    },
    "baselines": {
        "epa_level_linear": "float",
        "sncpc_max_iter": "int",
    },
    "sweep": {
        "gains_linear": "floats",
        "thresholds_db": "floats",
        "interference_pct": "floats",
        "policies": "strs",
    },
}

_COMMON_DEFAULTS: dict[str, dict[str, str]] = {
    "scenario": {
        "nodes": "100",
        "rayleigh_sigma": "1.0",
        "noise_power_db": "-120.0",
        "trials": "10000",
        "workers": "1",
        "solver": "epistemic",
    },
    "policy": {"moment_order": "1", "truncation": "4"},
    "baselines": {"epa_level_linear": "1.0", "sncpc_max_iter": "2000"},
}

# conditioned-node sweeps: everyone transmits, shallow reasoning
_CONDITIONED_DEFAULTS: dict[str, dict[str, str]] = {
    "scenario": {
        "interference_fraction": "1.0",
        "sinr_threshold_db": "-24.0",
    },
    "grid": {"levels": "1001", "p_max_linear": "1.0"},
    "policy": {"max_stages": "1"},
    "sweep": {
        "gains_linear": "0.2, 0.5, 1.0",
        "thresholds_db": "-30, -27, -24, -21, -18",
    },
}

# population sweeps: finer grid, deeper reasoning, policy comparison
_POPULATION_DEFAULTS: dict[str, dict[str, str]] = {
    "scenario": {
        "interference_fraction": "0.8",
        "sinr_threshold_db": "-20.0",
    },
    "grid": {"levels": "10001", "p_max_linear": "1.0"},
    "policy": {"max_stages": "3"},
    "sweep": {
        "interference_pct": "20, 30, 40, 50, 60, 70, 80, 90",
        "policies": "M1, M2, M3, M4, EPA, SNCPC",
    },
}


# figure -> (reported metric, family defaults, ((CSV column, [sweep] key), ...));
# the axes are listed outermost first
_CONDITIONED_AXES = (("gain", "gains_linear"), ("threshold_db", "thresholds_db"))
_POPULATION_AXES = (("interference_pct", "interference_pct"), ("policy", "policies"))
_FIGURES = {
    3: ("avg_power", _CONDITIONED_DEFAULTS, _CONDITIONED_AXES),
    4: ("coverage", _CONDITIONED_DEFAULTS, _CONDITIONED_AXES),
    5: ("outage", _POPULATION_DEFAULTS, _POPULATION_AXES),
    6: ("avg_power", _POPULATION_DEFAULTS, _POPULATION_AXES),
}


def figure_defaults(figure: int) -> dict[str, dict[str, str]]:
    """Raw default key/value table for one of the four figure numbers."""
    if figure not in _FIGURES:
        raise ConfigError(f"unknown figure {figure}; expected 3, 4, 5 or 6")
    merged: dict[str, dict[str, str]] = {
        s: dict(kv) for s, kv in _COMMON_DEFAULTS.items()
    }
    for section, kv in _FIGURES[figure][1].items():
        merged.setdefault(section, {}).update(kv)
    return merged


@dataclass(frozen=True)
class RunConfig:
    """Typed, validated view of the merged defaults + file + environment."""

    spec: ScenarioSpec
    metric: str  # the ScenarioMetrics quantity the figure reports
    axes: tuple[tuple[str, tuple], ...]  # (CSV column, values), outermost first
    resolved: tuple[tuple[str, str], ...]  # flat (section.key, value) stamp

    def stamp_lines(self) -> list[str]:
        return [f"{key} = {value}" for key, value in self.resolved]


def _parse_value(kind: str, raw: str, where: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "floats":
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        if kind == "strs":
            return tuple(tok for tok in raw.replace(",", " ").split())
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"bad value for {where}: {raw!r}") from exc


def _merge_file(table: dict[str, dict[str, str]], path: str) -> None:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key {key!r} in [{section}]")
            table.setdefault(section, {})[key] = value


def load_run_config(
    figure: int,
    path: str | None = None,
    env: dict[str, str] | None = None,
    workers_override: int | None = None,
) -> RunConfig:
    """Resolve one figure run: defaults <- config file <- CLI overrides.

    The SEED environment variable seeds the run when the config file
    does not pin one; an explicit ``seed`` key always wins over it.
    """
    env = dict(os.environ) if env is None else env
    table = figure_defaults(figure)
    if path is not None:
        _merge_file(table, path)
    # seed precedence: config file > SEED env var > builtin 42
    scen_raw = table.setdefault("scenario", {})
    if "seed" not in scen_raw and "SEED" in env:
        raw = env["SEED"]
        try:
            int(raw)
        except ValueError as exc:
            raise ConfigError(f"SEED environment variable not an int: {raw!r}") from exc
        scen_raw["seed"] = raw
    scen_raw.setdefault("seed", "42")
    if workers_override is not None:
        scen_raw["workers"] = str(workers_override)

    typed = {
        section: {
            key: _parse_value(_SCHEMA[section][key], raw, f"[{section}] {key}")
            for key, raw in kv.items()
        }
        for section, kv in table.items()
    }
    scen, pol, base = typed["scenario"], typed["policy"], typed["baselines"]
    try:
        spec = ScenarioSpec(
            grid=PowerGrid.linear(
                n_levels=typed["grid"]["levels"],
                p_max=typed["grid"]["p_max_linear"],
            ),
            n_nodes=scen["nodes"],
            rayleigh_sigma=scen["rayleigh_sigma"],
            noise_power=10.0 ** (scen["noise_power_db"] / 10.0),
            sinr_threshold=10.0 ** (scen["sinr_threshold_db"] / 10.0),
            interference_fraction=scen["interference_fraction"],
            solver=scen["solver"],
            policy=EpistemicPolicy(
                moment_order=pol["moment_order"], truncation=pol["truncation"]
            ),
            max_stages=pol["max_stages"],
            epa_level=base["epa_level_linear"],
            sncpc_max_iter=base["sncpc_max_iter"],
            trials=scen["trials"],
            seed=scen["seed"],
            conditioned_gain=scen.get("conditioned_gain_linear"),
            workers=scen["workers"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    sweep = typed["sweep"]
    for label in sweep.get("policies", ()):
        if label not in POLICY_LABELS:
            raise ConfigError(
                f"unknown policy label {label!r}; expected one of {POLICY_LABELS}"
            )
    metric, _, axis_keys = _FIGURES[figure]
    axes = tuple((column, sweep[key]) for column, key in axis_keys)
    if not all(values for _, values in axes):
        raise ConfigError("sweep needs " + " and ".join(k for _, k in axis_keys))
    # each axis sets its own spec fields, so checking the values one at a
    # time finds every invalid point before the first one runs
    for (column, key), (_, values) in zip(axis_keys, axes):
        for value in values:
            try:
                _AXES[column](spec, value)
            except ValueError as exc:
                raise ConfigError(f"[sweep] {key} value {value}: {exc}") from None

    resolved = []
    for section in sorted(table):
        for key in sorted(table[section]):
            # worker count cannot influence results, and stamping it would
            # break byte-identity of outputs across machine configurations
            if (section, key) == ("scenario", "workers"):
                continue
            resolved.append((f"{section}.{key}", table[section][key]))
    return RunConfig(spec=spec, metric=metric, axes=axes, resolved=tuple(resolved))

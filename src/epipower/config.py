"""INI configuration for the simulation CLI.

Keys carry their unit in the name (``_db`` or ``_linear``) so a config
file can never be misread by a factor of ten.  Each figure accepts
exactly the keys of its family's defaults table, and its CSV stamp lists
exactly those: a key that a sweep axis sets at every point is in no
table.  Unknown sections or keys are hard errors: a typo must not
silently fall back to a default.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

from .game import MAX_SWEEPS, PowerGrid
from .harness import _AXES, ScenarioSpec, db_to_linear

__all__ = ["ConfigError", "RunConfig", "load_run_config", "figure_defaults"]


class ConfigError(ValueError):
    """Malformed, unknown or out-of-range configuration input."""


# INI key -> (value kind, the ScenarioSpec field it sets); key names are
# unique across sections.  The [grid] keys without a field build the
# grid, the [sweep] keys build the axes.
_KEYS: dict[str, tuple[str, str | None]] = {
    "nodes": ("int", "n_nodes"),
    "rayleigh_sigma": ("float", "rayleigh_sigma"),
    "noise_power_db": ("float", "noise_power"),
    "sinr_threshold_db": ("float", "sinr_threshold"),
    "interference_fraction": ("float", "interference_fraction"),
    "trials": ("int", "trials"),
    "seed": ("int", "seed"),
    "levels": ("int", None),
    "p_max_linear": ("float", None),
    "label": ("str", "label"),
    "max_stages": ("int", "max_stages"),
    "sncpc_max_iter": ("int", "sncpc_max_iter"),
    "gains_linear": ("floats", None),
    "thresholds_db": ("floats", None),
    "interference_pct": ("floats", None),
    "policies": ("strs", None),
}

_COMMON_DEFAULTS: dict[str, dict[str, str]] = {
    "scenario": {
        "nodes": "100",
        "rayleigh_sigma": "1.0",
        "noise_power_db": "-120.0",
        "trials": "10000",
        "seed": "42",
    },
    "grid": {"p_max_linear": "1.0"},
    "baselines": {"sncpc_max_iter": str(MAX_SWEEPS)},
}

# conditioned-node sweeps: everyone transmits, shallow reasoning; the axes
# set the tracked node's gain and SINR target
_CONDITIONED_DEFAULTS: dict[str, dict[str, str]] = {
    "scenario": {"interference_fraction": "1.0"},
    "grid": {"levels": "1001"},
    "policy": {"label": "M1", "max_stages": "1"},
    "sweep": {
        "gains_linear": "0.2, 0.5, 1.0",
        "thresholds_db": "-30, -27, -24, -21, -18",
    },
}

# population sweeps: finer grid, deeper reasoning, policy comparison; the
# axes set the load and the policy label
_POPULATION_DEFAULTS: dict[str, dict[str, str]] = {
    "scenario": {"sinr_threshold_db": "-20.0"},
    "grid": {"levels": "10001"},
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
    """The keys one of the four figures accepts, with their raw defaults."""
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


def _merge_file(table: dict[str, dict[str, str]], path: str, figure: int) -> None:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    for section in parser.sections():
        if section not in table:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in table[section]:
                raise ConfigError(
                    f"unknown config key {key!r} in [{section}] for figure {figure}"
                )
            table[section][key] = value


def load_run_config(
    figure: int,
    path: str | None = None,
    env: dict[str, str] | None = None,
    workers_override: int = 1,
) -> RunConfig:
    """Resolve one figure run: defaults <- SEED <- config file.

    The SEED environment variable replaces the default seed, so an
    explicit ``seed`` key in the config file always wins over it.  No
    key sets the pool size: only ``workers_override`` (``--workers``).
    """
    env = dict(os.environ) if env is None else env
    table = figure_defaults(figure)
    if "SEED" in env:
        raw = env["SEED"]
        try:
            int(raw)
        except ValueError as exc:
            raise ConfigError(f"SEED environment variable not an int: {raw!r}") from exc
        table["scenario"]["seed"] = raw
    if path is not None:
        _merge_file(table, path, figure)

    typed = {
        key: _parse_value(_KEYS[key][0], raw, f"[{section}] {key}")
        for section, kv in table.items()
        for key, raw in kv.items()
    }
    try:
        # a field no key sets keeps ScenarioSpec's default, which an axis
        # of the figure overrides at every point
        fields = {
            _KEYS[key][1]: db_to_linear(value) if key.endswith("_db") else value
            for key, value in typed.items()
            if _KEYS[key][1] is not None
        }
        if typed.get("policies"):
            # the axis sets the label at every point; taking its first value
            # lets a sweep of comparators alone run where belief fits overflow
            fields["label"] = typed["policies"][0]
        grid = PowerGrid.linear(n_levels=typed["levels"], p_max=typed["p_max_linear"])
        spec = ScenarioSpec(grid=grid, workers=workers_override, **fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    metric, _, axis_keys = _FIGURES[figure]
    axes = tuple((column, typed[key]) for column, key in axis_keys)
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

    resolved = tuple(
        (f"{section}.{key}", table[section][key])
        for section in sorted(table)
        for key in sorted(table[section])
    )
    return RunConfig(spec=spec, metric=metric, axes=axes, resolved=resolved)

"""Distributed uplink power control under channel uncertainty.

The package models a shared-receiver network where each transmitter
must clear a SINR target at minimum power.  With full channel knowledge
that is a finite game solved by best-response iteration; without it,
each node reasons over a Gamma surrogate of the interference it cannot
observe, simulating its rivals' choices before committing to its own.
A Monte Carlo harness scores both against equal-allocation and
mean-interference baselines.
"""

from .baselines import SncpcResult, epa_profile, sncpc_solve
from .batch import (
    BatchEpistemicResult,
    BatchIterativeResult,
    epistemic_response,
    select_lowest_feasible_batch,
    sncpc_response,
)
from .engine import (
    EpistemicPolicy,
    GameOutcome,
    NodeEngine,
    NodeOutcome,
    UpdateRecord,
    inter_slope,
    intra_slope,
    run_epistemic_game,
)
from .game import (
    BestResponse,
    NashResult,
    NetworkState,
    NodeConfig,
    NonConvergenceError,
    PowerGrid,
    best_response_full_csi,
    nash_deviation_scan,
    sinr,
    solve_nash_full_csi,
    throughput,
)
from .harness import (
    CHUNK_TRIALS,
    POLICY_LABELS,
    ScenarioMetrics,
    ScenarioSpec,
    run_scenario,
    sweep_conditioned,
    sweep_population,
)
from .moments import (
    GammaInterferenceModel,
    MomentVector,
    RayleighPrior,
    SeriesValue,
    expected_inverse_shifted,
    fit_gamma_mme,
    fit_interference,
    gamma_central_moments,
    gamma_raw_moment,
    inverse_moment_bracket,
    inverse_moment_value,
    inverse_shifted_moment,
    raw_to_central,
    sinr_raw_moment,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # moments
    "RayleighPrior",
    "GammaInterferenceModel",
    "MomentVector",
    "SeriesValue",
    "fit_gamma_mme",
    "fit_interference",
    "gamma_raw_moment",
    "raw_to_central",
    "gamma_central_moments",
    "inverse_moment_bracket",
    "inverse_moment_value",
    "inverse_shifted_moment",
    "expected_inverse_shifted",
    "sinr_raw_moment",
    # game
    "PowerGrid",
    "NodeConfig",
    "NetworkState",
    "sinr",
    "throughput",
    "BestResponse",
    "best_response_full_csi",
    "solve_nash_full_csi",
    "NashResult",
    "nash_deviation_scan",
    "NonConvergenceError",
    # engine
    "EpistemicPolicy",
    "NodeEngine",
    "NodeOutcome",
    "GameOutcome",
    "UpdateRecord",
    "inter_slope",
    "intra_slope",
    "run_epistemic_game",
    # batch
    "BatchEpistemicResult",
    "BatchIterativeResult",
    "epistemic_response",
    "sncpc_response",
    "select_lowest_feasible_batch",
    # baselines
    "epa_profile",
    "sncpc_solve",
    "SncpcResult",
    # harness
    "ScenarioSpec",
    "ScenarioMetrics",
    "run_scenario",
    "sweep_conditioned",
    "sweep_population",
    "CHUNK_TRIALS",
    "POLICY_LABELS",
]

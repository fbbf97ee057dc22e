"""orgsim: self-organizing task allocation on NK performance landscapes.

Multi-agent hillclimbing on decomposed binary decision problems, with
Beta-Bernoulli learning of interdependencies and periodic reallocation of
decisions through second-price auctions.

The package namespace is lazy (PEP 562): ``import orgsim`` imports no
submodule, and so not numpy either. An exported name imports its submodule on
first access. That lets ``orgsim.cli`` choose the BLAS thread count before
numpy loads, and leaves a library user's own numpy settings alone.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "errors": ("ConfigError", "InvariantViolation"),
    "landscape": (
        "DECOMPOSABLE_K2",
        "ENUMERATION_LIMIT",
        "NONDECOMPOSABLE_K5",
        "InteractionMatrix",
        "Landscape",
        "build_stylized_matrix",
        "contribution",
        "generate_landscape",
        "global_optimum",
        "load_matrix",
        "performance",
        "random_matrix",
    ),
    "learning": (
        "BeliefCounters",
        "belief",
        "init_beliefs",
        "mean_external_belief",
        "mean_internal_belief",
        "update_beliefs",
    ),
    "organization": (
        "INCENTIVE_PRESETS",
        "AgentState",
        "Allocation",
        "IncentiveScheme",
        "agent_utility",
        "flip_improves",
        "initial_allocation",
        "mirrored_allocation",
    ),
    "auction": (
        "STRATEGY_INTERDEPENDENCE",
        "STRATEGY_UTILITY",
        "Offer",
        "TradeRecord",
        "clear_auction",
        "select_offer_interdependence",
        "select_offer_utility",
    ),
    "simulation": (
        "CI99_Z",
        "GRID_STRUCTURES",
        "ROLE_HILLCLIMB",
        "ROLE_INIT",
        "ROLE_LANDSCAPE",
        "ROLE_NOISE",
        "ROLE_TIEBREAK",
        "STRATEGIES",
        "STRATEGY_BENCHMARK",
        "BeliefSnapshots",
        "ExperimentResult",
        "LedgerSink",
        "ReplicationResult",
        "ScenarioConfig",
        "aggregate_norm_series",
        "expand_grid",
        "replication_rng",
        "run_experiment",
        "run_grid",
        "run_replication",
        "write_beliefs_csv",
        "write_metadata_json",
        "write_results_csv",
        "write_trades_csv",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

"""orgsim: self-organizing task allocation on NK performance landscapes.

Multi-agent hillclimbing on decomposed binary decision problems, with
Beta-Bernoulli learning of interdependencies and periodic reallocation of
decisions through second-price auctions.
"""

__version__ = "0.1.0"

from .errors import ConfigError, InvariantViolation
from .landscape import (
    DECOMPOSABLE_K2,
    ENUMERATION_LIMIT,
    NONDECOMPOSABLE_K5,
    InteractionMatrix,
    Landscape,
    build_stylized_matrix,
    contribution,
    generate_landscape,
    global_optimum,
    load_matrix,
    performance,
    random_matrix,
)
from .learning import (
    BeliefCounters,
    belief,
    init_beliefs,
    mean_external_belief,
    mean_internal_belief,
    update_beliefs,
)
from .organization import (
    INCENTIVE_PRESETS,
    AgentState,
    Allocation,
    IncentiveScheme,
    agent_utility,
    flip_improves,
    hillclimb_step,
    initial_allocation,
    mirrored_allocation,
    utility,
)
from .auction import (
    STRATEGY_INTERDEPENDENCE,
    STRATEGY_UTILITY,
    Offer,
    TradeRecord,
    bid_interdependence,
    bid_utility,
    clear_auction,
    select_offer_interdependence,
    select_offer_utility,
)
from .simulation import (
    CI99_Z,
    GRID_INCENTIVES,
    GRID_STRATEGIES,
    GRID_STRUCTURES,
    ROLE_HILLCLIMB,
    ROLE_INIT,
    ROLE_LANDSCAPE,
    ROLE_NOISE,
    ROLE_TIEBREAK,
    STRATEGIES,
    STRATEGY_BENCHMARK,
    BeliefSnapshots,
    ExperimentResult,
    LedgerSink,
    ReplicationResult,
    ScenarioConfig,
    aggregate_norm_series,
    expand_grid,
    replication_rng,
    run_experiment,
    run_grid,
    run_replication,
    write_beliefs_csv,
    write_metadata_json,
    write_results_csv,
    write_trades_csv,
)

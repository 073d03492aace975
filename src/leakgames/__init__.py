"""Solvers and executable audits for zero-sum information-leakage games.

Games couple defender/attacker action sets with a family of channels;
utility is either posterior g-vulnerability (QIF games, solved exactly by
one epigraph linear program) or the differential-privacy level (DP
games, solved by normalized Dinkelbach rounds for hidden choice and
argmin-max for visible choice).
"""

from .core import (
    AdjacencyRelation,
    Channel,
    Distribution,
    DpMeasure,
    GainFunction,
    GameSpec,
    LabeledMatrix,
    LeakGameError,
    QifMeasure,
    SolveReport,
    ValidationError,
    align_outputs,
    bayes_gain,
    channel_from_rows,
    point_mass,
    uniform,
)
from .algebra import cascade, concat, hidden_choice, marginalize_tags, visible_choice
from .measures import (
    bayes_posterior,
    check_dp,
    dp_level,
    is_conforming,
    leakage,
    posterior_vulnerability,
    prior_vulnerability,
)
from .qif import (
    attacker_best_response,
    project_simplex,
    qif_utility,
    solve_qif,
    subgradient,
    worst_case_vulnerability,
)
from .dp import (
    LpProblem,
    dp_utility_hidden,
    dp_utility_visible,
    hidden_upper_bound,
    solve_dp_hidden,
    solve_dp_visible,
    solve_lp,
)
from .scenarios import (
    CorrelationTable,
    CrowdsConfig,
    NO_DETECTION,
    build_binary_sum,
    build_crowds,
    build_dp_example,
    build_ldp_game,
    build_two_millionaires,
    compas_tables,
    crowds_channel,
    manet_config,
    randomized_response,
    simulate_crowds,
)
from .audits import (
    brute_force_qif,
    brute_force_dp_hidden,
    check_bayes_hypothesis_bound,
    check_info_increase_bounds,
    vnm_independence_witness,
)

__version__ = "0.1.0"

"""Equilibrium computation for DP games.

Utilities are differential-privacy levels, so mixed strategies behave
differently on the two sides of the game: the level of a visible choice
is the maximum level over the support (quasi-max), while the level of a
hidden choice is at most that maximum (quasi-convex).  Consequently any
full-support attacker strategy is optimal, and the defender problem
collapses to

    min_delta  max_a  VDP[ sum_d delta(d) C_da ]        (hidden choice)
    min_d      max_a  VDP[ C_da ]                       (visible choice)

The visible case is a finite argmin-max.  The hidden case is generalized
fractional programming over the entry ratios of adjacent rows: writing
f_j(delta) = sum_d delta(d) C_da(x,y) and g_j(delta) for the adjacent row
x', the objective is max_j f_j/g_j.  It is minimized by the normalized
Dinkelbach rounds of Crouzeix, Ferland and Schaible ("An algorithm for
generalized fractional programs", JOTA 47, 1985), which converge
superlinearly: round k sets lambda_k to the max ratio at delta_k and
solves the linear program minimizing t subject to
(f_j - lambda_k g_j)(delta) / g_j(delta_k) <= t, whose solution is
delta_{k+1}.  Each round LP is solved on a working set of rows, adding the
most violated rows until none is (constraint generation).

The round duals certify the answer.  For any mu >= 0 over the terms the
optimal max ratio is at least the mediant sum_j mu_j f_j / sum_j mu_j g_j,
and that ratio of linear forms is smallest at a vertex of the simplex, so
L(mu) = min_d (mu . F[:, d]) / (mu . G[:, d]) is a lower bound however
accurately the LP was solved.  The value is ln(lambda) at the best
strategy found, and the certificate gap is that value minus ln L, in nats.

A ``Channel`` stores float dust as exact zeros, so every delta-mixture
has the zero pattern conformance checked, and the round ratios, the dual
bound and the levels test ``> 0``.  Ratio terms where both coefficient
vectors vanish (a zero column shared by the whole family, as conformance
guarantees) carry no constraint and are dropped when the term set is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Distribution,
    GameSpec,
    NumericalFailure,
    SolveReport,
    ValidationError,
    ZERO_TOL,
    point_mass,
    uniform,
)
from .measures import dp_levels
from .qif import epigraph_lp, strategy_weights

DEFAULT_TOLERANCE = 1e-9
DEFAULT_MAX_ITER = 1000


def hidden_levels(game: GameSpec, deltas) -> np.ndarray:
    """Levels (nats) of the delta-mixed channels, (..., a) for delta (..., d).

    Summed one defender action at a time, so a strategy gets the same bits
    alone or in a batch; a mixed entry is zero iff every channel mixed is.
    """
    weights = np.moveaxis(np.asarray(deltas, dtype=float), -1, 0)[..., None, None, None]
    mixed = sum(w * m for w, m in zip(weights, game.matrices))  # (..., a, x, y)
    return dp_levels(mixed, game.require_dp().adjacency, game.inputs)


def dp_utility_hidden(game: GameSpec, delta, alpha) -> float:
    """DP level (nats) of the hidden-choice composition under (delta, alpha).

    The visible choice over attacker actions collapses to a maximum over
    the support of alpha of the level of the delta-mixed channel.
    """
    d = strategy_weights(delta, game.defender_actions)
    a = strategy_weights(alpha, game.attacker_actions)
    return float(hidden_levels(game, d)[a > 0].max(initial=0.0))


def dp_utility_visible(game: GameSpec, delta, alpha) -> float:
    """DP level (nats) when both choices are visible: max over the supports."""
    levels = dp_levels(game.matrices, game.require_dp().adjacency, game.inputs)
    d = strategy_weights(delta, game.defender_actions)
    a = strategy_weights(alpha, game.attacker_actions)
    return float(levels[np.ix_(d > 0, a > 0)].max(initial=0.0))


# the worst pure-profile level over the supports bounds the hidden utility
hidden_upper_bound = dp_utility_visible


@dataclass(frozen=True)
class LpProblem:
    """Parametric linear program of one unnormalized Dinkelbach round.

    Minimize z subject to z >= (f_j - lam * g_j) . delta for every ratio
    term j, with delta on the probability simplex.  Coefficient rows are
    indexed by (attacker action, ordered adjacent input pair, output) and
    have one entry per defender action.
    """

    f_coeffs: np.ndarray  # (terms, defender actions)
    g_coeffs: np.ndarray
    lam: float

    def __post_init__(self):
        f = np.asarray(self.f_coeffs, dtype=float)
        g = np.asarray(self.g_coeffs, dtype=float)
        if f.ndim != 2 or f.shape != g.shape:
            raise ValidationError(f"coefficient arrays disagree: {f.shape} vs {g.shape}")
        object.__setattr__(self, "f_coeffs", f)
        object.__setattr__(self, "g_coeffs", g)

    def objective(self, delta: np.ndarray) -> float:
        """F(delta) = max_j [f_j(delta) - lam * g_j(delta)]."""
        return float(((self.f_coeffs - self.lam * self.g_coeffs) @ delta).max())


def _epigraph(coeff: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Minimize t subject to coeff . delta <= t with delta on the simplex.

    Returns delta, the LP's t and the row duals (non-negative, summing to one).
    """
    if coeff.shape[0] == 0:
        raise ValidationError("linear program has no ratio terms")
    t_column = -np.ones((coeff.shape[0], 1))
    delta, duals, res = epigraph_lp(np.hstack([coeff, t_column]), coeff.shape[1])
    return delta, float(res.x[-1]), duals


def solve_lp(problem: LpProblem) -> tuple[np.ndarray, float]:
    """Minimize the epigraph variable of a Dinkelbach round.

    Returns (delta, z) with z equal to the constraint maximum at delta.
    """
    delta, t, _ = _epigraph(problem.f_coeffs - problem.lam * problem.g_coeffs)
    z = problem.objective(delta)
    if abs(z - t) > 1e-7:
        raise NumericalFailure(f"epigraph value {t!r} disagrees with constraint max {z!r}")
    return delta, z


def build_ratio_terms(game: GameSpec) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient arrays of every live ratio term of a DP game.

    Terms run over attacker actions, ordered adjacent input pairs (both
    directions, which makes the log-free ratio formulation capture the
    symmetric maximum), and outputs.  Terms whose coefficients are all
    zero on both sides (a column the whole family zeroes out, as the
    conforming zero pattern guarantees happens in lockstep) are dropped.
    """
    i, j = game.require_dp().adjacency.index_pairs(game.inputs)
    stack = game.matrices.transpose(1, 2, 3, 0)
    # (a, x, y, d) -> rows (a, pair, y), one column per defender action
    f = stack[:, i].reshape(-1, stack.shape[-1])
    g = stack[:, j].reshape(-1, stack.shape[-1])
    live = f.any(axis=1) | g.any(axis=1)
    return f[live], g[live]


def _max_ratio(f_coeffs: np.ndarray, g_coeffs: np.ndarray, delta: np.ndarray) -> float:
    """Largest f_j(delta)/g_j(delta), one division per ordered-pair term.

    The rule of ``measures.max_ratios``: at a vertex, the same bits.
    """
    fv = f_coeffs @ delta
    gv = g_coeffs @ delta
    live = fv > 0
    if not live.any():
        return 1.0
    if np.any(gv[live] <= 0):
        raise NumericalFailure(
            "ratio with zero denominator on a conforming family; "
            "channel data is inconsistent"
        )
    return float((fv[live] / gv[live]).max())


def _top(values: np.ndarray, k: int) -> np.ndarray:
    return np.argpartition(values, -k)[-k:] if values.size > k else np.arange(values.size)


def _round(coeff: np.ndarray, delta: np.ndarray):
    """One round LP over all rows of ``coeff``, solved by constraint generation.

    Starts from the 4 n_d rows largest at ``delta`` plus each vertex's
    largest row, and adds the most violated rows until none is.  Returns
    the LP's delta, its constraint maximum, the row duals padded with
    zeros (duals of the full round LP) and the working-set size.
    """
    k = 4 * coeff.shape[1]
    work = np.union1d(_top(coeff @ delta, k), coeff.argmax(axis=0))
    while True:
        delta, t, duals = _epigraph(coeff[work])
        violation = coeff @ delta - t
        violation[work] = -np.inf
        new = _top(violation, k)
        new = new[violation[new] > 1e-12]
        if new.size == 0:
            break
        work = np.union1d(work, new)
    padded = np.zeros(coeff.shape[0])
    padded[work] = duals
    return delta, float((coeff @ delta).max()), padded, int(work.size)


def _lower_bound(f_coeffs: np.ndarray, g_coeffs: np.ndarray, mu: np.ndarray) -> float:
    """L(mu), the lower bound on the optimal max ratio proven by mu >= 0.

    Vertices with mu . G = 0 < mu . F never bind; one with both zero leaves
    the bound at 1, which holds for every game.  L is rounded down by more
    than the floating-point error of the two sums.
    """
    num, den = mu @ f_coeffs, mu @ g_coeffs
    pos = den > 0
    if not pos.any() or np.any(~pos & (num <= 0)):
        return 1.0
    rounding = 4 * (np.count_nonzero(mu) + 2) * np.finfo(float).eps
    return float((num[pos] / den[pos]).min()) * (1.0 - rounding)


def solve_dp_hidden(
    game: GameSpec,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveReport:
    """Defender-optimal strategy for hidden choice by normalized Dinkelbach rounds.

    The value is ln(lambda) at the best strategy found; the certificate gap
    is that value minus the best lower bound in nats proven by the round
    duals, and the report is certified once the gap meets ``tolerance``.
    ``max_iter`` is the round limit.  Any full-support attacker strategy
    is optimal; the report carries the uniform one.
    """
    game.require_dp()
    if tolerance <= 0:
        raise ValidationError(f"tolerance must be positive, got {tolerance!r}")
    f_coeffs, g_coeffs = build_ratio_terms(game)
    n_d = len(game.defender_actions)
    delta = np.full(n_d, 1.0 / n_d)
    g_uniform = g_coeffs @ delta  # conformance makes this positive on every term
    lam = best = _max_ratio(f_coeffs, g_coeffs, delta)
    # 1 bounds every game: adjacent rows both sum to one, so some ratio is >= 1
    best_delta, lower = delta, 1.0
    for vertex in np.eye(n_d):  # the best vertex is the visible optimum; rounds start at uniform
        if (ratio := _max_ratio(f_coeffs, g_coeffs, vertex)) < best:
            best, best_delta = ratio, vertex
    lambdas: list[float] = []
    residuals: list[float] = []
    sizes: list[int] = []
    while math.log(best / lower) > tolerance and len(lambdas) < max_iter:
        lambdas.append(lam)
        g_now = g_coeffs @ delta
        scale = np.where(g_now > ZERO_TOL, g_now, g_uniform)[:, None]
        delta, residual, duals, size = _round((f_coeffs - lam * g_coeffs) / scale, delta)
        residuals.append(residual)
        sizes.append(size)
        lower = max(lower, _lower_bound(f_coeffs, g_coeffs, duals / scale[:, 0]))
        lam = _max_ratio(f_coeffs, g_coeffs, delta)
        if lam < best:
            best, best_delta = lam, delta

    gap = max(math.log(best / lower), 0.0)
    return SolveReport(
        defender_strategy=Distribution(game.defender_actions, best_delta),
        value=math.log(best),
        iterations=len(lambdas),
        certificate_gap=gap,
        certified=gap <= tolerance,
        attacker_strategy=uniform(game.attacker_actions),
        diagnostics={
            "method": "normalized-dinkelbach",
            "tolerance": tolerance,
            "best_lower_bound": math.log(lower),
            "lambda_history": lambdas,
            "residual_history": residuals,
            "working_set": sizes,
        },
    )


def solve_dp_visible(game: GameSpec) -> SolveReport:
    """Defender-optimal pure strategy for visible choice.

    Picks the action minimizing the worst per-profile DP level (lowest
    index on ties); the value is exact, so the certificate gap is zero.
    """
    levels = dp_levels(game.matrices, game.require_dp().adjacency, game.inputs)  # (d, a)
    worst = levels.max(axis=1)
    d_idx = int(np.argmin(worst))
    return SolveReport(
        defender_strategy=point_mass(game.defender_actions, game.defender_actions[d_idx]),
        value=float(worst[d_idx]),
        iterations=1,
        certificate_gap=0.0,
        attacker_strategy=uniform(game.attacker_actions),
        diagnostics={
            "method": "argmin-max",
            "pure_levels": levels.tolist(),
            "defender_action": game.defender_actions[d_idx],
        },
    )

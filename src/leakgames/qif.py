"""Equilibrium computation for QIF games.

The defender-optimal strategy of a QIF game minimizes the worst-case
posterior vulnerability over pure attacker responses,

    f(delta) = max_a V[prior, sum_d delta(d) C_da]
             = max_a sum_y max_w S0[a, :, w, y] . delta,

with S0[a, d, w, y] = sum_x prior(x) g(w, x) C_da(x, y).  With a finite
guess set f is convex and piecewise linear, so one epigraph linear
program gives the exact equilibrium (Boyd and Vandenberghe, Convex
Optimization, section 4.3): minimize t over delta on the simplex, z[a, y]
and t subject to S0[a, :, w, y] . delta <= z[a, y] and sum_y z[a, y] <= t.

The LP duals certify the answer.  The multipliers of the t rows are an
attacker strategy alpha; those of the (a, w, y) rows, normalized over w,
are guess weights beta[a, w, y].  For any such alpha and beta, f(delta)
is at least sum_a alpha(a) sum_{w, y} beta[a, w, y] S0[a, :, w, y] . delta,
so L = min_d of that sum at the vertex delta = e_d bounds the game value
from below whatever tolerances the LP solver ran with.

``subgradient`` and ``project_simplex`` expose the first-order view of f
to the property suite.  Differentiating the active linear branch of f at
delta gives components

    h_d = sum_y sum_x prior(x) * C_{d,a*}(x,y) * g(w*_y, x),

where a* attains the outer max and w*_y the per-column max.  (A variant
of this formula with an extra leading delta(d) factor circulates; it
fails the subgradient inequality on hand-checked instances, while the
form above satisfies it.  The property suite tests the inequality
directly.)
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .core import (
    Distribution,
    GameSpec,
    Infeasible,
    LabelMismatch,
    NumericalFailure,
    SolveReport,
    ValidationError,
)
from .measures import prior_vulnerability

DEFAULT_TOLERANCE = 1e-4
DEFAULT_MAX_ITER = 200_000


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex.

    Sort-based algorithm; idempotent on simplex points.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValidationError(f"expected a non-empty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("cannot project a non-finite vector")
    n = v.size
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho_candidates = u + (1.0 - css) / np.arange(1, n + 1)
    rho = int(np.nonzero(rho_candidates > 0)[0][-1])
    theta = (1.0 - css[rho]) / (rho + 1)
    return np.maximum(v + theta, 0.0)


def strategy_weights(delta, labels: tuple[str, ...]) -> np.ndarray:
    """Weights of a strategy over ``labels``; a sequence is validated as a Distribution."""
    if isinstance(delta, Distribution):
        if delta.labels != labels:
            raise LabelMismatch(
                f"strategy labels {delta.labels} do not match actions {labels}"
            )
        return delta.weights
    return Distribution(labels, delta).weights


def epigraph_lp(a_ub, n_d: int, lower=(), max_iter: int | None = None):
    """Minimize t subject to a_ub . (delta, extra, t) <= 0, delta on the simplex.

    The extra columns are bounded below by ``lower`` (-inf for free), t is
    free.  Returns delta (clipped and renormalized), the row duals clipped
    at zero and the scipy result; delta and the duals are None when the
    HiGHS iteration limit ``max_iter`` stopped the solve.
    """
    n_vars = a_ub.shape[1]
    cost = np.zeros(n_vars)
    cost[-1] = 1.0
    bounds = np.concatenate([np.zeros(n_d), np.asarray(lower, dtype=float), [-np.inf]])
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.zeros(a_ub.shape[0]),
        A_eq=(np.arange(n_vars) < n_d)[None, :].astype(float),
        b_eq=[1.0],
        bounds=np.column_stack([bounds, np.full(n_vars, np.inf)]),
        method="highs",
        options={} if max_iter is None else {"maxiter": max_iter},
    )
    if res.status == 1 and max_iter is not None:
        return None, None, res
    if res.status == 2:
        raise Infeasible("epigraph program reported infeasible (internal error)")
    if not res.success:
        raise NumericalFailure(f"epigraph program failed: {res.message}")
    delta = np.clip(res.x[:n_d], 0.0, None)
    total = delta.sum()
    if not (np.isfinite(total) and total > 0):
        raise NumericalFailure("epigraph program returned a degenerate strategy")
    return delta / total, np.clip(-res.ineqlin.marginals, 0.0, None), res


class QifObjective:
    """Precomputed evaluator for f(delta) and its subgradients.

    Folds prior, gain, and channel family into one tensor
    S0[a, d, w, y] = sum_x prior(x) g(w, x) C_da(x, y).  A strategy, or a
    (batch, d) array of them, meets S0 one attacker action at a time: the
    per-action block S0[a] . delta has shape (..., w, y), so peak memory
    is one (batch, w, y) block, never (batch, a, w, y).
    """

    def __init__(self, game: GameSpec):
        measure = game.require_qif()
        weighted_gain = measure.gain.table * measure.prior.weights  # (w, x)
        # C-contiguous: the certificate's einsum rounds differently on a view
        self._s0 = np.ascontiguousarray((weighted_gain @ game.matrices).transpose(1, 0, 2, 3))

    def _block(self, delta: np.ndarray, a_idx: int) -> np.ndarray:
        """S0[a_idx] . delta, shape (..., w, y); S0 is not copied."""
        s0 = self._s0[a_idx]
        return (delta @ s0.reshape(len(s0), -1)).reshape(*np.shape(delta)[:-1], *s0.shape[1:])

    def per_action_values(self, delta: np.ndarray) -> np.ndarray:
        blocks = (self._block(delta, a) for a in range(len(self._s0)))
        return np.stack([b.max(axis=-2).sum(axis=-1) for b in blocks], axis=-1)

    def value(self, delta: np.ndarray) -> tuple[float, int]:
        """f(delta) and the attacker action index attaining it (lowest wins ties)."""
        values = self.per_action_values(delta)
        a_idx = int(np.argmax(values))
        return float(values[a_idx]), a_idx

    def value_batch(self, deltas: np.ndarray) -> np.ndarray:
        """f over a batch of strategies, shape (batch,)."""
        return self.per_action_values(deltas).max(axis=-1)

    def value_and_subgradient(self, delta: np.ndarray) -> tuple[float, np.ndarray]:
        value, a_idx = self.value(delta)
        w_star = np.argmax(self._block(delta, a_idx), axis=0)
        h = self._s0[a_idx][:, w_star, np.arange(w_star.size)].sum(axis=1)
        return value, h


def qif_utility(game: GameSpec, delta, alpha) -> float:
    """Expected posterior vulnerability of a mixed strategy profile."""
    obj = QifObjective(game)
    d = strategy_weights(delta, game.defender_actions)
    a = strategy_weights(alpha, game.attacker_actions)
    return float(obj.per_action_values(d) @ a)


def worst_case_vulnerability(game: GameSpec, delta) -> tuple[float, str]:
    """Value of the best pure attacker response to delta, and that action.

    Equal to the maximum of the mixed-profile utility over all attacker
    strategies; ties break toward the lowest action index.
    """
    obj = QifObjective(game)
    d = strategy_weights(delta, game.defender_actions)
    value, a_idx = obj.value(d)
    return value, game.attacker_actions[a_idx]


def attacker_best_response(game: GameSpec, delta) -> str:
    """Pure attacker action maximizing vulnerability against delta."""
    return worst_case_vulnerability(game, delta)[1]


def subgradient(game: GameSpec, delta) -> np.ndarray:
    """A subgradient of f at delta (see module docstring for the formula)."""
    obj = QifObjective(game)
    d = strategy_weights(delta, game.defender_actions)
    return obj.value_and_subgradient(d)[1]


def _certificate(s0: np.ndarray, res, duals: np.ndarray, live: np.ndarray, has_zero_row):
    """Dual attacker strategy and the lower bound it proves (module docstring)."""
    n_a, n_d, n_w, n_y = s0.shape
    alpha = duals[live.size:]
    if not alpha.sum() > 0:
        raise NumericalFailure("epigraph program returned no attacker strategy")
    mass = np.zeros((n_a, n_w, n_y))
    np.put(mass, live, duals[: live.size])
    # the multiplier of a bound z[a, y] >= 0 is the weight of the all-zero
    # rows it stands for: it adds nothing to L but counts in beta's total
    on_zero = np.clip(res.lower.marginals[n_d:-1], 0.0, None) * has_zero_row
    total = (mass.sum(axis=1) + on_zero.reshape(n_a, n_y))[:, None, :]
    beta = np.divide(mass, total, out=np.full(mass.shape, 1.0 / n_w), where=total > 0)
    alpha /= alpha.sum()
    return alpha, float(np.einsum("a,awy,adwy->d", alpha, beta, s0).min())


def solve_qif(
    game: GameSpec,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveReport:
    """Defender-optimal strategy of a QIF game from one epigraph LP.

    ``max_iter`` is the HiGHS simplex iteration limit.  The value is f at
    the returned strategy, and the certificate gap is that value minus the
    lower bound proven by the dual attacker strategy; the report is
    certified when the gap meets ``tolerance``.  When the iteration limit
    is hit, the uniform strategy is returned with the prior vulnerability
    as its lower bound and ``certified=False``.
    """
    if not tolerance > 0:
        raise ValidationError(f"tolerance must be positive, got {tolerance!r}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter!r}")
    obj = QifObjective(game)
    s0 = obj._s0
    n_a, n_d, n_w, n_y = s0.shape
    if n_d == 1:
        return SolveReport(
            defender_strategy=Distribution(game.defender_actions, np.ones(1)),
            value=obj.value(np.ones(1))[0],
            iterations=1,
            certificate_gap=0.0,
            diagnostics={"method": "epigraph-lp", "note": "single-action game"},
        )

    # columns (delta, z[a, y], t); rows: the (a, w, y) rows with a nonzero
    # coefficient, then one t row per attacker action.  An all-zero row
    # says z[a, y] >= 0 and becomes that bound instead.
    coef = s0.transpose(0, 2, 3, 1).reshape(-1, n_d)
    nonzero = coef.any(axis=1)
    live = np.flatnonzero(nonzero)
    has_zero_row = ~nonzero.reshape(n_a, n_w, n_y).all(axis=1).ravel()
    a_idx, _, y_idx = np.unravel_index(live, (n_a, n_w, n_y))
    r, c = np.nonzero(coef[live])
    t_rows = live.size + np.arange(n_a)
    n_vars = n_d + n_a * n_y + 1
    # S0[a, :, w, y] . delta - z[a, y] <= 0 on the live rows, then
    # sum_y z[a, y] - t <= 0 on the t rows
    vals = np.concatenate(
        [coef[live[r], c], -np.ones(live.size), np.ones(n_a * n_y), -np.ones(n_a)]
    )
    rows = np.concatenate([r, np.arange(live.size), np.repeat(t_rows, n_y), t_rows])
    cols = np.concatenate(
        [c, n_d + a_idx * n_y + y_idx, np.arange(n_d, n_vars - 1), np.full(n_a, n_vars - 1)]
    )
    a_ub = sparse.csr_array((vals, (rows, cols)), shape=(live.size + n_a, n_vars))
    delta, duals, res = epigraph_lp(
        a_ub, n_d, np.where(has_zero_row, 0.0, -np.inf), max_iter=max_iter
    )
    alpha = None
    if delta is None:  # iteration limit
        delta = np.full(n_d, 1.0 / n_d)
        bound = prior_vulnerability(game.measure.gain, game.measure.prior)
    else:
        alpha, bound = _certificate(s0, res, duals, live, has_zero_row)
    value, _ = obj.value(delta)
    gap = max(value - bound, 0.0)
    return SolveReport(
        defender_strategy=Distribution(game.defender_actions, delta),
        value=value,
        iterations=int(res.nit),
        certificate_gap=gap,
        certified=bool(res.success) and gap <= tolerance,
        attacker_strategy=alpha if alpha is None else Distribution(game.attacker_actions, alpha),
        diagnostics={
            "method": "epigraph-lp",
            "tolerance": tolerance,
            "best_lower_bound": bound,
            "lp_status": int(res.status),
        },
    )

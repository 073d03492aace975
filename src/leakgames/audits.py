"""Executable audits: brute-force oracles and theorem-shaped checks.

The oracles enumerate a simplex lattice and evaluate the solver
objectives directly, providing solver-independent reference values for
small games.  The bound checks mechanize the Bayesian readings of
differential privacy (posterior-odds bound; prior-to-posterior
information-increase bound with its 2-alpha converse), and the
independence witness constructs the three-channel family showing that
neither vulnerability nor DP level respects the expected-utility axiom
of independence: mixing with a third channel reverses a strict
preference under both measures.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AdjacencyRelation,
    Channel,
    Distribution,
    GameSpec,
    NonConforming,
    NumericalFailure,
    ParameterOutOfRange,
    TooManyActions,
    ValidationError,
    channel_from_rows,
    uniform,
)
from .algebra import hidden_choice
from .measures import INFINITE, bayes_posterior, check_dp, dp_level
from .qif import QifObjective
from .dp import hidden_levels, solve_dp_hidden, solve_dp_visible

MAX_ORACLE_ACTIONS = 4


def simplex_grid(n: int, step: float) -> np.ndarray:
    """Fixed-stride lattice over the n-simplex, vertices included.

    Points are all compositions k/m with k non-negative integers summing
    to m = round(1/step).
    """
    if not (0 < step <= 0.1 + 1e-12):
        raise ValidationError(f"grid step must lie in (0, 0.1], got {step!r}")
    m = max(1, round(1.0 / step))
    points = []
    for dividers in itertools.combinations(range(m + n - 1), n - 1):
        bounds = (-1, *dividers, m + n - 1)
        points.append([b - a - 1 for a, b in zip(bounds, bounds[1:])])
    return np.array(points, dtype=float) / m


def _grid_minimum(game: GameSpec, objective, grid_step: float) -> tuple[Distribution, float]:
    """Minimizer over the simplex lattice of ``objective``, which maps (batch, d) to (batch,)."""
    if len(game.defender_actions) > MAX_ORACLE_ACTIONS:
        raise TooManyActions(
            f"grid oracle handles at most {MAX_ORACLE_ACTIONS} defender actions, "
            f"got {len(game.defender_actions)}"
        )
    grid = simplex_grid(len(game.defender_actions), grid_step)
    values = objective(grid)
    best = int(np.argmin(values))
    return Distribution(game.defender_actions, grid[best]), float(values[best])


def brute_force_qif(game: GameSpec, grid_step: float) -> tuple[Distribution, float]:
    """Grid minimizer of the worst-case vulnerability over the simplex."""
    return _grid_minimum(game, QifObjective(game).value_batch, grid_step)


def brute_force_dp_hidden(game: GameSpec, grid_step: float) -> tuple[Distribution, float]:
    """Grid minimizer of the hidden-choice DP level over the simplex."""
    return _grid_minimum(game, lambda deltas: hidden_levels(game, deltas).max(axis=-1), grid_step)


def _posteriors(prior: Distribution, channel: Channel):
    joint = prior.weights[:, None] * channel.matrix
    p_y = joint.sum(axis=0)
    return joint, p_y


@dataclass(frozen=True)
class HypothesisBoundReport:
    """Posterior-odds audit of a channel at its own DP level.

    For every sampled prior, output, and adjacent pair, the posterior
    odds p(x|y)/p(x'|y) must not exceed e^epsilon times the prior odds.
    ``max_slack`` is the largest ln(posterior odds / prior odds) minus
    epsilon observed (non-positive when the bound holds).
    """

    epsilon: float
    max_slack: float
    violations: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return not self.violations


def check_bayes_hypothesis_bound(
    channel: Channel,
    adj: AdjacencyRelation,
    priors: list[Distribution],
    slack_tol: float = 1e-9,
) -> HypothesisBoundReport:
    """Verify the posterior-odds bound with epsilon = dp_level(channel).

    Terms with C(x,y) = 0 are skipped, as in ``dp_level``.  Slacks are
    screened with numpy's ``log``; the few near the maximum or past the
    tolerance are recomputed with ``math.log``, so the report does not
    depend on how numpy rounds.
    """
    eps = dp_level(channel, adj)
    if eps == INFINITE:
        raise NonConforming("channel does not conform to the adjacency relation")
    for prior in priors:
        if prior.labels != channel.inputs:
            raise ValidationError("prior labels must match channel inputs")
        if np.any(prior.weights <= 0):
            raise ValidationError("hypothesis-bound audit needs full-support priors")
    i, j = adj.index_pairs(channel.inputs)
    # (pair, output) terms in loop order; conformance makes C(x',y) live too.
    k, y = np.nonzero(channel.matrix[i] > 0)
    if not priors or not k.size:
        return HypothesisBoundReport(eps, 0.0, ())
    i, j = i[k], j[k]
    weights = np.array([prior.weights for prior in priors])
    joint = weights[:, :, None] * channel.matrix
    ratio = (joint[:, i, y] / joint[:, j, y]) / (weights[:, i] / weights[:, j])
    log_ratio = np.log(ratio)
    top = np.unique(ratio[log_ratio >= log_ratio.max() - 1e-9])
    max_slack = max(math.log(r) for r in top.tolist()) - eps
    violations = []
    for p_idx, t in np.argwhere(log_ratio - eps > slack_tol - 1e-9):
        slack = math.log(ratio[p_idx, t]) - eps
        if slack > slack_tol:
            violations.append(
                f"prior#{p_idx} pair ({channel.inputs[i[t]]},{channel.inputs[j[t]]}) "
                f"output {channel.outputs[y[t]]}: slack {slack:.3e}"
            )
    return HypothesisBoundReport(eps, max_slack, tuple(violations))


@dataclass(frozen=True)
class InfoIncreaseReport:
    """Two-directional audit of the information-increase bound.

    Direction 1: a channel at DP level <= alpha keeps every
    posterior-to-prior ratio p(x|y)/p(x) inside [e^-alpha, e^alpha] for
    every sampled prior.  Direction 2: if the ratios stay inside the
    alpha band on an exhaustive interior prior grid, the channel is
    2*alpha differentially private.
    """

    alpha: float
    dp_level: float
    direction1_applicable: bool
    direction1_violations: tuple[str, ...]
    grid_alpha: float
    direction2_applicable: bool
    direction2_holds: bool

    @property
    def holds(self) -> bool:
        if self.direction1_applicable and self.direction1_violations:
            return False
        if self.direction2_applicable and not self.direction2_holds:
            return False
        return True


def check_info_increase_bounds(
    channel: Channel,
    adj: AdjacencyRelation,
    priors: list[Distribution],
    alpha: float,
    grid_step: float = 0.1,
    ratio_tol: float = 1e-9,
) -> InfoIncreaseReport:
    """Audit the local-DP information-increase correspondence at level alpha."""
    if adj.mode != "all-pairs":
        raise ValidationError(
            "the information-increase bound is a local-DP statement; "
            "use an all-pairs adjacency"
        )
    if alpha < 0:
        raise ValidationError(f"alpha must be non-negative, got {alpha!r}")
    eps = dp_level(channel, adj)
    if eps == INFINITE:
        raise NonConforming("channel does not conform to all-pairs adjacency")

    direction1 = eps <= alpha + 1e-12
    violations = []
    if direction1:
        for p_idx, prior in enumerate(priors):
            if np.any(prior.weights <= 0):
                raise ValidationError("information-increase audit needs full-support priors")
            _, p_y = _posteriors(prior, channel)
            for y in range(len(channel.outputs)):
                if p_y[y] <= 0:
                    continue
                ratios = channel.matrix[:, y] / p_y[y]
                if np.any(ratios > math.exp(alpha) + ratio_tol) or np.any(
                    ratios < math.exp(-alpha) - ratio_tol
                ):
                    violations.append(
                        f"prior#{p_idx} output {channel.outputs[y]}: ratio outside "
                        f"[e^-{alpha}, e^{alpha}]"
                    )

    # Exhaustive interior prior grid for the converse direction.
    n = len(channel.inputs)
    grid = simplex_grid(n, grid_step)
    interior = grid[np.all(grid > 0, axis=1)]
    grid_alpha = 0.0
    for weights in interior:
        p_y = weights @ channel.matrix
        live = p_y > 0
        ratios = channel.matrix[:, live] / p_y[live]
        ratios = ratios[ratios > 0]
        if ratios.size:
            grid_alpha = max(grid_alpha, float(np.abs(np.log(ratios)).max()))
    direction2 = grid_alpha <= alpha + 1e-12
    direction2_holds = True
    if direction2:
        direction2_holds = check_dp(channel, adj, 2.0 * alpha)

    return InfoIncreaseReport(
        alpha=alpha,
        dp_level=eps,
        direction1_applicable=direction1,
        direction1_violations=tuple(violations),
        grid_alpha=grid_alpha,
        direction2_applicable=direction2,
        direction2_holds=direction2_holds,
    )


@dataclass(frozen=True)
class IndependenceWitness:
    """Preference reversal under 1/2-mixing, in both utility readings.

    ``first``/``second`` are the two comparable channels, ``mixer`` the
    channel whose hidden 1/2-mix reverses the strict preference between
    them, for Bayes vulnerability and for DP level alike.
    """

    noise: float
    first: Channel
    second: Channel
    mixer: Channel
    qif_before: tuple[float, float]
    qif_after: tuple[float, float]
    dp_before: tuple[float, float]
    dp_after: tuple[float, float]

    @property
    def reversal_holds(self) -> bool:
        return (
            self.qif_before[0] < self.qif_before[1]
            and self.qif_after[0] > self.qif_after[1]
            and self.dp_before[0] < self.dp_before[1]
            and self.dp_after[0] > self.dp_after[1]
        )


def vnm_independence_witness(d: float) -> IndependenceWitness:
    """Construct the three-channel independence counterexample at noise d.

    Requires 0 < d < 1/4.  Before mixing, the second channel is strictly
    preferred (more leakage) under both Bayes vulnerability and DP level;
    after a hidden 1/2-mix with the third channel the preference strictly
    reverses, because the second mix collapses to a constant channel.
    """
    if not (0.0 < d < 0.25):
        raise ParameterOutOfRange(f"noise must lie strictly in (0, 1/4), got {d!r}")
    inputs = ("0", "1")
    outputs = ("0", "1")
    c1 = channel_from_rows(inputs, outputs, [[1 - 2 * d, 2 * d], [2 * d, 1 - 2 * d]])
    c2 = channel_from_rows(inputs, outputs, [[1 - d, d], [d, 1 - d]])
    c3 = channel_from_rows(inputs, outputs, [[d, 1 - d], [1 - d, d]])
    prior = uniform(inputs)
    adj = AdjacencyRelation.all_pairs()
    half = np.array([0.5, 0.5])
    mix1 = hidden_choice(half, [c1, c3])
    mix2 = hidden_choice(half, [c2, c3])
    witness = IndependenceWitness(
        noise=d,
        first=c1,
        second=c2,
        mixer=c3,
        qif_before=(bayes_posterior(prior, c1), bayes_posterior(prior, c2)),
        qif_after=(bayes_posterior(prior, mix1), bayes_posterior(prior, mix2)),
        dp_before=(dp_level(c1, adj), dp_level(c2, adj)),
        dp_after=(dp_level(mix1, adj), dp_level(mix2, adj)),
    )
    if not witness.reversal_holds:
        raise NumericalFailure(f"independence reversal failed at noise {d!r}")
    return witness


def random_priors(labels, count: int, seed: int) -> list[Distribution]:
    """Reproducible full-support priors: flat Dirichlet draws."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        w = rng.dirichlet(np.ones(len(labels)))
        w = np.clip(w, 1e-12, None)
        out.append(Distribution(tuple(labels), w / w.sum()))
    return out


def audit_game(game: GameSpec, seed: int = 0, n_priors: int = 50) -> dict:
    """Run the theorem-shaped audits relevant to a game; JSON-friendly result."""
    rng = np.random.default_rng(seed)
    result: dict = {"seed": seed, "checks": {}, "violations": []}

    def record(name: str, ok: bool, detail: str = ""):
        result["checks"][name] = bool(ok)
        if not ok:
            result["violations"].append(f"{name}: {detail}" if detail else name)

    if game.is_qif():
        obj = QifObjective(game)
        ones = np.ones(len(game.defender_actions))
        # 50 (delta, delta2) pairs, then 50 (d1, d2, lam) triples, drawn in that order
        deltas, deltas2 = rng.dirichlet(ones, size=(50, 2)).swapaxes(0, 1)
        gaps = []
        for delta, delta2, f2 in zip(deltas, deltas2, obj.value_batch(deltas2)):
            f1, h = obj.value_and_subgradient(delta)
            gaps.append(f2 - (f1 + h @ (delta2 - delta)))
        ok = all(gap >= -1e-9 for gap in gaps)
        record("subgradient_inequality", ok, f"worst margin {min(0.0, *gaps):.3e}")

        draws = [(rng.dirichlet(ones), rng.dirichlet(ones), rng.random()) for _ in range(50)]
        d1, d2, lam = (np.array(column) for column in zip(*draws))
        lhs = obj.value_batch(lam[:, None] * d1 + (1 - lam[:, None]) * d2)
        rhs = lam * obj.value_batch(d1) + (1 - lam) * obj.value_batch(d2)
        ok = bool(np.all(lhs <= rhs + 1e-9))
        record("objective_convexity", ok)
    else:
        visible_report = solve_dp_visible(game)
        levels = np.array(visible_report.diagnostics["pure_levels"])  # (d, a)
        keys = (f"{d}|{a}" for d in game.defender_actions for a in game.attacker_actions)
        result["pure_levels"] = dict(zip(keys, levels.ravel().tolist()))

        # the hidden solve's lower bound must hold at every strategy, its own included
        hidden_report = solve_dp_hidden(game)
        floor = hidden_report.diagnostics["best_lower_bound"] - 1e-12
        ok_sound = hidden_levels(game, hidden_report.defender_strategy.weights).max() >= floor

        n_d, n_a = levels.shape
        ok_q = ok_b = True
        for _ in range(25):
            delta = rng.dirichlet(np.ones(n_d))
            alpha = rng.dirichlet(np.ones(n_a))
            mixed = hidden_levels(game, delta)
            hidden = mixed[alpha > 0].max(initial=0.0)
            bound = levels[np.ix_(delta > 0, alpha > 0)].max(initial=0.0)
            ok_b = ok_b and hidden <= bound + 1e-9
            ok_sound = ok_sound and mixed.max() >= floor
            ok_q = ok_q and bool(np.all(mixed <= levels.max(axis=0) + 1e-9))
        record("quasi_convexity", ok_q)
        record("hidden_upper_bound", ok_b)
        record("hidden_lower_bound_sound", ok_sound)

        record(
            "visible_geq_hidden",
            visible_report.value >= hidden_report.diagnostics["best_lower_bound"],
            f"visible {visible_report.value:.6f} vs hidden {hidden_report.value:.6f}",
        )
        result["hidden_value"] = hidden_report.value
        result["visible_value"] = visible_report.value

        priors = random_priors(game.inputs, n_priors, seed)
        adjacency = game.measure.adjacency
        ok = True
        worst_slack = -math.inf
        for a in game.attacker_actions:
            for d in game.defender_actions:
                rep = check_bayes_hypothesis_bound(game.channel(d, a), adjacency, priors)
                worst_slack = max(worst_slack, rep.max_slack)
                ok = ok and rep.holds
        record("bayes_hypothesis_bound", ok, f"max slack {worst_slack:.3e}")

    result["ok"] = not result["violations"]
    return result

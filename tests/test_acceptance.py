"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from leakgames.algebra import hidden_choice, visible_choice
from leakgames.audits import (
    brute_force_dp_hidden,
    brute_force_qif,
    check_bayes_hypothesis_bound,
    check_info_increase_bounds,
    random_priors,
    simplex_grid,
    vnm_independence_witness,
)
from leakgames.core import (
    AdjacencyRelation,
    Distribution,
    DpMeasure,
    GainFunction,
    GameSpec,
    QifMeasure,
    bayes_gain,
    channel_from_rows,
    uniform,
)
from leakgames.dp import (
    DpObjective,
    dp_utility_hidden,
    hidden_upper_bound,
    solve_dp_hidden,
    solve_dp_visible,
)
from leakgames.measures import bayes_posterior, check_dp, dp_level, posterior_vulnerability
from leakgames.qif import QifObjective, project_simplex, solve_qif
from leakgames.scenarios import (
    build_binary_sum,
    build_crowds,
    build_dp_example,
    build_ldp_game,
    build_two_millionaires,
    manet_config,
    simulate_crowds,
)

MASTER_SEED = 20240808
ALL = AdjacencyRelation.all_pairs()


@contextmanager
def criterion(number: int, description: str, time_limit: float):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < time_limit, f"criterion {number} took {elapsed:.2f}s >= {time_limit}s"
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"\n[criterion {number}] {status} ({elapsed:.2f}s) {description}")


def _rand_channel(rng, inputs, outputs, floor=1e-3):
    raw = rng.random((len(inputs), len(outputs))) + floor
    return channel_from_rows(inputs, outputs, raw / raw.sum(1, keepdims=True))


def _rand_qif_game(rng, n_d=2, n_a=2, n_x=2, n_y=3):
    inputs = [f"x{i}" for i in range(n_x)]
    outputs = [f"y{j}" for j in range(n_y)]
    chans = {
        (str(d), str(a)): _rand_channel(rng, inputs, outputs)
        for d in range(n_d)
        for a in range(n_a)
    }
    return GameSpec(
        tuple(str(d) for d in range(n_d)),
        tuple(str(a) for a in range(n_a)),
        chans,
        QifMeasure(uniform(inputs), bayes_gain(inputs)),
    )


def _rand_dp_game(rng, n_d=2, n_a=2, n_x=2, n_y=3):
    inputs = [f"x{i}" for i in range(n_x)]
    outputs = [f"y{j}" for j in range(n_y)]
    chans = {
        (str(d), str(a)): _rand_channel(rng, inputs, outputs, floor=0.05)
        for d in range(n_d)
        for a in range(n_a)
    }
    return GameSpec(
        tuple(str(d) for d in range(n_d)),
        tuple(str(a) for a in range(n_a)),
        chans,
        DpMeasure(ALL),
    )


def test_criterion_1_two_millionaires_equilibrium():
    with criterion(1, "two-millionaires equilibrium (0.5/0.5, value 0.75)", 1.0):
        report = solve_qif(build_two_millionaires(), tolerance=1e-3, max_iter=4000)
        assert abs(report.defender_strategy.weights[0] - 0.5) <= 5e-3
        assert abs(report.value - 0.75) <= 1e-3


def test_criterion_2_binary_sum_equilibrium():
    with criterion(2, "binary-sum equilibrium (0.5/0.5, value 0.5)", 1.0):
        report = solve_qif(build_binary_sum(), tolerance=1e-3, max_iter=4000)
        assert abs(report.defender_strategy.weights[0] - 0.5) <= 5e-3
        assert abs(report.value - 0.5) <= 1e-3


def test_criterion_3_dp_example():
    with criterion(3, "two-mechanism DP game: levels, hidden mix, visible argmin-max", 1.0):
        game = build_dp_example()
        adjacency = game.measure.adjacency
        expected = {("0", "0"): 2.197, ("0", "1"): 1.099, ("1", "0"): 1.099, ("1", "1"): 1.95}
        for profile, target in expected.items():
            assert dp_level(game.channel(*profile), adjacency) == pytest.approx(
                target, abs=5e-3
            )
        hidden = solve_dp_hidden(game)
        assert abs(hidden.defender_strategy.weights[0] - 0.14) <= 0.01
        assert abs(hidden.defender_strategy.weights[1] - 0.86) <= 0.01
        visible = solve_dp_visible(game)
        assert visible.diagnostics["defender_action"] == "1"
        assert np.allclose(visible.defender_strategy.weights, [0.0, 1.0])


def test_criterion_4_compas_case_study():
    with criterion(4, "COMPAS local-DP design: 16 levels, hidden delta*, visible d*=4", 10.0):
        game = build_ldp_game()
        adjacency = game.measure.adjacency
        reference = np.array(
            [
                [0.0395, 0.4020, 0.0404, 0.7306],
                [0.5994, 0.0145, 0.0404, 0.7306],
                [0.5994, 0.4020, 0.0007, 0.7306],
                [0.5994, 0.4020, 0.0404, 0.0237],
            ]
        )
        levels = np.array(
            [
                [dp_level(game.channel(d, a), adjacency) for a in game.attacker_actions]
                for d in game.defender_actions
            ]
        )
        assert np.all(np.abs(levels - reference) <= 5e-3)

        hidden = solve_dp_hidden(game)
        target = np.array([0.5714, 0.0183, 0.0000, 0.4103])
        assert np.all(np.abs(hidden.defender_strategy.weights - target) <= 0.01)
        assert abs(hidden.value - 0.3892) <= 5e-3

        visible = solve_dp_visible(game)
        assert visible.diagnostics["defender_action"] == "4"
        assert abs(visible.value - 0.5994) <= 5e-3


def test_criterion_5_crowds_case_study():
    with criterion(
        5, "Crowds MANET: profile envelope, mixed <= pure minimax, MC 3-sigma", 60.0
    ):
        config = manet_config(forward_prob=0.8)
        game = build_crowds(config)
        prior = game.measure.prior
        table = np.array(
            [
                [bayes_posterior(prior, game.channel(d, a)) for a in game.attacker_actions]
                for d in game.defender_actions
            ]
        )
        assert table.shape == (9, 9)
        assert table.min() >= 0.03 and table.max() <= 0.15

        pure_minimax = table.max(axis=1).min()
        report = solve_qif(game, tolerance=1e-3, max_iter=4000)
        assert report.value <= pure_minimax + 1e-9

        runs = 33_334  # 9 sites x ... no: per initiator; 30 x 33,334 > 1e6 walks
        analytic = game.channel("5", "1")
        empirical = simulate_crowds(config, "5", "1", runs_per_initiator=runs, seed=7)
        assert empirical.outputs == analytic.outputs
        sigma = np.sqrt(analytic.matrix * (1 - analytic.matrix) / runs)
        deviation = np.abs(empirical.matrix - analytic.matrix)
        with np.errstate(invalid="ignore"):
            z = np.where(
                sigma > 0, deviation / sigma, np.where(deviation > 0, np.inf, 0.0)
            )
        assert z.max() <= 3.0


def test_criterion_6_theorem_suite():
    with criterion(6, "theorem suite: 9 properties x 100 seeded instances, zero violations", 120.0):
        rng = np.random.default_rng(MASTER_SEED)

        # convexity of posterior vulnerability under hidden choice
        for _ in range(100):
            k = int(rng.integers(2, 4))
            inputs = ["x0", "x1", "x2"]
            chans = [_rand_channel(rng, inputs, ["y0", "y1", "y2"]) for _ in range(k)]
            mu = rng.dirichlet(np.ones(k))
            prior = Distribution(tuple(inputs), rng.dirichlet(np.ones(3)))
            gain = GainFunction(("w0", "w1"), tuple(inputs), rng.random((2, 3)) * 2)
            mixed = posterior_vulnerability(gain, prior, hidden_choice(mu, chans))
            avg = sum(m * posterior_vulnerability(gain, prior, c) for m, c in zip(mu, chans))
            assert mixed <= avg + 1e-9

        # quasi-convexity of the DP level under hidden choice
        for _ in range(100):
            k = int(rng.integers(2, 4))
            chans = [_rand_channel(rng, ["a", "b"], ["y0", "y1", "y2"], 0.05) for _ in range(k)]
            mu = rng.dirichlet(np.ones(k))
            mixed = dp_level(hidden_choice(mu, chans), ALL)
            cap = max(dp_level(c, ALL) for c, m in zip(chans, mu) if m > 0)
            assert mixed <= cap + 1e-9

        # quasi-max equality of the DP level under visible choice
        for _ in range(100):
            k = int(rng.integers(2, 4))
            chans = [_rand_channel(rng, ["a", "b"], ["y0", "y1"], 0.05) for _ in range(k)]
            mu = rng.dirichlet(np.ones(k))
            if k > 2:
                mu[int(rng.integers(0, k))] = 0.0
                mu = mu / mu.sum()
            composed = dp_level(visible_choice(mu, chans), ALL)
            cap = max(dp_level(c, ALL) for c, m in zip(chans, mu) if m > 0)
            assert abs(composed - cap) <= 1e-12

        # pure-profile upper bound on the hidden-choice utility
        for _ in range(100):
            game = _rand_dp_game(rng)
            delta = rng.dirichlet(np.ones(2))
            alpha = rng.dirichlet(np.ones(2))
            assert dp_utility_hidden(game, delta, alpha) <= hidden_upper_bound(
                game, delta, alpha
            ) + 1e-9

        # visible equilibria leak at least as much as hidden equilibria
        for _ in range(100):
            game = _rand_dp_game(rng)
            hidden = solve_dp_hidden(game)
            assert solve_dp_visible(game).value >= hidden.diagnostics["best_lower_bound"]

        # any full-support attacker strategy dominates
        for _ in range(100):
            game = _rand_dp_game(rng)
            delta = rng.dirichlet(np.ones(2))
            alpha = rng.dirichlet(np.ones(2))
            full = dp_utility_hidden(game, delta, uniform(game.attacker_actions))
            assert full >= dp_utility_hidden(game, delta, alpha) - 1e-12

        # subgradient inequality
        for _ in range(100):
            game = _rand_qif_game(rng, n_d=int(rng.integers(2, 4)))
            objective = QifObjective(game)
            n = len(game.defender_actions)
            base, other = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            f, h = objective.value_and_subgradient(base)
            assert objective.value(other)[0] >= f + h @ (other - base) - 1e-9

        # Euclidean projection beats every lattice point
        for _ in range(100):
            n = int(rng.integers(2, 4))
            v = rng.normal(size=n) * 2.0
            projected = project_simplex(v)
            lattice = simplex_grid(n, 0.02)
            best_grid = np.linalg.norm(lattice - v, axis=1).min()
            assert np.linalg.norm(projected - v) <= best_grid + 1e-12

        # posterior-odds and information-increase bounds
        for i in range(100):
            chan = _rand_channel(rng, ["a", "b"], ["y0", "y1", "y2"], 0.05)
            priors = random_priors(chan.inputs, 10, seed=MASTER_SEED + i)
            assert check_bayes_hypothesis_bound(chan, ALL, priors).holds
            eps = dp_level(chan, ALL)
            report = check_info_increase_bounds(chan, ALL, priors, alpha=eps)
            assert report.direction1_applicable and report.holds
            # converse: the grid ratio bound certifies 2*alpha differential privacy
            report2 = check_info_increase_bounds(
                chan, ALL, priors, alpha=report.grid_alpha
            )
            assert report2.direction2_applicable and report2.direction2_holds
            assert check_dp(chan, ALL, 2.0 * report.grid_alpha)


def test_criterion_7_oracle_agreement():
    with criterion(7, "solver vs brute force: 100 random 2-action games per solver", 120.0):
        rng = np.random.default_rng(MASTER_SEED + 1)
        grid_step = 1e-3

        worst_qif = 0.0
        for _ in range(100):
            game = _rand_qif_game(rng)
            tolerance = 1e-9
            report = solve_qif(game, tolerance=tolerance, max_iter=10_000)
            oracle_delta, oracle_value = brute_force_qif(game, grid_step)
            objective = QifObjective(game)
            grid = simplex_grid(2, grid_step)
            values = objective.value_batch(grid)
            slope = float(np.abs(np.diff(values)).max()) / grid_step
            allowance = tolerance + slope * grid_step
            gap = abs(report.value - oracle_value)
            worst_qif = max(worst_qif, gap - allowance)
            assert gap <= allowance

        worst_dp = 0.0
        for _ in range(100):
            game = _rand_dp_game(rng)
            report = solve_dp_hidden(game)
            oracle_delta, oracle_value = brute_force_dp_hidden(game, grid_step)
            objective = DpObjective(game)
            grid = simplex_grid(2, grid_step)
            values = objective.value_batch(grid)
            slope = float(np.abs(np.diff(values)).max()) / grid_step
            allowance = report.certificate_gap + slope * grid_step
            gap = abs(report.value - oracle_value)
            worst_dp = max(worst_dp, gap - allowance)
            assert report.value <= oracle_value + 1e-9  # the grid cannot beat the optimum
            assert gap <= allowance

        print(f"\n  worst qif slack {worst_qif:.3e}, worst dp slack {worst_dp:.3e}")


def test_criterion_8_independence_witness():
    with criterion(8, "independence-axiom reversal for four noise levels, both readings", 10.0):
        for d in (0.01, 0.05, 0.1, 0.2):
            witness = vnm_independence_witness(d)
            assert witness.reversal_holds
            # closed forms in both readings
            assert witness.qif_before == pytest.approx((1 - 2 * d, 1 - d), abs=1e-12)
            assert witness.qif_after == pytest.approx(((1 + d) / 2, 0.5), abs=1e-12)
            assert witness.dp_before[0] == pytest.approx(
                math.log((1 - 2 * d) / (2 * d)), abs=1e-12
            )
            assert witness.dp_before[1] == pytest.approx(
                math.log((1 - d) / d), abs=1e-12
            )
            assert witness.dp_after[0] == pytest.approx(
                math.log((1 + d) / (1 - d)), abs=1e-12
            )
            assert witness.dp_after[1] == pytest.approx(0.0, abs=1e-12)

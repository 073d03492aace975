"""Normalized Dinkelbach solver and visible-choice argmin-max for DP games."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leakgames.core import (
    AdjacencyRelation,
    DpMeasure,
    GameSpec,
    MeasureMismatch,
    channel_from_rows,
    uniform,
)
from leakgames import cli, jsonio
from leakgames.dp import (
    DpObjective,
    LpProblem,
    build_ratio_terms,
    dp_utility_hidden,
    dp_utility_visible,
    hidden_upper_bound,
    solve_dp_hidden,
    solve_dp_visible,
    solve_lp,
    _epigraph,
    _round,
)
from leakgames.measures import dp_level
from leakgames.scenarios import build_dp_example
from leakgames.audits import audit_game, simplex_grid
from sparse_channels import sparse_game


def _random_dp_game(rng, n_d=2, n_a=2, n_x=2, n_y=3):
    inputs = [f"x{i}" for i in range(n_x)]
    outputs = [f"y{j}" for j in range(n_y)]
    chans = {}
    for d in range(n_d):
        for a in range(n_a):
            raw = rng.random((n_x, n_y)) + 0.05
            chans[(str(d), str(a))] = channel_from_rows(
                inputs, outputs, raw / raw.sum(1, keepdims=True)
            )
    return GameSpec(
        tuple(str(d) for d in range(n_d)),
        tuple(str(a) for a in range(n_a)),
        chans,
        DpMeasure(AdjacencyRelation.all_pairs()),
    )


def _sparse_dp_game(seed, dust):
    """A conforming game of sparse channels from ``sparse_game``."""
    stack, inputs, outputs, adj = sparse_game(seed, dust, conforming=True)
    d_actions = tuple(f"d{k}" for k in range(stack.shape[0]))
    a_actions = tuple(f"a{k}" for k in range(stack.shape[1]))
    chans = {
        (d, a): channel_from_rows(inputs, outputs, stack[k, l])
        for k, d in enumerate(d_actions)
        for l, a in enumerate(a_actions)
    }
    return GameSpec(d_actions, a_actions, chans, DpMeasure(adj))


# -- utilities -----------------------------------------------------------------

def test_hidden_utility_point_defender_uniform_attack():
    g = build_dp_example()
    v = dp_utility_hidden(g, [1, 0], [0.5, 0.5])
    assert v == pytest.approx(max(math.log(9), math.log(3)), abs=1e-12)


def test_hidden_utility_half_mix_pure_attack():
    g = build_dp_example()
    v = dp_utility_hidden(g, [0.5, 0.5], [1, 0])
    assert v == pytest.approx(math.log(0.455 / 0.065), abs=1e-12)
    assert v == pytest.approx(1.946, abs=5e-4)


def test_hidden_utility_single_support():
    g = build_dp_example()
    mixed_level = dp_utility_hidden(g, [0.3, 0.7], [0, 1])
    adj = g.measure.adjacency
    from leakgames.algebra import hidden_choice

    direct = dp_level(hidden_choice([0.3, 0.7], g.channels_for_attack("1")), adj)
    assert mixed_level == pytest.approx(direct, abs=1e-15)


def test_utilities_reject_qif_game():
    from leakgames.scenarios import build_two_millionaires

    with pytest.raises(MeasureMismatch):
        dp_utility_hidden(build_two_millionaires(), [1, 0], [1, 0])


def test_visible_utility_full_support():
    g = build_dp_example()
    v = dp_utility_visible(g, [0.5, 0.5], [0.5, 0.5])
    assert v == pytest.approx(math.log(9), abs=1e-12)


def test_visible_utility_point_defender():
    g = build_dp_example()
    v = dp_utility_visible(g, [0, 1], [0.5, 0.5])
    assert v == pytest.approx(math.log(7), abs=1e-12)  # about 1.95


def test_visible_utility_point_masses():
    g = build_dp_example()
    v = dp_utility_visible(g, [1, 0], [0, 1])
    assert v == pytest.approx(math.log(3), abs=1e-12)


def test_hidden_upper_bound_full_support():
    g = build_dp_example()
    assert hidden_upper_bound(g, [0.5, 0.5], [0.5, 0.5]) == pytest.approx(
        math.log(9), abs=1e-12
    )


def test_hidden_upper_bound_point_masses():
    g = build_dp_example()
    assert hidden_upper_bound(g, [1, 0], [0, 1]) == pytest.approx(math.log(3), abs=1e-12)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_hidden_bounded_by_upper(seed):
    rng = np.random.default_rng(seed)
    g = _random_dp_game(rng)
    delta = rng.dirichlet(np.ones(2))
    alpha = rng.dirichlet(np.ones(2))
    assert dp_utility_hidden(g, delta, alpha) <= hidden_upper_bound(g, delta, alpha) + 1e-9


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_full_support_attacker_dominates(seed):
    rng = np.random.default_rng(seed)
    g = _random_dp_game(rng)
    delta = rng.dirichlet(np.ones(2))
    alpha = rng.dirichlet(np.ones(2))
    full = dp_utility_hidden(g, delta, uniform(g.attacker_actions))
    assert full >= dp_utility_hidden(g, delta, alpha) - 1e-12


# -- linear program -------------------------------------------------------------

def test_lp_symmetric_terms():
    # constraints encode max(d1 - d2, d2 - d1)
    problem = LpProblem(
        f_coeffs=np.array([[1.0, 0.0], [0.0, 1.0]]),
        g_coeffs=np.array([[0.0, 1.0], [1.0, 0.0]]),
        lam=1.0,
    )
    delta, z = solve_lp(problem)
    assert np.allclose(delta, [0.5, 0.5], atol=1e-9)
    assert z == pytest.approx(0.0, abs=1e-9)


def test_lp_single_term_minimizes_first_weight():
    problem = LpProblem(
        f_coeffs=np.array([[1.0, 0.0]]), g_coeffs=np.array([[0.0, 0.0]]), lam=0.0
    )
    delta, z = solve_lp(problem)
    assert np.allclose(delta, [0.0, 1.0], atol=1e-9)
    assert z == pytest.approx(0.0, abs=1e-9)


def test_lp_first_dinkelbach_round_nonpositive():
    g = build_dp_example()
    f, gg = build_ratio_terms(g)
    u = np.array([0.5, 0.5])
    lam = float(np.max((f @ u) / (gg @ u)))
    problem = LpProblem(f, gg, lam)
    delta, z = solve_lp(problem)
    assert z <= 1e-12
    # dense grid confirms z is the minimum of F_1
    grid = np.linspace(0, 1, 2001)
    coeff = f - lam * gg
    values = [float((coeff @ np.array([t, 1 - t])).max()) for t in grid]
    assert z <= min(values) + 1e-9


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_working_set_round_solves_the_full_lp(seed):
    # many rows, few of them in the first working set: constraint generation
    # must reach the optimum of the LP over all rows, and the padded duals
    # must be optimal duals of that LP
    rng = np.random.default_rng(seed)
    n_d = int(rng.integers(2, 5))
    coeff = rng.normal(size=(400, n_d))
    _, t_full, _ = _epigraph(coeff)
    delta, t, duals, size = _round(coeff, np.full(n_d, 1.0 / n_d))
    assert t == pytest.approx(t_full, abs=1e-9)
    assert size < coeff.shape[0]
    assert duals.min() >= 0 and duals.sum() == pytest.approx(1.0, abs=1e-9)
    assert (duals @ coeff).min() >= t - 1e-9


# -- Dinkelbach solver -----------------------------------------------------------

def test_solve_hidden_two_mechanism_game():
    rep = solve_dp_hidden(build_dp_example())
    assert abs(rep.defender_strategy.weights[0] - 0.14) <= 0.01
    assert abs(rep.defender_strategy.weights[1] - 0.86) <= 0.01
    assert rep.certified


def test_lambda_sequence_monotone_and_residual_nonpositive():
    rep = solve_dp_hidden(build_dp_example())
    lams = rep.diagnostics["lambda_history"]
    assert all(lams[i + 1] <= lams[i] + 1e-12 for i in range(1, len(lams) - 1))
    assert all(r <= 1e-12 for r in rep.diagnostics["residual_history"])


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_dinkelbach_matches_grid_oracle(seed):
    rng = np.random.default_rng(seed)
    g = _random_dp_game(rng, n_d=int(rng.integers(2, 4)))
    rep = solve_dp_hidden(g)
    obj = DpObjective(g)
    grid = simplex_grid(len(g.defender_actions), 0.005)
    grid_value = float(obj.value_batch(grid).min())
    # empirical local slope bounds the grid resolution error
    slope = 50.0
    assert rep.value <= grid_value + 1e-9
    assert grid_value <= rep.value + slope * 0.005
    lams = rep.diagnostics["lambda_history"]
    assert all(lams[i + 1] <= lams[i] + 1e-12 for i in range(1, len(lams) - 1))
    assert all(r <= 1e-12 for r in rep.diagnostics["residual_history"])


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_dp_certificate_brackets_the_oracle(seed):
    rng = np.random.default_rng(seed)
    g = _random_dp_game(rng, n_d=int(rng.integers(2, 4)), n_a=int(rng.integers(2, 4)))
    rep = solve_dp_hidden(g)
    grid = simplex_grid(len(g.defender_actions), 0.005)
    grid_value = float(DpObjective(g).value_batch(grid).min())
    assert rep.diagnostics["best_lower_bound"] <= grid_value
    assert rep.value <= grid_value + 1e-9
    assert rep.certified and rep.certificate_gap <= 1e-9
    assert rep.iterations <= 12


def test_dp_example_value_exact():
    rep = solve_dp_hidden(build_dp_example())
    assert rep.certified
    assert rep.value == pytest.approx(1.2108744870, abs=1e-9)


def test_sparse_stall_certified_in_few_rounds():
    # a sparse game on which plain Dinkelbach took 655 rounds and was
    # certified 2.3e-7 nats above the optimum
    doc = json.loads((Path(__file__).parent / "data" / "dp_sparse_stall.json").read_text())
    rep = solve_dp_hidden(jsonio.game_from_dict(doc))
    assert rep.certified and rep.iterations <= 12
    assert rep.value == pytest.approx(6.657410083, abs=1e-9)
    assert rep.diagnostics["best_lower_bound"] <= rep.value


def test_dust_entries_give_a_sound_certificate():
    # entries at or below ZERO_TOL facing exact zeros: the dual bound once
    # treated a 1e-15 term as live while the round ratios did not, and
    # proved 1.1098 nats, above the optimum 0.0926
    doc = json.loads((Path(__file__).parent / "data" / "dp_dust_unsound.json").read_text())
    game = jsonio.game_from_dict(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hidden = solve_dp_hidden(game)
        visible = solve_dp_visible(game)
        audit = audit_game(game)
    bound = hidden.diagnostics["best_lower_bound"]
    assert hidden.certified and bound <= hidden.value
    assert bound <= visible.value
    assert audit["ok"], audit["violations"]


def test_dust_crash_game_solves_certified(capsys):
    # d0's live 2e-15 mixed below 1e-15 while its live 1e-12 partner did
    # not, when mixtures were tested against ZERO_TOL: solve and audit
    # stopped with "ratio with zero denominator"
    path = str(Path(__file__).parent / "data" / "dp_dust_crash.json")
    assert cli.run(["solve", "dp", path, "--mode", "hidden"]) == 0
    hidden = json.loads(capsys.readouterr().out)
    assert cli.run(["solve", "dp", path, "--mode", "visible"]) == 0
    visible = json.loads(capsys.readouterr().out)
    assert hidden["certified"] and hidden["value"] <= visible["value"]
    assert cli.run(["audit", path]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


@pytest.mark.parametrize("seed", [13, 55, 131])
def test_dusted_sparse_game_solves_and_audits_clean(seed):
    # with mixtures tested against ZERO_TOL, seeds 13 and 55 raised
    # NumericalFailure and seed 131 failed quasi_convexity and
    # hidden_upper_bound
    game = _sparse_dp_game(seed, dust=True)
    hidden = solve_dp_hidden(game)
    assert hidden.certified and hidden.value <= solve_dp_visible(game).value
    audit = audit_game(game)
    assert audit["ok"], audit["violations"]


def test_round_budget_exhausted_is_uncertified(tmp_path, capsys):
    rep = solve_dp_hidden(build_dp_example(), max_iter=1)
    assert not rep.certified and rep.iterations == 1
    assert math.isfinite(rep.certificate_gap) and rep.certificate_gap > 1e-9
    assert rep.diagnostics["best_lower_bound"] <= 1.2108744870 <= rep.value
    path = tmp_path / "game.json"
    path.write_text(json.dumps(jsonio.game_to_dict(build_dp_example())))
    code = cli.run(["solve", "dp", str(path), "--mode", "hidden", "--max-iter", "1"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["certified"] is False


def test_solve_hidden_single_action():
    rng = np.random.default_rng(0)
    g = _random_dp_game(rng, n_d=1, n_a=3)
    rep = solve_dp_hidden(g)
    assert np.allclose(rep.defender_strategy.weights, [1.0])
    expected = max(dp_level(g.channel("0", a), g.measure.adjacency) for a in "012")
    assert rep.value == pytest.approx(expected, abs=1e-9)


def test_solve_hidden_empty_adjacency():
    inputs = ["x0", "x1"]
    c = channel_from_rows(inputs, ["y0"], [[1.0], [1.0]])
    g = GameSpec(
        ("0",),
        ("0",),
        {("0", "0"): c},
        DpMeasure(AdjacencyRelation.explicit([])),
    )
    rep = solve_dp_hidden(g)
    assert rep.value == 0.0 and rep.certified


# -- visible solver ---------------------------------------------------------------

def test_solve_visible_two_mechanism_game():
    rep = solve_dp_visible(build_dp_example())
    assert rep.diagnostics["defender_action"] == "1"
    assert np.allclose(rep.defender_strategy.weights, [0.0, 1.0])
    assert rep.value == pytest.approx(math.log(7), abs=1e-12)


def test_solve_visible_single_action():
    rng = np.random.default_rng(1)
    g = _random_dp_game(rng, n_d=1, n_a=2)
    rep = solve_dp_visible(g)
    assert np.allclose(rep.defender_strategy.weights, [1.0])


def test_solve_visible_rejects_qif():
    from leakgames.scenarios import build_binary_sum

    with pytest.raises(MeasureMismatch):
        solve_dp_visible(build_binary_sum())


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=50, deadline=None)
def test_visible_pure_levels_are_dp_levels(seed, dust):
    g = _sparse_dp_game(seed, dust)
    expected = [
        [dp_level(g.channel(d, a), g.measure.adjacency) for a in g.attacker_actions]
        for d in g.defender_actions
    ]
    assert solve_dp_visible(g).diagnostics["pure_levels"] == expected


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=50, deadline=None)
def test_objective_batch_matches_hidden_utility(seed, dust):
    g = _sparse_dp_game(seed, dust)
    n_d = len(g.defender_actions)
    deltas = np.vstack([np.eye(n_d), np.random.default_rng(seed).dirichlet(np.ones(n_d), 6)])
    expected = [dp_utility_hidden(g, delta, uniform(g.attacker_actions)) for delta in deltas]
    assert DpObjective(g).value_batch(deltas).tolist() == expected


def test_boundary_entries_mix_alike_alone_and_in_a_batch():
    # the channel stores 1e-15 as 0.0, so no summation order can mix it back to live
    rows = [[1e-15, 0.4, 0.6 - 1e-15], [0.0, 0.7, 0.3]]
    c = channel_from_rows(["x0", "x1"], ["y0", "y1", "y2"], rows)
    chans = {(d, a): c for d in ("d0", "d1") for a in ("a0", "a1")}
    g = GameSpec(("d0", "d1"), ("a0", "a1"), chans, DpMeasure(AdjacencyRelation.all_pairs()))
    deltas = np.random.default_rng(0).dirichlet([1, 1], 200)
    expected = [dp_utility_hidden(g, delta, uniform(g.attacker_actions)) for delta in deltas]
    assert DpObjective(g).value_batch(deltas).tolist() == expected


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_visible_at_least_hidden(seed):
    rng = np.random.default_rng(seed)
    g = _random_dp_game(rng)
    hidden = solve_dp_hidden(g)
    visible = solve_dp_visible(g)
    assert visible.value >= hidden.diagnostics["best_lower_bound"]

"""Brute-force oracles, Bayesian DP bounds, and the independence witness."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leakgames import audits, jsonio
from leakgames.audits import (
    audit_game,
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
    GameSpec,
    NonConforming,
    ParameterOutOfRange,
    QifMeasure,
    TooManyActions,
    ValidationError,
    ZERO_TOL,
    bayes_gain,
    channel_from_rows,
    uniform,
)
from leakgames.scenarios import (
    build_binary_sum,
    build_dp_example,
    build_ldp_game,
    build_two_millionaires,
    randomized_response,
)
from leakgames.measures import dp_level
from sparse_channels import sparse_channel

ALL = AdjacencyRelation.all_pairs()


# -- simplex grid -----------------------------------------------------------------

def test_simplex_grid_includes_vertices():
    grid = simplex_grid(3, 0.1)
    for v in np.eye(3):
        assert any(np.allclose(p, v) for p in grid)
    assert np.allclose(grid.sum(axis=1), 1.0)


def test_simplex_grid_count():
    # compositions of m into n parts: C(m+n-1, n-1)
    assert len(simplex_grid(2, 0.01)) == 101
    assert len(simplex_grid(3, 0.1)) == 66


# -- brute force oracles ------------------------------------------------------------

def test_brute_force_two_millionaires():
    delta, value = brute_force_qif(build_two_millionaires(), 1e-3)
    assert value == pytest.approx(0.75, abs=2e-3)
    assert delta.weights[0] == pytest.approx(0.5, abs=2e-3)


def test_brute_force_binary_sum():
    _, value = brute_force_qif(build_binary_sum(), 1e-3)
    assert value == pytest.approx(0.5, abs=2e-3)


def test_brute_force_single_action():
    inputs = ["x0", "x1"]
    c = channel_from_rows(inputs, ["y0", "y1"], [[0.8, 0.2], [0.3, 0.7]])
    g = GameSpec(
        ("d",), ("a",), {("d", "a"): c}, QifMeasure(uniform(inputs), bayes_gain(inputs))
    )
    delta, value = brute_force_qif(g, 0.1)
    assert np.allclose(delta.weights, [1.0])


def test_brute_force_rejects_large_games():
    inputs = ["x0", "x1"]
    c = channel_from_rows(inputs, ["y0", "y1"], [[0.8, 0.2], [0.3, 0.7]])
    acts = tuple(str(i) for i in range(5))
    g = GameSpec(
        acts,
        ("a",),
        {(d, "a"): c for d in acts},
        QifMeasure(uniform(inputs), bayes_gain(inputs)),
    )
    dp_game = GameSpec(acts, ("a",), {(d, "a"): c for d in acts}, DpMeasure(ALL))
    with pytest.raises(TooManyActions):
        brute_force_qif(g, 0.1)
    with pytest.raises(TooManyActions):
        brute_force_dp_hidden(dp_game, 0.1)
    for oracle, game in ((brute_force_qif, build_two_millionaires()),
                         (brute_force_dp_hidden, build_dp_example())):
        with pytest.raises(ValidationError, match="grid step"):
            oracle(game, 0.2)


def test_brute_force_dp_example():
    delta, value = brute_force_dp_hidden(build_dp_example(), 1e-3)
    assert delta.weights[0] == pytest.approx(0.14, abs=0.01)
    assert delta.weights[1] == pytest.approx(0.86, abs=0.01)


def test_brute_force_dp_flat_game():
    inputs = ["x0", "x1"]
    c = channel_from_rows(inputs, ["y0", "y1"], [[0.7, 0.3], [0.4, 0.6]])
    g = GameSpec(
        ("0", "1"),
        ("a",),
        {("0", "a"): c, ("1", "a"): c},
        DpMeasure(ALL),
    )
    _, value = brute_force_dp_hidden(g, 0.05)
    assert value == pytest.approx(dp_level_ref(c), abs=1e-12)


def dp_level_ref(c):
    from leakgames.measures import dp_level

    return dp_level(c, ALL)


def test_brute_force_compas_near_reference():
    game = build_ldp_game()
    _, value = brute_force_dp_hidden(game, 0.02)
    # local slope of the objective is modest; 0.02 lattice stays within ~0.05
    assert value == pytest.approx(0.3892, abs=0.05)
    assert value >= 0.3892 - 1e-9  # grid can only overshoot the minimum


# -- posterior-odds bound --------------------------------------------------------------

def test_hypothesis_bound_randomized_response_tight():
    c = randomized_response(math.log(3), ["a", "b"])
    report = check_bayes_hypothesis_bound(c, ALL, [uniform(["a", "b"])])
    assert report.holds
    # symmetric closed form: the ratio inflation is exactly e^eps = 3
    assert report.max_slack == pytest.approx(0.0, abs=1e-12)


def test_hypothesis_bound_constant_channel():
    c = channel_from_rows(["a", "b"], ["y0", "y1"], [[0.5, 0.5], [0.5, 0.5]])
    report = check_bayes_hypothesis_bound(
        c, ALL, random_priors(["a", "b"], 10, seed=1)
    )
    assert report.holds
    assert report.epsilon == pytest.approx(0.0, abs=1e-12)
    assert report.max_slack <= 1e-12


def test_hypothesis_bound_skewed_prior():
    c = channel_from_rows(["x0", "x1"], ["y0", "y1"], [[0.90, 0.10], [0.10, 0.90]])
    prior = Distribution(("x0", "x1"), [0.7, 0.3])
    report = check_bayes_hypothesis_bound(c, ALL, [prior])
    assert report.holds
    assert report.epsilon == pytest.approx(math.log(9), abs=1e-12)


def test_hypothesis_bound_rejects_nonconforming():
    c = channel_from_rows(["a", "b"], ["y0", "y1"], [[1, 0], [0.5, 0.5]])
    with pytest.raises(NonConforming):
        check_bayes_hypothesis_bound(c, ALL, [uniform(["a", "b"])])


@pytest.mark.parametrize("seed", range(10))
def test_hypothesis_bound_never_fails_at_own_level(seed):
    rng = np.random.default_rng(seed)
    raw = rng.random((3, 4)) + 0.05
    c = channel_from_rows(
        ["x0", "x1", "x2"], ["y0", "y1", "y2", "y3"], raw / raw.sum(1, keepdims=True)
    )
    report = check_bayes_hypothesis_bound(c, ALL, random_priors(c.inputs, 20, seed))
    assert report.holds


def test_hypothesis_bound_skips_dust_entries():
    # The "1|0" channel of the unsound-certificate game: the channel
    # stores its 1e-15 as 0.0, matching the exact 0 in the other row.
    c = channel_from_rows(
        ["x0", "x1"],
        ["y0", "y1", "y2"],
        [
            [0.42571773865997686, 1e-15, 0.57428226134002214],
            [0.46704010266997165, 0, 0.53295989733002835],
        ],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_bayes_hypothesis_bound(c, ALL, random_priors(c.inputs, 50, 0))
    assert report.holds
    assert math.isfinite(report.max_slack) and report.max_slack <= 1e-9
    assert report.epsilon == dp_level(c, ALL) == pytest.approx(0.0926, abs=1e-4)


def _loop_hypothesis_bound(channel, adj, priors, slack_tol):
    """Prior-by-prior loop form of the posterior-odds audit, kept as an oracle."""
    eps = dp_level(channel, adj)
    max_slack = -math.inf
    violations = []
    for p_idx, prior in enumerate(priors):
        joint = prior.weights[:, None] * channel.matrix
        p_y = joint.sum(axis=0)
        for i, j in adj.ordered_pairs(channel.inputs):
            for y in range(len(channel.outputs)):
                if p_y[y] <= 0 or joint[i, y] <= 0:
                    continue
                post_odds = joint[i, y] / joint[j, y]
                prior_odds = prior.weights[i] / prior.weights[j]
                slack = math.log(post_odds / prior_odds) - eps
                max_slack = max(max_slack, slack)
                if slack > slack_tol:
                    violations.append(
                        f"prior#{p_idx} pair ({channel.inputs[i]},{channel.inputs[j]}) "
                        f"output {channel.outputs[y]}: slack {slack:.3e}"
                    )
    return (0.0 if max_slack == -math.inf else max_slack), tuple(violations)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 6),
    st.sampled_from([1e-9, 0.0, -1e-15, -0.5]),
)
@settings(max_examples=50, deadline=None)
def test_hypothesis_bound_matches_loop(seed, n_priors, slack_tol):
    # Negative tolerances turn most terms into violations, so the message
    # text and order are compared as well as the maximum.
    channel, adj = sparse_channel(seed)
    assert not np.any((channel.matrix > 0) & (channel.matrix <= ZERO_TOL))
    priors = random_priors(channel.inputs, n_priors, seed)
    if dp_level(channel, adj) == math.inf:
        with pytest.raises(NonConforming):
            check_bayes_hypothesis_bound(channel, adj, priors, slack_tol)
        return
    report = check_bayes_hypothesis_bound(channel, adj, priors, slack_tol)
    assert (report.max_slack, report.violations) == _loop_hypothesis_bound(
        channel, adj, priors, slack_tol
    )



def test_hypothesis_bound_slack_follows_math_log():
    # numpy's vector log and math.log can differ in the last bit; the
    # report must read as the loop form's math.log does, on every channel.
    rng = np.random.default_rng(7)
    priors = [uniform(["x0", "x1"])]
    for a, b in rng.uniform(0.05, 0.95, size=(1000, 2)):
        c = channel_from_rows(["x0", "x1"], ["y0", "y1"], [[a, 1 - a], [b, 1 - b]])
        report = check_bayes_hypothesis_bound(c, ALL, priors)
        assert report.max_slack == _loop_hypothesis_bound(c, ALL, priors, 1e-9)[0]


# -- information-increase bound ----------------------------------------------------------

def test_info_increase_randomized_response():
    c = randomized_response(1.0, ["a", "b", "c"])
    report = check_info_increase_bounds(
        c, ALL, random_priors(["a", "b", "c"], 50, seed=3), alpha=1.0
    )
    assert report.direction1_applicable
    assert report.holds


def test_info_increase_constant_channel_alpha_zero():
    c = channel_from_rows(["a", "b"], ["y0", "y1"], [[0.5, 0.5], [0.5, 0.5]])
    report = check_info_increase_bounds(
        c, ALL, random_priors(["a", "b"], 10, seed=4), alpha=0.0
    )
    assert report.direction1_applicable and report.direction2_applicable
    assert report.holds


def test_info_increase_dust_column_reads_as_dp_level():
    # the channel stores 1e-17 as 0.0, so the prior grid sees the zero
    # column dp_level sees, not a live ratio of 1/0.1
    c = channel_from_rows(
        ["a", "b"], ["y0", "y1", "y2"], [[0.5, 0.5 - 1e-17, 1e-17], [0.5, 0.5, 0]]
    )
    report = check_info_increase_bounds(c, ALL, random_priors(["a", "b"], 10, seed=5), alpha=0.1)
    assert report.grid_alpha == 0.0 == report.dp_level == dp_level(c, ALL)
    assert report.direction2_applicable and report.holds


def test_info_increase_rejects_nonconforming_identity():
    ident = channel_from_rows(["a", "b"], ["y0", "y1"], [[1, 0], [0, 1]])
    with pytest.raises(NonConforming):
        check_info_increase_bounds(ident, ALL, [uniform(["a", "b"])], alpha=1.0)


def test_info_increase_requires_all_pairs():
    c = randomized_response(1.0, ["a", "b"])
    with pytest.raises(ValidationError):
        check_info_increase_bounds(
            c, AdjacencyRelation.explicit([("a", "b")]), [uniform(["a", "b"])], 1.0
        )


@pytest.mark.parametrize("seed", range(10))
def test_info_increase_converse_direction(seed):
    rng = np.random.default_rng(100 + seed)
    raw = rng.random((2, 3)) + 0.1
    c = channel_from_rows(["a", "b"], ["y0", "y1", "y2"], raw / raw.sum(1, keepdims=True))
    report = check_info_increase_bounds(
        c, ALL, random_priors(["a", "b"], 10, seed), alpha=report_alpha(c)
    )
    # alpha chosen as the grid ratio bound, so direction 2 must apply and hold
    assert report.direction2_applicable
    assert report.direction2_holds


def report_alpha(c):
    from leakgames.audits import simplex_grid

    grid = simplex_grid(len(c.inputs), 0.1)
    grid = grid[np.all(grid > 0, axis=1)]
    worst = 0.0
    for w in grid:
        p_y = w @ c.matrix
        ratios = c.matrix[:, p_y > 0] / p_y[p_y > 0]
        worst = max(worst, float(np.abs(np.log(ratios[ratios > 0])).max()))
    return worst


# -- independence witness -------------------------------------------------------------

def test_witness_values_at_tenth():
    w = vnm_independence_witness(0.1)
    assert w.qif_before == pytest.approx((0.8, 0.9), abs=1e-12)
    assert w.qif_after == pytest.approx((0.55, 0.5), abs=1e-12)
    assert w.dp_before[0] == pytest.approx(math.log(4), abs=1e-12)
    assert w.dp_before[1] == pytest.approx(math.log(9), abs=1e-12)
    assert w.dp_after[0] == pytest.approx(math.log(1.1 / 0.9), abs=1e-12)
    assert w.dp_after[1] == pytest.approx(0.0, abs=1e-12)
    assert w.reversal_holds


@pytest.mark.parametrize("d", [0.01, 0.05, 0.1, 0.2])
def test_witness_sweep(d):
    assert vnm_independence_witness(d).reversal_holds


@pytest.mark.parametrize("d", [0.0, 0.25, -0.1, 0.3])
def test_witness_rejects_out_of_range(d):
    with pytest.raises(ParameterOutOfRange):
        vnm_independence_witness(d)


# -- whole-game audit -----------------------------------------------------------------

def test_audit_game_qif():
    result = audit_game(build_two_millionaires(), seed=0)
    assert result["ok"]
    assert result["checks"]["subgradient_inequality"]


def test_audit_game_dp():
    result = audit_game(build_dp_example(), seed=0, n_priors=10)
    assert result["ok"]
    assert result["checks"]["visible_geq_hidden"]
    assert result["checks"]["bayes_hypothesis_bound"]


def _data_game(name):
    doc = json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text())
    return jsonio.game_from_dict(doc)


@pytest.mark.parametrize(
    "make",
    [build_dp_example, build_ldp_game, lambda: _data_game("dp_sparse_stall"),
     lambda: _data_game("dp_dust_unsound")],
    ids=["dp-example", "ldp", "dp_sparse_stall", "dp_dust_unsound"],
)
def test_hidden_lower_bound_check_flags_a_raised_bound(make, monkeypatch):
    game = make()
    assert audit_game(game, n_priors=2)["checks"]["hidden_lower_bound_sound"]
    solve = audits.solve_dp_hidden

    def raised_bound(g):
        report = solve(g)
        report.diagnostics["best_lower_bound"] += 1e-6
        return report

    monkeypatch.setattr(audits, "solve_dp_hidden", raised_bound)
    result = audit_game(game, n_priors=2)
    assert not result["checks"]["hidden_lower_bound_sound"]
    assert not result["ok"]


# -- QIF audit mutants: each check must flag an objective that breaks it ----------

@pytest.mark.parametrize("make", [build_two_millionaires, build_binary_sum])
def test_convexity_check_flags_a_concave_objective(make, monkeypatch):
    class Negated(audits.QifObjective):
        def value_batch(self, deltas):
            return -super().value_batch(deltas)

    assert audit_game(make())["checks"]["objective_convexity"]
    monkeypatch.setattr(audits, "QifObjective", Negated)
    result = audit_game(make())
    assert not result["checks"]["objective_convexity"]
    assert not result["ok"]


@pytest.mark.parametrize("make", [build_two_millionaires, build_binary_sum])
def test_subgradient_check_flags_a_raised_value(make, monkeypatch):
    class Raised(audits.QifObjective):
        def value_and_subgradient(self, delta):
            value, h = super().value_and_subgradient(delta)
            return value + 1.0, h

    assert audit_game(make())["checks"]["subgradient_inequality"]
    monkeypatch.setattr(audits, "QifObjective", Raised)
    result = audit_game(make())
    assert not result["checks"]["subgradient_inequality"]
    assert result["checks"]["objective_convexity"]
    assert not result["ok"]

"""Projected subgradient solver for QIF games."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.optimize import linprog

from leakgames.core import (
    GainFunction,
    GameSpec,
    MeasureMismatch,
    QifMeasure,
    bayes_gain,
    channel_from_rows,
    uniform,
)
from leakgames.qif import (
    QifObjective,
    attacker_best_response,
    project_simplex,
    qif_utility,
    solve_qif,
    subgradient,
    worst_case_vulnerability,
)
from leakgames.scenarios import (
    build_binary_sum,
    build_crowds,
    build_dp_example,
    build_two_millionaires,
    manet_config,
)


def _random_qif_game(rng, n_d=2, n_a=2, n_x=2, n_y=3):
    inputs = [f"x{i}" for i in range(n_x)]
    outputs = [f"y{j}" for j in range(n_y)]
    chans = {}
    for d in range(n_d):
        for a in range(n_a):
            raw = rng.random((n_x, n_y)) + 1e-3
            chans[(str(d), str(a))] = channel_from_rows(
                inputs, outputs, raw / raw.sum(1, keepdims=True)
            )
    return GameSpec(
        tuple(str(d) for d in range(n_d)),
        tuple(str(a) for a in range(n_a)),
        chans,
        QifMeasure(uniform(inputs), bayes_gain(inputs)),
    )


# -- utility and worst case ---------------------------------------------------

def test_utility_pure_profile():
    g = build_two_millionaires()
    assert qif_utility(g, [1, 0], [1, 0]) == pytest.approx(1.0)


def test_utility_mixed_half_half():
    # closed form q(1+p)/2 + (1-q)(2-p)/2 evaluated at p = q = 1/2
    g = build_two_millionaires()
    assert qif_utility(g, [0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.75)


def test_utility_binary_sum_flat_in_attack():
    g = build_binary_sum()
    for q in (0.0, 0.3, 1.0):
        assert qif_utility(g, [0.5, 0.5], [q, 1 - q]) == pytest.approx(0.5)


def test_utility_rejects_dp_game():
    with pytest.raises(MeasureMismatch):
        qif_utility(build_dp_example(), [0.5, 0.5], [0.5, 0.5])


def test_worst_case_point_strategy():
    g = build_two_millionaires()
    assert worst_case_vulnerability(g, [1, 0]) == (1.0, "0")


def test_worst_case_tie_breaks_low():
    g = build_two_millionaires()
    value, action = worst_case_vulnerability(g, [0.5, 0.5])
    assert value == pytest.approx(0.75)
    assert action == "0"


def test_worst_case_binary_sum():
    g = build_binary_sum()
    value, action = worst_case_vulnerability(g, [0.2, 0.8])
    assert value == pytest.approx(0.8)
    assert action == "0"


def test_attacker_best_response_tracks_strategy():
    g = build_two_millionaires()
    assert attacker_best_response(g, [1, 0]) == "0"
    assert attacker_best_response(g, [0, 1]) == "1"


# -- subgradient ---------------------------------------------------------------

def test_subgradient_single_action_game():
    inputs = ["x0", "x1"]
    c = channel_from_rows(inputs, ["y0", "y1"], [[0.7, 0.3], [0.4, 0.6]])
    g = GameSpec(
        ("d",), ("a",), {("d", "a"): c}, QifMeasure(uniform(inputs), bayes_gain(inputs))
    )
    h = subgradient(g, [1.0])
    assert h.shape == (1,)


def test_subgradient_identical_channels_constant_objective():
    inputs = ["x0", "x1"]
    ident = channel_from_rows(inputs, ["y0", "y1"], [[1, 0], [0, 1]])
    g = GameSpec(
        ("0", "1"),
        ("a",),
        {("0", "a"): ident, ("1", "a"): ident},
        QifMeasure(uniform(inputs), bayes_gain(inputs)),
    )
    h = subgradient(g, [0.3, 0.7])
    assert np.allclose(h, [1.0, 1.0])
    # constant objective: h . (d' - d) = 0 on the simplex
    assert h @ (np.array([0.9, 0.1]) - np.array([0.3, 0.7])) == pytest.approx(0.0)


def test_subgradient_two_millionaires_vertex():
    g = build_two_millionaires()
    h = subgradient(g, [1.0, 0.0])
    assert np.allclose(h, [1.0, 0.5])
    # subgradient inequality against a grid of strategies
    obj = QifObjective(g)
    f0 = obj.value(np.array([1.0, 0.0]))[0]
    for t in np.linspace(0, 1, 101):
        other = np.array([t, 1 - t])
        assert obj.value(other)[0] >= f0 + h @ (other - np.array([1.0, 0.0])) - 1e-9


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_subgradient_inequality_random(seed):
    rng = np.random.default_rng(seed)
    game = _random_qif_game(
        rng, n_d=int(rng.integers(2, 4)), n_a=int(rng.integers(1, 4))
    )
    obj = QifObjective(game)
    n = len(game.defender_actions)
    for _ in range(2):
        base = rng.dirichlet(np.ones(n))
        other = rng.dirichlet(np.ones(n))
        f, h = obj.value_and_subgradient(base)
        assert obj.value(other)[0] >= f + h @ (other - base) - 1e-9


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_objective_convex_along_segments(seed):
    rng = np.random.default_rng(seed)
    game = _random_qif_game(rng)
    obj = QifObjective(game)
    d1, d2 = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))
    lam = rng.random()
    lhs = obj.value(lam * d1 + (1 - lam) * d2)[0]
    rhs = lam * obj.value(d1)[0] + (1 - lam) * obj.value(d2)[0]
    assert lhs <= rhs + 1e-9


# -- projection -----------------------------------------------------------------

def test_projection_fixes_simplex_points():
    assert np.allclose(project_simplex([0.3, 0.7]), [0.3, 0.7])


def test_projection_clamps_outside_point():
    # minimizing ||(t, 1-t) - (1.2, -0.2)|| over t in [0, 1] gives t = 1
    assert np.allclose(project_simplex([1.2, -0.2]), [1.0, 0.0])


def test_projection_symmetric_point():
    assert np.allclose(project_simplex([0.6, 0.6]), [0.5, 0.5])


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_projection_matches_grid_search(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    v = rng.normal(size=n) * 2
    proj = project_simplex(v)
    # dense lattice over the simplex
    step = 0.01
    m = round(1 / step)
    if n == 2:
        grid = np.array([[k / m, 1 - k / m] for k in range(m + 1)])
    else:
        grid = np.array(
            [
                [i / m, j / m, 1 - (i + j) / m]
                for i in range(m + 1)
                for j in range(m + 1 - i)
            ]
        )
    dists = np.linalg.norm(grid - v, axis=1)
    assert np.linalg.norm(proj - v) <= dists.min() + 1e-12
    assert abs(proj.sum() - 1) <= 1e-12 and np.all(proj >= 0)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_projection_idempotent(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=int(rng.integers(1, 6)))
    once = project_simplex(v)
    assert np.allclose(project_simplex(once), once, atol=1e-12)


# -- solver ---------------------------------------------------------------------

def test_solve_two_millionaires():
    rep = solve_qif(build_two_millionaires(), tolerance=1e-3, max_iter=4000)
    assert abs(rep.defender_strategy.weights[0] - 0.5) <= 5e-3
    assert rep.value == pytest.approx(0.75, abs=1e-3)


def test_solve_binary_sum():
    rep = solve_qif(build_binary_sum(), tolerance=1e-3, max_iter=4000)
    assert abs(rep.defender_strategy.weights[0] - 0.5) <= 5e-3
    assert rep.value == pytest.approx(0.5, abs=1e-3)


def test_solve_single_action_immediate():
    inputs = ["x0", "x1"]
    c = channel_from_rows(inputs, ["y0", "y1"], [[0.7, 0.3], [0.4, 0.6]])
    g = GameSpec(
        ("d",), ("a",), {("d", "a"): c}, QifMeasure(uniform(inputs), bayes_gain(inputs))
    )
    rep = solve_qif(g)
    assert rep.certified and rep.iterations == 1
    assert np.allclose(rep.defender_strategy.weights, [1.0])


def test_solver_flags_uncertified_on_budget():
    # two millionaires needs two simplex iterations; one is below the budget
    rep = solve_qif(build_two_millionaires(), tolerance=1e-9, max_iter=1)
    assert not rep.certified
    assert rep.iterations <= 1
    assert np.allclose(rep.defender_strategy.weights, [0.5, 0.5])
    assert rep.attacker_strategy is None
    # the fallback bound is the prior vulnerability, 1/2 under a uniform prior
    assert rep.diagnostics["best_lower_bound"] == pytest.approx(0.5)
    assert rep.certificate_gap == pytest.approx(0.25)


def test_lower_bound_is_sound():
    for game, optimum in [(build_two_millionaires(), 0.75), (build_binary_sum(), 0.5)]:
        rep = solve_qif(game, tolerance=1e-9, max_iter=2000)
        assert rep.certified
        assert rep.diagnostics["best_lower_bound"] <= optimum + 1e-12
        assert rep.value == pytest.approx(optimum, abs=1e-12)


def test_lower_bound_sound_on_three_action_games():
    from leakgames.audits import brute_force_qif

    rng = np.random.default_rng(17)
    for _ in range(5):
        game = _random_qif_game(rng, n_d=3, n_a=2)
        rep = solve_qif(game, tolerance=1e-6, max_iter=1500)
        _, grid_min = brute_force_qif(game, 0.01)
        assert rep.certified
        assert rep.diagnostics["best_lower_bound"] <= grid_min + 1e-12


def test_certified_report_respects_tolerance():
    game = build_two_millionaires()
    rep = solve_qif(game, tolerance=1e-9, max_iter=100_000)
    assert rep.certified and rep.certificate_gap <= 1e-9
    obj = QifObjective(game)
    grid = np.linspace(0, 1, 401)
    best_grid = min(obj.value(np.array([t, 1 - t]))[0] for t in grid)
    assert rep.value <= best_grid + 1e-9


# -- exact LP and its dual certificate ---------------------------------------------

def _s0(game):
    """S0[a, d, w, y] = sum_x prior(x) g(w, x) C_da(x, y), built from the channels."""
    measure = game.measure
    stack = np.array(
        [[game.channel(d, a).matrix for d in game.defender_actions]
         for a in game.attacker_actions]
    )
    return np.einsum("wx,x,adxy->adwy", measure.gain.table, measure.prior.weights, stack)


def _dense_min(s0, alpha=None):
    """Dense LP over (delta, z[a, y], t) keeping every (a, w, y) row.

    Without ``alpha`` it minimizes t >= sum_y z[a, y] for every a (the game
    value); with ``alpha`` it minimizes sum_a alpha(a) sum_y z[a, y], what a
    defender can hold the mixed attacker strategy alpha to.
    """
    n_a, n_d, n_w, n_y = s0.shape
    n_z = n_a * n_y
    rows = []
    for a in range(n_a):
        for w in range(n_w):
            for y in range(n_y):
                row = np.zeros(n_d + n_z + 1)
                row[:n_d] = s0[a, :, w, y]
                row[n_d + a * n_y + y] = -1.0
                rows.append(row)
    cost = np.zeros(n_d + n_z + 1)
    if alpha is None:
        for a in range(n_a):
            row = np.zeros(n_d + n_z + 1)
            row[n_d + a * n_y : n_d + (a + 1) * n_y] = 1.0
            row[-1] = -1.0
            rows.append(row)
        cost[-1] = 1.0
    else:
        cost[n_d : n_d + n_z] = np.repeat(alpha, n_y)
    a_eq = np.zeros((1, n_d + n_z + 1))
    a_eq[0, :n_d] = 1.0
    res = linprog(
        cost, A_ub=np.array(rows), b_ub=np.zeros(len(rows)), A_eq=a_eq, b_eq=[1.0],
        bounds=[(0, None)] * n_d + [(None, None)] * (n_z + 1), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success
    return float(res.fun)


def test_crowds_manet_value_exact():
    rep = solve_qif(build_crowds(manet_config()), tolerance=1e-9)
    assert rep.certified
    assert rep.value == pytest.approx(0.0809595, abs=1e-7)


def test_certificate_brackets_the_oracle():
    from leakgames.audits import brute_force_qif

    rng = np.random.default_rng(23)
    for _ in range(5):
        game = _random_qif_game(rng, n_a=3)
        rep = solve_qif(game, tolerance=1e-9)
        _, grid_min = brute_force_qif(game, 0.01)
        assert rep.certified and rep.certificate_gap <= 1e-9
        assert rep.diagnostics["best_lower_bound"] <= grid_min
        assert rep.value <= grid_min + 1e-9  # the grid cannot beat the optimum
        assert rep.value == pytest.approx(QifObjective(game).value(
            rep.defender_strategy.weights)[0], abs=1e-15)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_attacker_strategy_guarantees_value(seed):
    rng = np.random.default_rng(seed)
    game = _random_qif_game(
        rng, n_d=int(rng.integers(2, 5)), n_a=int(rng.integers(1, 5)), n_y=4
    )
    rep = solve_qif(game, tolerance=1e-9)
    s0 = _s0(game)
    assert rep.value == pytest.approx(_dense_min(s0), abs=1e-9)
    alpha = rep.attacker_strategy.weights
    assert _dense_min(s0, alpha) >= rep.value - 1e-9
    # alpha plays only best responses to the defender's equilibrium strategy
    per_action = QifObjective(game).per_action_values(rep.defender_strategy.weights)
    assert np.all(per_action[alpha > 1e-9] >= rep.value - 1e-9)


def test_negative_gains_and_zero_rows_solved_exactly():
    # the gain table mixes signs and has an all-zero guess; every channel
    # misses output y0, so S0 has all-zero rows for every guess at y0
    rng = np.random.default_rng(5)
    inputs, outputs = ["x0", "x1", "x2"], ["y0", "y1", "y2", "y3"]
    chans = {}
    for d in range(3):
        for a in range(2):
            raw = rng.random((3, 4))
            raw[:, 0] = 0.0
            chans[(str(d), str(a))] = channel_from_rows(
                inputs, outputs, raw / raw.sum(1, keepdims=True)
            )
    table = np.array([[1.0, -2.0, 0.5], [-1.0, 0.5, 0.3], [0.0, 0.0, 0.0]])
    gain = GainFunction(("w0", "w1", "w2"), tuple(inputs), table)
    game = GameSpec(
        ("0", "1", "2"), ("0", "1"), chans, QifMeasure(uniform(inputs), gain)
    )
    rep = solve_qif(game, tolerance=1e-9)
    assert rep.certified and rep.certificate_gap <= 1e-9
    assert rep.value == pytest.approx(_dense_min(_s0(game)), abs=1e-9)
    assert _dense_min(_s0(game), rep.attacker_strategy.weights) >= rep.value - 1e-9

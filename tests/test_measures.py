"""Vulnerability and DP-level measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leakgames.algebra import hidden_choice, visible_choice
from leakgames.core import (
    ZERO_TOL,
    AdjacencyRelation,
    Distribution,
    GainFunction,
    LabelMismatch,
    NegativeEpsilon,
    ZeroPriorVulnerability,
    bayes_gain,
    channel_from_rows,
    uniform,
)
from leakgames.measures import (
    INFINITE,
    bayes_posterior,
    check_dp,
    dp_level,
    dp_levels,
    is_conforming,
    leakage,
    posterior_vulnerability,
    prior_vulnerability,
)
from leakgames.scenarios import randomized_response
from sparse_channels import sparse_channel, sparse_game

XY = (["0", "1"], ["T", "F"])
ALL = AdjacencyRelation.all_pairs()


def _chan(rows, inputs=None, outputs=None):
    i, o = inputs or XY[0], outputs or XY[1]
    return channel_from_rows(i, o, rows)


def _rand_chan(rng, n=2, m=3):
    raw = rng.random((n, m)) + 1e-3
    return channel_from_rows(
        [f"x{i}" for i in range(n)],
        [f"y{j}" for j in range(m)],
        raw / raw.sum(1, keepdims=True),
    )


# -- prior vulnerability -----------------------------------------------------

def test_prior_bayes_uniform():
    assert prior_vulnerability(bayes_gain(["0", "1"]), uniform(["0", "1"])) == 0.5


def test_prior_bayes_skewed():
    p = Distribution(("0", "1"), [0.9, 0.1])
    assert prior_vulnerability(bayes_gain(["0", "1"]), p) == 0.9


def test_prior_two_guess_gain():
    # enumerating both guesses by hand: each has expected gain 1.0
    g = GainFunction(("w1", "w2"), ("0", "1"), [[2, 0], [0, 2]])
    assert prior_vulnerability(g, uniform(["0", "1"])) == 1.0


def test_prior_label_mismatch():
    with pytest.raises(LabelMismatch):
        prior_vulnerability(bayes_gain(["a", "b"]), uniform(["0", "1"]))


# -- posterior vulnerability -------------------------------------------------

def test_posterior_identity_channel():
    c = _chan([[1, 0], [0, 1]])
    assert posterior_vulnerability(bayes_gain(XY[0]), uniform(XY[0]), c) == 1.0


def test_posterior_constant_channel():
    c = _chan([[1, 0], [1, 0]])
    assert posterior_vulnerability(bayes_gain(XY[0]), uniform(XY[0]), c) == 0.5


def test_posterior_partial_mix():
    p = 0.3
    c = _chan([[1, 0], [1 - p, p]])
    v = posterior_vulnerability(bayes_gain(XY[0]), uniform(XY[0]), c)
    assert v == pytest.approx((1 + p) / 2)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_posterior_at_least_prior(seed):
    rng = np.random.default_rng(seed)
    c = _rand_chan(rng, 3, 4)
    prior = Distribution(c.inputs, rng.dirichlet(np.ones(3)))
    gain = GainFunction(
        ("w0", "w1"), c.inputs, rng.random((2, 3)) * 2
    )
    assert posterior_vulnerability(gain, prior, c) >= prior_vulnerability(
        gain, prior
    ) - 1e-12


# -- Bayes specialization ----------------------------------------------------

def test_bayes_posterior_identity():
    assert bayes_posterior(uniform(XY[0]), _chan([[1, 0], [0, 1]])) == 1.0


def test_bayes_posterior_constant_column():
    assert bayes_posterior(uniform(XY[0]), _chan([[1, 0], [1, 0]])) == 0.5


def test_bayes_posterior_binary_sum_mix():
    p = 0.7
    c = _chan([[p, 1 - p], [1 - p, p]])
    assert bayes_posterior(uniform(XY[0]), c) == pytest.approx(p)


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_bayes_posterior_matches_general_form(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    c = _rand_chan(rng, n, int(rng.integers(1, 5)))
    prior = Distribution(c.inputs, rng.dirichlet(np.ones(n)))
    closed_form = float((prior.weights[:, None] * c.matrix).max(axis=0).sum())
    assert bayes_posterior(prior, c) == closed_form


# -- leakage -----------------------------------------------------------------

def test_additive_leakage_identity():
    c = _chan([[1, 0], [0, 1]])
    assert leakage(bayes_gain(XY[0]), uniform(XY[0]), c, "additive") == pytest.approx(0.5)


def test_additive_leakage_constant_channel_zero():
    c = _chan([[0.5, 0.5], [0.5, 0.5]])
    p = Distribution(("0", "1"), [0.3, 0.7])
    assert leakage(bayes_gain(XY[0]), p, c, "additive") == pytest.approx(0.0)


def test_multiplicative_leakage_identity():
    c = _chan([[1, 0], [0, 1]])
    assert leakage(bayes_gain(XY[0]), uniform(XY[0]), c, "multiplicative") == pytest.approx(2.0)


def test_multiplicative_leakage_zero_prior_rejected():
    g = GainFunction(("w",), ("0", "1"), [[0.0, 0.0]])
    with pytest.raises(ZeroPriorVulnerability):
        leakage(g, uniform(XY[0]), _chan([[1, 0], [0, 1]]), "multiplicative")


# -- conformance and DP level ------------------------------------------------

def test_conforming_strictly_positive():
    assert is_conforming(_chan([[0.7, 0.3], [0.2, 0.8]]), ALL)


def test_nonconforming_zero_pattern():
    assert not is_conforming(_chan([[1, 0], [0.5, 0.5]]), ALL)


def test_vacuous_conformance_empty_adjacency():
    empty = AdjacencyRelation.explicit([])
    assert is_conforming(_chan([[1, 0], [0.5, 0.5]]), empty)


def test_dp_level_noisy_response():
    c = _chan([[0.90, 0.10], [0.10, 0.90]])
    assert dp_level(c, ALL) == pytest.approx(math.log(9), abs=1e-12)


def test_dp_level_near_constant():
    c = _chan([[0.01, 0.99], [0.03, 0.97]])
    assert dp_level(c, ALL) == pytest.approx(math.log(3), abs=1e-12)


def test_dp_level_half_mix():
    c = _chan([[0.455, 0.545], [0.065, 0.935]])
    assert dp_level(c, ALL) == pytest.approx(math.log(0.455 / 0.065), abs=1e-12)
    assert dp_level(c, ALL) == pytest.approx(1.946, abs=5e-4)


def test_dp_level_nonconforming_infinite():
    assert dp_level(_chan([[1, 0], [0.5, 0.5]]), ALL) == INFINITE


def test_dp_level_empty_adjacency_zero():
    empty = AdjacencyRelation.explicit([])
    assert dp_level(_chan([[1, 0], [0.5, 0.5]]), empty) == 0.0


def _loop_dp_level(channel, adj):
    """Pair-by-pair form of dp_level, kept as an oracle.

    One division C(x,y)/C(x',y) per ordered adjacent pair, no reciprocal:
    the rule the solver's ratio terms use, so levels compare with ``==``.
    """
    m = channel.matrix
    zero = m <= ZERO_TOL
    best = 1.0
    for i, j in adj.ordered_pairs(channel.inputs):
        if np.any(zero[i] != zero[j]):
            return INFINITE
        live = ~zero[i]
        if live.any():
            best = max(best, float((m[i, live] / m[j, live]).max()))
    return math.log(best)


@given(st.integers(0, 2**32 - 1), st.sampled_from([False, True, "after"]))
@settings(max_examples=50, deadline=None)
def test_dp_level_matches_pairwise_loop(seed, dust):
    channel, adj = sparse_channel(seed, dust)
    assert dp_level(channel, adj) == _loop_dp_level(channel, adj)
    assert is_conforming(channel, adj) == (_loop_dp_level(channel, adj) != INFINITE)


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=50, deadline=None)
def test_dp_levels_match_pairwise_loop_per_channel(seed, dust):
    raw, inputs, outputs, adj = sparse_game(seed, dust)
    # dp_levels takes stored channel matrices, whose dust is already zero
    channels = [[channel_from_rows(inputs, outputs, rows) for rows in row] for row in raw]
    levels = dp_levels(np.array([[c.matrix for c in row] for row in channels]), adj, inputs)
    assert levels.shape == raw.shape[:2]
    for d, a in np.ndindex(*levels.shape):
        assert levels[d, a] == _loop_dp_level(channels[d][a], adj)


def test_check_dp_examples():
    c = _chan([[0.90, 0.10], [0.10, 0.90]])
    assert check_dp(c, ALL, 2.3)
    assert not check_dp(c, ALL, 2.0)
    const = _chan([[0.5, 0.5], [0.5, 0.5]])
    assert check_dp(const, ALL, 0.0)


def test_check_dp_negative_epsilon():
    with pytest.raises(NegativeEpsilon):
        check_dp(_chan([[0.5, 0.5], [0.5, 0.5]]), ALL, -0.1)


# -- measure-level theorem properties ----------------------------------------

@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_convexity_of_posterior_vulnerability(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    chans = [_rand_chan(rng, 3, 3) for _ in range(k)]
    mu = rng.dirichlet(np.ones(k))
    prior = Distribution(chans[0].inputs, rng.dirichlet(np.ones(3)))
    gain = GainFunction(("w0", "w1", "w2"), chans[0].inputs, rng.random((3, 3)) * 2)
    mixed = posterior_vulnerability(gain, prior, hidden_choice(mu, chans))
    avg = sum(m * posterior_vulnerability(gain, prior, c) for m, c in zip(mu, chans))
    assert mixed <= avg + 1e-9


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_quasi_convexity_of_dp_level(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    chans = [_rand_chan(rng, 2, 3) for _ in range(k)]
    mu = rng.dirichlet(np.ones(k))
    mu[rng.integers(0, k)] = 0.0
    mu = mu / mu.sum()
    mixed = dp_level(hidden_choice(mu, chans), ALL)
    cap = max(dp_level(c, ALL) for c, m in zip(chans, mu) if m > 0)
    assert mixed <= cap + 1e-9


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_quasi_max_of_visible_choice(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    chans = [_rand_chan(rng, 2, 3) for _ in range(k)]
    mu = rng.dirichlet(np.ones(k))
    if k > 2:
        mu[0] = 0.0
        mu = mu / mu.sum()
    composed = dp_level(visible_choice(mu, chans), ALL)
    cap = max(dp_level(c, ALL) for c, m in zip(chans, mu) if m > 0)
    assert composed == pytest.approx(cap, abs=1e-12)


@pytest.mark.parametrize("eps", [0.0, 0.1, 1.0, 2.0, math.log(3)])
@pytest.mark.parametrize("size", [2, 3, 5, 8])
def test_randomized_response_level_is_exact(eps, size):
    c = randomized_response(eps, [f"v{i}" for i in range(size)])
    assert dp_level(c, ALL) == pytest.approx(eps, abs=1e-12)

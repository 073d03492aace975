"""Vulnerability, leakage, and differential-privacy level computations.

The QIF side evaluates posterior g-vulnerability in closed form,

    sum_y max_w sum_x prior(x) * C(x,y) * g(w,x),

with Bayes vulnerability as the identity-gain special case.  The DP side
evaluates the differential-privacy level of a channel: the largest
log-ratio between entries of adjacent rows, in nats.  A channel whose
zero pattern disagrees on some adjacent pair has level ``math.inf``
(it is not conforming, hence not differentially private at any epsilon).
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    AdjacencyRelation,
    Channel,
    Distribution,
    GainFunction,
    LabelMismatch,
    NegativeEpsilon,
    ZERO_TOL,
    ZeroPriorVulnerability,
)

#: Distinguished DP level of a non-conforming channel.
INFINITE = math.inf


def _check_prior(prior: Distribution, inputs) -> None:
    if prior.labels != tuple(inputs):
        raise LabelMismatch(
            f"prior labels {prior.labels} do not match inputs {tuple(inputs)}"
        )


def _check_gain(gain: GainFunction, inputs) -> None:
    if gain.inputs != tuple(inputs):
        raise LabelMismatch(
            f"gain-function inputs {gain.inputs} do not match inputs {tuple(inputs)}"
        )


def prior_vulnerability(gain: GainFunction, prior: Distribution) -> float:
    """Best expected gain over guesses before any observation."""
    _check_gain(gain, prior.labels)
    return float((gain.table @ prior.weights).max())


def posterior_vulnerability(
    gain: GainFunction, prior: Distribution, channel: Channel
) -> float:
    """Expected best gain after observing the channel output."""
    _check_prior(prior, channel.inputs)
    _check_gain(gain, channel.inputs)
    scores = (gain.table * prior.weights) @ channel.matrix  # (guess, output)
    return float(scores.max(axis=0).sum())


def bayes_posterior(prior: Distribution, channel: Channel) -> float:
    """Posterior Bayes vulnerability: sum_y max_x prior(x) C(x,y)."""
    _check_prior(prior, channel.inputs)
    return float((prior.weights[:, None] * channel.matrix).max(axis=0).sum())


def leakage(
    gain: GainFunction,
    prior: Distribution,
    channel: Channel,
    mode: str = "additive",
) -> float:
    """Posterior-to-prior comparison, additive (difference) or multiplicative (ratio)."""
    before = prior_vulnerability(gain, prior)
    after = posterior_vulnerability(gain, prior, channel)
    if mode == "additive":
        return after - before
    if mode == "multiplicative":
        if before <= 0:
            raise ZeroPriorVulnerability(
                f"multiplicative leakage undefined at prior vulnerability {before!r}"
            )
        return after / before
    raise ValueError(f"unknown leakage mode {mode!r}")


def _adjacent_pairs(adj: AdjacencyRelation, labels) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) with i < j, one entry per adjacent input pair."""
    pairs = [(i, j) for i, j in adj.ordered_pairs(labels) if i < j]
    return np.array(pairs, dtype=int).reshape(-1, 2).T


def is_conforming(channel: Channel, adj: AdjacencyRelation) -> bool:
    """True iff the zero pattern agrees across every adjacent input pair."""
    i, j = _adjacent_pairs(adj, channel.inputs)
    zero = channel.matrix <= ZERO_TOL
    return not np.any(zero[i] != zero[j])


def dp_level(channel: Channel, adj: AdjacencyRelation) -> float:
    """Least epsilon (nats) at which the channel is differentially private.

    Maximum of ln C(x,y)/C(x',y) over outputs and ordered adjacent pairs
    with C(x,y) > 0.  Non-conformance yields ``math.inf``; an empty
    adjacency relation yields 0.  Entries at or below ``ZERO_TOL`` count
    as exact zeros, and ratios where both sides vanish are skipped (the
    conforming zero pattern carries no constraint).
    """
    i, j = _adjacent_pairs(adj, channel.inputs)
    m = channel.matrix
    zero = m <= ZERO_TOL
    if np.any(zero[i] != zero[j]):
        return INFINITE
    live = ~zero[i]
    if not live.any():
        return 0.0
    ratios = m[i][live] / m[j][live]
    return math.log(max(1.0, float(ratios.max()), float((1.0 / ratios).max())))


def check_dp(channel: Channel, adj: AdjacencyRelation, eps: float) -> bool:
    """True iff the channel is eps-differentially private (within 1e-12)."""
    if eps < 0:
        raise NegativeEpsilon(f"epsilon must be non-negative, got {eps!r}")
    return dp_level(channel, adj) <= eps + 1e-12

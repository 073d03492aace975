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
    ZeroPriorVulnerability,
    zero_mismatch,
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


def is_conforming(channel: Channel, adj: AdjacencyRelation) -> bool:
    """True iff the zero pattern agrees across every adjacent input pair."""
    return not zero_mismatch(channel.matrix, *adj.index_pairs(channel.inputs)).any()


def max_ratios(matrices: np.ndarray, adj: AdjacencyRelation, labels) -> np.ndarray:
    """Largest C(x,y)/C(x',y) over adjacent pairs, per channel of a (..., x, y) stack.

    At least 1.  A ratio with both sides zero carries no constraint, and
    one with exactly one side zero (non-conformance) makes the result
    ``inf``; zeros are exact, as a ``Channel`` stores them.
    """
    i, j = adj.index_pairs(labels)
    i, j = i[i < j], j[i < j]
    num, den = matrices[..., i, :], matrices[..., j, :]
    live = (num > 0) & (den > 0)
    ratio = np.divide(num, den, out=np.ones_like(num), where=live)
    best = np.maximum(ratio, 1.0 / ratio).max(axis=(-2, -1), initial=1.0)
    return np.where(zero_mismatch(matrices, i, j).any(axis=(-2, -1)), INFINITE, best)


def dp_levels(matrices: np.ndarray, adj: AdjacencyRelation, labels) -> np.ndarray:
    """``dp_level`` of every channel of a (..., x, y) stack, in nats.

    Takes ``math.log`` per element: numpy's vector ``log`` can differ in
    the last bit, and levels are compared with ``==`` across callers.
    """
    ratios = max_ratios(matrices, adj, labels)
    return np.array([math.log(r) for r in ratios.ravel().tolist()]).reshape(ratios.shape)


def dp_level(channel: Channel, adj: AdjacencyRelation) -> float:
    """Least epsilon (nats) at which the channel is differentially private.

    The log of its ``max_ratios``: ``math.inf`` when it does not conform,
    0 under an empty adjacency relation.
    """
    return float(dp_levels(channel.matrix, adj, channel.inputs))


def check_dp(channel: Channel, adj: AdjacencyRelation, eps: float) -> bool:
    """True iff the channel is eps-differentially private (within 1e-12)."""
    if eps < 0:
        raise NegativeEpsilon(f"epsilon must be non-negative, got {eps!r}")
    return dp_level(channel, adj) <= eps + 1e-12

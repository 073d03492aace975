"""Seeded random channels with zero columns and zero entries, for oracle tests."""

import numpy as np

from leakgames.core import AdjacencyRelation, channel_from_rows


def sparse_channel(seed: int, dust: bool = False):
    """A 2-8 x 2-8 channel and an all-pairs, chain or empty adjacency.

    Some columns are zero in every row; half the channels also zero single
    entries (mostly non-conforming).  With ``dust`` those entries are
    5e-16, at or below ``ZERO_TOL``, instead of 0.
    """
    rng = np.random.default_rng(seed)
    n, m = (int(k) for k in rng.integers(2, 9, size=2))
    rows = rng.dirichlet(np.full(m, rng.choice([0.3, 1.0])), size=n)
    keep = int(rng.integers(m))  # never zeroed, so every row keeps mass
    cols = rng.random(m) < 0.3
    cols[keep] = False
    rows[:, cols] = 0.0
    if rng.random() < 0.5:
        entries = rng.random((n, m)) < 0.15
        entries[:, keep] = False
        rows[entries] = 5e-16 if dust else 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    inputs = [f"x{i}" for i in range(n)]
    adjacency = [
        AdjacencyRelation.all_pairs(),
        AdjacencyRelation.explicit(zip(inputs, inputs[1:])),
        AdjacencyRelation.explicit([]),
    ][int(rng.integers(3))]
    return channel_from_rows(inputs, [f"y{j}" for j in range(m)], rows), adjacency

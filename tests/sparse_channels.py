"""Seeded random channels with zero columns and zero entries, for oracle tests."""

import numpy as np

from leakgames.core import AdjacencyRelation, channel_from_rows

# A Channel stores entries at or below ZERO_TOL (1e-15), the boundary
# included, as 0.0; the NEAR_ZERO ones stay live, just above it.
DUST = (1e-300, 1e-17, 5e-16, 1e-15)
NEAR_ZERO = (2e-15, 1e-12)


def _adjacency(rng, inputs):
    return [
        AdjacencyRelation.all_pairs(),
        AdjacencyRelation.explicit(zip(inputs, inputs[1:])),
        AdjacencyRelation.explicit([]),
    ][int(rng.integers(3))]


def sparse_channel(seed: int, dust: bool | str = False):
    """A 2-8 x 2-8 channel and an all-pairs, chain or empty adjacency.

    Some columns are zero in every row; half the channels also zero single
    entries (mostly non-conforming).  With ``dust=True`` those single
    entries are 5e-16 before the row scaling instead of 0, so on a row that
    lost mass to zeroed columns some scale above ``ZERO_TOL`` and stay
    live.  With ``dust="after"`` every zeroed entry is set to a ``DUST``
    value after the scaling, as in ``sparse_game``: true dust, which the
    channel stores as 0.0, the same channel as with no dust.
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
        rows[entries] = 5e-16 if dust is True else 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    inputs = [f"x{i}" for i in range(n)]
    adj = _adjacency(rng, inputs)
    if dust == "after":  # after the scaling, which would move them
        zero = rows == 0.0
        rows[zero] = rng.choice(DUST, (n, m))[zero]
    return channel_from_rows(inputs, [f"y{j}" for j in range(m)], rows), adj


def _game_rows(rng, n: int, m: int, dust: bool, conforming: bool) -> np.ndarray:
    rows = rng.dirichlet(np.full(m, rng.choice([0.3, 1.0])), size=n)
    if conforming:  # a Dirichlet(0.3) entry <= ZERO_TOL would be stored as 0.0, unconforming
        rows = np.maximum(rows, 1e-9)
    keep = int(rng.integers(m))  # never zeroed, so every row keeps mass
    zero = np.zeros((n, m), dtype=bool)
    zero[:, rng.random(m) < 0.3] = True
    if not conforming and rng.random() < 0.5:
        zero |= rng.random((n, m)) < 0.15
    zero[:, keep] = False
    rows[zero] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    if dust:  # after the scaling, which would move them
        # conforming: a Channel stores a whole column as 0.0 or keeps it all live
        live = rng.random(m if conforming else (n, m)) < 0.3
        near = np.where(live, rng.choice(NEAR_ZERO, (n, m)), rng.choice(DUST, (n, m)))
        rows[zero] = near[zero]
    return rows


def sparse_game(seed: int, dust: bool = False, conforming: bool = False):
    """A (d, a, x, y) stack of 1-3 x 1-3 sparse channels of one 2-6 x 2-6 type.

    Returns the stack, the input labels (in shuffled order, so an explicit
    chain's pairs sorted by label differ from index order), the output
    labels and an all-pairs, chain or empty adjacency.  Some columns are
    zero in every row, and half the channels also zero single entries.
    With ``dust`` the zeroed entries are drawn from ``DUST`` and
    ``NEAR_ZERO`` instead of 0.  With ``conforming`` no single entries
    are zeroed, drawn entries are at least 1e-9, and a dusted column is
    all ``DUST`` or all ``NEAR_ZERO``, so every channel conforms to any
    adjacency.
    """
    rng = np.random.default_rng(seed)
    n_d, n_a = (int(k) for k in rng.integers(1, 4, size=2))
    n, m = (int(k) for k in rng.integers(2, 7, size=2))
    stack = np.array(
        [[_game_rows(rng, n, m, dust, conforming) for _ in range(n_a)] for _ in range(n_d)]
    )
    inputs = [f"x{i}" for i in rng.permutation(n)]
    return stack, inputs, [f"y{j}" for j in range(m)], _adjacency(rng, inputs)

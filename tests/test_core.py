"""Domain type construction, validation, and alignment."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leakgames.core import (
    AdjacencyRelation,
    Distribution,
    DpMeasure,
    DuplicateLabel,
    EmptyDomain,
    GainFunction,
    GameSpec,
    InputMismatch,
    LabelMismatch,
    NegativeEntry,
    NonConforming,
    NonFiniteEntry,
    NonStochastic,
    QifMeasure,
    SolveReport,
    ValidationError,
    WeightCountMismatch,
    ZERO_TOL,
    align_outputs,
    bayes_gain,
    channel_from_rows,
    point_mass,
    uniform,
)
from leakgames.algebra import hidden_choice, visible_choice
from leakgames.dp import dp_utility_hidden, dp_utility_visible, hidden_upper_bound
from leakgames.qif import (
    attacker_best_response,
    qif_utility,
    subgradient,
    worst_case_vulnerability,
)
from leakgames.scenarios import build_dp_example, build_two_millionaires
from sparse_channels import sparse_channel, sparse_game


def test_identity_channel_is_valid():
    c = channel_from_rows(["0", "1"], ["T", "F"], [[1, 0], [0, 1]])
    assert c.entry("0", "T") == 1.0
    assert c.entry("1", "T") == 0.0


def test_uniform_rows_channel_is_valid():
    c = channel_from_rows(["0", "1"], ["T", "F"], [[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(c.matrix.sum(axis=1), 1.0)


def test_bad_row_sum_rejected():
    with pytest.raises(NonStochastic):
        channel_from_rows(["0", "1"], ["T", "F"], [[0.9, 0.2], [0.1, 0.9]])


def test_negative_entry_rejected():
    with pytest.raises(NegativeEntry):
        channel_from_rows(["0", "1"], ["T", "F"], [[1.1, -0.1], [0.5, 0.5]])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), None])
def test_non_finite_entry_rejected(bad):
    with pytest.raises(NonFiniteEntry):
        channel_from_rows(["0", "1"], ["T", "F"], [[bad, 1], [0.5, 0.5]])
    with pytest.raises(NonFiniteEntry):
        GainFunction(("w0",), ("0", "1"), [[bad, 1.0]])


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabel):
        channel_from_rows(["0", "0"], ["T", "F"], [[1, 0], [0, 1]])
    with pytest.raises(DuplicateLabel):
        channel_from_rows(["0", "1"], ["T", "T"], [[1, 0], [0, 1]])


def test_rows_near_tolerance_accepted():
    c = channel_from_rows(["x"], ["a", "b"], [[0.5 + 4e-10, 0.5 + 4e-10]])
    assert c.matrix.shape == (1, 2)


def test_channel_matrix_is_immutable():
    c = channel_from_rows(["0", "1"], ["T", "F"], [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        c.matrix[0, 0] = 0.5


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_channel_stores_dust_and_small_negatives_as_zero(seed):
    # -5e-10 passes the sign check, which allows STOCHASTIC_TOL
    c = channel_from_rows(["0", "1"], ["T", "F"], [[1.0, 1e-17], [1 + 5e-10, -5e-10]])
    assert c.matrix[:, 1].tolist() == [0.0, 0.0]
    assert not np.signbit(c.matrix).any()
    # dust set after the row scaling, from 1e-300 up to ZERO_TOL itself
    assert sparse_channel(seed, dust="after") == sparse_channel(seed)


@given(st.integers(0, 2**32 - 1), st.sampled_from([True, "after"]))
@settings(max_examples=50, deadline=None)
def test_channel_stores_exact_zeros(seed, dust):
    m = sparse_channel(seed, dust)[0].matrix
    assert not np.any(m < 0)
    assert not np.any((m > 0) & (m <= ZERO_TOL))


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_random_normalized_tables_are_stochastic(seed):
    rng = np.random.default_rng(seed)
    n, m = rng.integers(1, 5), rng.integers(1, 6)
    raw = rng.random((n, m)) + 1e-3
    rows = raw / raw.sum(axis=1, keepdims=True)
    c = channel_from_rows(
        [f"x{i}" for i in range(n)], [f"y{j}" for j in range(m)], rows
    )
    assert np.all(np.abs(c.matrix.sum(axis=1) - 1) <= 1e-9)


def test_align_outputs_identical_lists_unchanged():
    c1 = channel_from_rows(["x"], ["a", "b"], [[0.5, 0.5]])
    c2 = channel_from_rows(["x"], ["a", "b"], [[0.25, 0.75]])
    out = align_outputs([c1, c2])
    assert out[0] is c1 and out[1] is c2


def test_align_outputs_overlapping_lists():
    c1 = channel_from_rows(["x"], ["y1", "y2"], [[0.4, 0.6]])
    c2 = channel_from_rows(["x"], ["y1", "y3"], [[0.3, 0.7]])
    a1, a2 = align_outputs([c1, c2])
    assert a1.outputs == a2.outputs == ("y1", "y2", "y3")
    assert np.allclose(a1.matrix, [[0.4, 0.6, 0.0]])
    assert np.allclose(a2.matrix, [[0.3, 0.0, 0.7]])
    assert np.allclose(a1.matrix.sum(axis=1), 1.0)
    assert np.allclose(a2.matrix.sum(axis=1), 1.0)


def test_align_outputs_disjoint_lists():
    c1 = channel_from_rows(["x", "z"], ["y1"], [[1.0], [1.0]])
    c2 = channel_from_rows(["x", "z"], ["y2"], [[1.0], [1.0]])
    a1, a2 = align_outputs([c1, c2])
    assert a1.outputs == ("y1", "y2")
    assert np.allclose(a1.matrix, [[1, 0], [1, 0]])
    assert np.allclose(a2.matrix, [[0, 1], [0, 1]])


def test_align_outputs_requires_shared_inputs():
    c1 = channel_from_rows(["x"], ["y"], [[1.0]])
    c2 = channel_from_rows(["w"], ["y"], [[1.0]])
    with pytest.raises(InputMismatch):
        align_outputs([c1, c2])


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_align_outputs_idempotent_and_sum_preserving(seed):
    rng = np.random.default_rng(seed)
    inputs = ["x0", "x1"]
    chans = []
    for _ in range(3):
        labels = sorted(rng.choice(["a", "b", "c", "d"], size=rng.integers(1, 4), replace=False))
        raw = rng.random((2, len(labels))) + 1e-3
        chans.append(channel_from_rows(inputs, labels, raw / raw.sum(1, keepdims=True)))
    once = align_outputs(chans)
    twice = align_outputs(once)
    for a, b in zip(once, twice):
        assert a.outputs == b.outputs
        assert np.array_equal(a.matrix, b.matrix)
        assert np.all(np.abs(a.matrix.sum(axis=1) - 1) <= 1e-9)


def test_uniform_two_labels():
    u = uniform(["0", "1"])
    assert np.allclose(u.weights, [0.5, 0.5])


def test_uniform_thirty_labels():
    u = uniform([f"n{i}" for i in range(30)])
    assert np.allclose(u.weights, 1 / 30)


def test_uniform_singleton():
    assert uniform(["d"]).weights[0] == 1.0


def test_uniform_rejects_empty():
    with pytest.raises(EmptyDomain):
        uniform([])


def test_point_mass():
    p = point_mass(["a", "b", "c"], "b")
    assert p.weight("b") == 1.0 and p.support() == ("b",)


def test_distribution_rejects_bad_sum():
    with pytest.raises(NonStochastic):
        Distribution(("a", "b"), [0.6, 0.6])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_distribution_rejects_non_finite_weight(bad):
    with pytest.raises(NonFiniteEntry):
        Distribution(("a", "b"), [bad, 0.5])


def test_adjacency_all_pairs_orders():
    adj = AdjacencyRelation.all_pairs()
    pairs = list(adj.ordered_pairs(["x", "y", "z"]))
    assert (0, 1) in pairs and (1, 0) in pairs and len(pairs) == 6


def test_adjacency_explicit_rejects_reflexive():
    with pytest.raises(ValidationError):
        AdjacencyRelation.explicit([("x", "x")])


def test_adjacency_explicit_unknown_label():
    adj = AdjacencyRelation.explicit([("x", "w")])
    with pytest.raises(LabelMismatch):
        list(adj.ordered_pairs(["x", "y"]))


def test_equal_relations_and_measures_hash_equal():
    adj = AdjacencyRelation.explicit([("x", "y"), ("y", "z")])
    reversed_pair = AdjacencyRelation.explicit([("z", "y"), ("x", "y")])
    assert adj == reversed_pair and hash(adj) == hash(reversed_pair)
    assert adj != AdjacencyRelation.all_pairs()
    inputs = ["x", "y"]
    measure = QifMeasure(uniform(inputs), bayes_gain(inputs))
    rebuilt = QifMeasure(Distribution(("x", "y"), [0.5, 0.5]), bayes_gain(("x", "y")))
    assert measure == rebuilt and hash(measure) == hash(rebuilt)
    assert measure != QifMeasure(Distribution(("x", "y"), [0.4, 0.6]), bayes_gain(inputs))


def _tiny_game(measure):
    inputs = ["x0", "x1"]
    c = channel_from_rows(inputs, ["y0", "y1"], [[0.7, 0.3], [0.4, 0.6]])
    chans = {(d, a): c for d in "01" for a in "01"}
    return GameSpec(("0", "1"), ("0", "1"), chans, measure)


def test_gamespec_requires_full_channel_family():
    inputs = ["x0", "x1"]
    c = channel_from_rows(inputs, ["y0", "y1"], [[0.7, 0.3], [0.4, 0.6]])
    with pytest.raises(ValidationError):
        GameSpec(
            ("0", "1"),
            ("0",),
            {("0", "0"): c},
            QifMeasure(uniform(inputs), bayes_gain(inputs)),
        )


def test_gamespec_aligns_outputs():
    inputs = ["x0", "x1"]
    c1 = channel_from_rows(inputs, ["u"], [[1.0], [1.0]])
    c2 = channel_from_rows(inputs, ["v"], [[1.0], [1.0]])
    game = GameSpec(
        ("0",),
        ("0", "1"),
        {("0", "0"): c1, ("0", "1"): c2},
        QifMeasure(uniform(inputs), bayes_gain(inputs)),
    )
    assert game.outputs == ("u", "v")


def test_gamespec_rejects_nonconforming_dp_family():
    inputs = ["x0", "x1"]
    # zero against non-zero on an adjacent pair
    bad = channel_from_rows(inputs, ["y0", "y1"], [[1.0, 0.0], [0.5, 0.5]])
    chans = {(d, a): bad for d in "01" for a in "01"}
    with pytest.raises(NonConforming):
        GameSpec(("0", "1"), ("0", "1"), chans, DpMeasure(AdjacencyRelation.all_pairs()))


def test_gamespec_accepts_conforming_dp_family():
    game = _tiny_game(DpMeasure(AdjacencyRelation.all_pairs()))
    assert game.is_dp()


def _loop_conformance_violation(channel, adj):
    """First zero-pattern disagreement on an adjacent pair, or None.

    The channel-by-channel check ``GameSpec`` once ran, kept as an oracle.
    """
    zero = channel.matrix <= ZERO_TOL
    for i, j in adj.ordered_pairs(channel.inputs):
        if i > j:
            continue  # pattern check is symmetric
        bad = np.nonzero(zero[i] != zero[j])[0]
        if bad.size:
            return channel.inputs[i], channel.inputs[j], channel.outputs[int(bad[0])]
    return None


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=50, deadline=None)
def test_gamespec_nonconforming_message_matches_loop(seed, dust):
    stack, inputs, outputs, adj = sparse_game(seed, dust)
    d_actions = [f"d{k}" for k in range(stack.shape[0])]
    a_actions = [f"a{k}" for k in range(stack.shape[1])]
    chans = {
        (d, a): channel_from_rows(inputs, outputs, stack[k, l])
        for k, d in enumerate(d_actions)
        for l, a in enumerate(a_actions)
    }
    expected = None
    for p, c in chans.items():
        hit = _loop_conformance_violation(c, adj)
        if hit is not None:
            expected = (
                f"channel for profile {p} breaks the zero-pattern condition at "
                f"inputs ({hit[0]!r}, {hit[1]!r}), output {hit[2]!r}"
            )
            break
    if expected is None:
        assert GameSpec(d_actions, a_actions, chans, DpMeasure(adj)).is_dp()
    else:
        with pytest.raises(NonConforming) as err:
            GameSpec(d_actions, a_actions, chans, DpMeasure(adj))
        assert str(err.value) == expected


def test_gamespec_rejects_prior_label_mismatch():
    inputs = ["x0", "x1"]
    c = channel_from_rows(inputs, ["y0", "y1"], [[0.7, 0.3], [0.4, 0.6]])
    with pytest.raises(LabelMismatch):
        GameSpec(
            ("0",),
            ("0",),
            {("0", "0"): c},
            QifMeasure(uniform(["a", "b"]), bayes_gain(["a", "b"])),
        )


def test_solve_report_rejects_negative_gap():
    with pytest.raises(ValidationError):
        SolveReport(
            defender_strategy=uniform(["0"]),
            value=1.0,
            iterations=1,
            certificate_gap=-1.0,
        )


# -- strategies at the public boundary ----------------------------------------------

QIF_GAME = build_two_millionaires()
DP_GAME = build_dp_example()
HALF = [0.5, 0.5]
MIXES = DP_GAME.channels_for_attack("0")

# each public utility that takes a strategy, with the bad strategy in one slot
STRATEGY_SLOTS = {
    "qif_utility delta": lambda w: qif_utility(QIF_GAME, w, HALF),
    "qif_utility alpha": lambda w: qif_utility(QIF_GAME, HALF, w),
    "worst_case_vulnerability delta": lambda w: worst_case_vulnerability(QIF_GAME, w),
    "attacker_best_response delta": lambda w: attacker_best_response(QIF_GAME, w),
    "subgradient delta": lambda w: subgradient(QIF_GAME, w),
    "dp_utility_hidden delta": lambda w: dp_utility_hidden(DP_GAME, w, HALF),
    "dp_utility_hidden alpha": lambda w: dp_utility_hidden(DP_GAME, HALF, w),
    "dp_utility_visible delta": lambda w: dp_utility_visible(DP_GAME, w, HALF),
    "dp_utility_visible alpha": lambda w: dp_utility_visible(DP_GAME, HALF, w),
    "hidden_upper_bound delta": lambda w: hidden_upper_bound(DP_GAME, w, HALF),
    "hidden_upper_bound alpha": lambda w: hidden_upper_bound(DP_GAME, HALF, w),
    "hidden_choice weights": lambda w: hidden_choice(w, MIXES),
    "visible_choice weights": lambda w: visible_choice(w, MIXES),
}
BAD_STRATEGIES = {
    "negative": ([2.0, -1.0], NegativeEntry),
    "nan": ([float("nan"), 1.0], NonFiniteEntry),
    "short sum": ([0.3, 0.3], NonStochastic),
    "wrong length": ([1 / 3] * 3, WeightCountMismatch),
}


@pytest.mark.parametrize("slot", STRATEGY_SLOTS)
@pytest.mark.parametrize("bad", BAD_STRATEGIES)
def test_public_utilities_reject_bad_strategies(slot, bad):
    weights, error = BAD_STRATEGIES[bad]
    STRATEGY_SLOTS[slot](HALF)  # the good strategy passes
    with pytest.raises(error):
        STRATEGY_SLOTS[slot](weights)

"""Builders: worked games, randomized response, LDP design, Crowds."""

import math

import numpy as np
import pytest

from leakgames.algebra import cascade
from leakgames.core import (
    AdjacencyRelation,
    DisconnectedGraph,
    DomainTooSmall,
    InconsistentSecrets,
    InvalidForwardProbability,
    ValidationError,
)
from leakgames.measures import dp_level, posterior_vulnerability
from leakgames.qif import worst_case_vulnerability
from leakgames.scenarios import (
    NO_DETECTION,
    CorrelationTable,
    CrowdsConfig,
    build_binary_sum,
    build_crowds,
    build_dp_example,
    build_ldp_game,
    build_two_millionaires,
    compas_tables,
    crowds_channel,
    manet_config,
    randomized_response,
    simulate_crowds,
)

ALL = AdjacencyRelation.all_pairs()


# -- two-millionaires ----------------------------------------------------------

def test_two_millionaires_posterior_table():
    g = build_two_millionaires()
    prior, gain = g.measure.prior, g.measure.gain
    table = np.array(
        [
            [posterior_vulnerability(gain, prior, g.channel(d, a)) for a in "01"]
            for d in "01"
        ]
    )
    assert np.allclose(table, [[1.0, 0.5], [0.5, 1.0]])


def test_two_millionaires_constant_channel_rows():
    g = build_two_millionaires()
    assert np.allclose(g.channel("0", "1").matrix, [[1, 0], [1, 0]])


def test_two_millionaires_solve():
    from leakgames.qif import solve_qif

    rep = solve_qif(build_two_millionaires(), tolerance=1e-3, max_iter=4000)
    assert rep.value == pytest.approx(0.75, abs=1e-3)


# -- binary sum ------------------------------------------------------------------

def test_binary_sum_pure_profiles_all_reveal():
    g = build_binary_sum()
    prior, gain = g.measure.prior, g.measure.gain
    for d in "01":
        for a in "01":
            assert posterior_vulnerability(gain, prior, g.channel(d, a)) == 1.0


def test_binary_sum_even_mix_hides():
    g = build_binary_sum()
    value, _ = worst_case_vulnerability(g, [0.5, 0.5])
    assert value == pytest.approx(0.5)


def test_binary_sum_flipped_channel():
    g = build_binary_sum()
    assert np.allclose(g.channel("1", "0").matrix, [[0, 1], [1, 0]])


# -- dp example -------------------------------------------------------------------

def test_dp_example_levels():
    g = build_dp_example()
    adj = g.measure.adjacency
    assert dp_level(g.channel("0", "0"), adj) == pytest.approx(2.197, abs=5e-4)
    assert dp_level(g.channel("0", "1"), adj) == pytest.approx(1.099, abs=5e-4)


def test_dp_example_off_diagonal_channels_identical():
    g = build_dp_example()
    assert g.channel("0", "1") == g.channel("1", "0")
    assert np.allclose(g.channel("0", "1").matrix, [[0.01, 0.99], [0.03, 0.97]])


# -- randomized response ------------------------------------------------------------

def test_rr_ln3_binary():
    c = randomized_response(math.log(3), ["a", "b"])
    assert np.allclose(np.diag(c.matrix), 0.75)
    assert c.matrix[0, 1] == pytest.approx(0.25)


def test_rr_zero_eps_uniform():
    c = randomized_response(0.0, ["a", "b", "c", "d"])
    assert np.allclose(c.matrix, 0.25)


def test_rr_eps2_eight_values():
    c = randomized_response(2.0, [f"v{i}" for i in range(8)])
    assert c.matrix[0, 0] == pytest.approx(math.exp(2) / (7 + math.exp(2)))
    assert dp_level(c, ALL) == pytest.approx(2.0, abs=1e-12)


def test_rr_rejects_tiny_domain():
    with pytest.raises(DomainTooSmall):
        randomized_response(1.0, ["only"])


# -- correlation tables / LDP game ---------------------------------------------------

def test_correlation_table_renormalizes_rounded_rows():
    with pytest.warns(UserWarning):
        t = CorrelationTable(
            "t", ("s0", "s1"), ("a", "b"), [[0.5002, 0.5001], [0.5, 0.5]]
        )
    assert np.allclose(t.rows.sum(axis=1), 1.0, atol=1e-12)


def test_correlation_table_rejects_large_deficit():
    with pytest.raises(ValidationError):
        CorrelationTable("t", ("s0",), ("a", "b"), [[0.5, 0.3]])


def test_compas_tables_shapes():
    tables = compas_tables()
    assert [t.name for t in tables] == ["z1", "z2", "z3", "z4"]
    assert [len(t.attribute_values) for t in tables] == [8, 2, 2, 7]
    for t in tables:
        assert t.secrets == ("BC", "DRRD", "Pretrial", "Probation")
        assert np.allclose(t.rows.sum(axis=1), 1.0, atol=1e-9)


def test_ldp_game_matches_direct_cascade():
    tables = compas_tables()
    game = build_ldp_game()
    gender = tables[1]
    direct = cascade(
        gender.to_channel(), randomized_response(0.1, gender.output_labels())
    )
    built = game.channel("2", "2")
    idx = [built.outputs.index(y) for y in direct.outputs]
    assert np.allclose(built.matrix[:, idx], direct.matrix, atol=1e-15)
    assert dp_level(direct, ALL) == pytest.approx(0.0145, abs=5e-3)


def test_ldp_game_reference_levels():
    game = build_ldp_game()
    adj = game.measure.adjacency
    assert dp_level(game.channel("1", "1"), adj) == pytest.approx(0.0395, abs=5e-3)
    assert dp_level(game.channel("2", "1"), adj) == pytest.approx(0.5994, abs=5e-3)
    assert dp_level(game.channel("4", "4"), adj) == pytest.approx(0.0237, abs=5e-3)


def test_ldp_full_support_upper_bound():
    from leakgames.dp import hidden_upper_bound

    game = build_ldp_game()
    full_d = [0.25] * 4
    bound = hidden_upper_bound(game, full_d, full_d)
    assert bound == pytest.approx(0.7306, abs=5e-3)


def test_ldp_equal_eps_makes_defender_irrelevant():
    game = build_ldp_game(eps_strong=1.0, eps_weak=1.0)
    for a in game.attacker_actions:
        first = game.channel("1", a)
        for d in game.attacker_actions:
            assert game.channel(d, a) == first


def test_ldp_rejects_inconsistent_secrets():
    t1 = CorrelationTable("u", ("s0", "s1"), ("a", "b"), [[0.5, 0.5], [0.4, 0.6]])
    t2 = CorrelationTable("v", ("s0", "sX"), ("a", "b"), [[0.5, 0.5], [0.4, 0.6]])
    with pytest.raises(InconsistentSecrets):
        build_ldp_game([t1, t2])


# -- crowds ---------------------------------------------------------------------------

def _two_node_config(p_f=0.8):
    return CrowdsConfig(
        nodes=("n1", "n2"),
        edges=(("n1", "n2"),),
        forward_prob=p_f,
        attacker_sites={"c": ("n1", "n2")},
        defender_sites={"none": ()},
    )


def test_crowds_two_node_hand_solution():
    # absorbing-chain closed form for two mutually connected nodes with a
    # corrupted node adjacent to both and no deliverer:
    #   C(n1, det n1) = 1/2 + (p^2/8) / (1 - p^2/4)
    #   C(n1, det n2) = (p/4) / (1 - p^2/4)
    #   C(n1, none)   = (1/2) * (1-p)/(1-p/2)
    p = 0.8
    c = crowds_channel(_two_node_config(p), "none", "c")
    denom = 1 - p * p / 4
    assert c.entry("n1", "n1") == pytest.approx(0.5 + (p * p / 8) / denom, abs=1e-12)
    assert c.entry("n1", "n2") == pytest.approx((p / 4) / denom, abs=1e-12)
    assert c.entry("n1", NO_DETECTION) == pytest.approx(0.5 * (1 - p) / (1 - p / 2), abs=1e-12)
    assert np.allclose(c.matrix.sum(axis=1), 1.0)


def test_crowds_unreachable_corrupted_node():
    cfg = CrowdsConfig(
        nodes=("n1", "n2"),
        edges=(("n1", "n2"),),
        forward_prob=0.5,
        attacker_sites={"c": ()},
        defender_sites={"none": ()},
    )
    chan = crowds_channel(cfg, "none", "c")
    assert np.allclose(chan.matrix[:, -1], 1.0)
    game = build_crowds(cfg)
    value, _ = worst_case_vulnerability(game, [1.0])
    assert value == pytest.approx(0.5)  # 1/|nodes|


def test_crowds_forced_single_path():
    cfg = CrowdsConfig(
        nodes=("leaf",),
        edges=(),
        forward_prob=0.3,
        attacker_sites={"hub": ("leaf",)},
        defender_sites={"none": ()},
    )
    chan = crowds_channel(cfg, "none", "hub")
    assert chan.entry("leaf", "leaf") == pytest.approx(1.0)


def test_crowds_rejects_disconnected_graph():
    with pytest.raises(DisconnectedGraph):
        CrowdsConfig(
            nodes=("a", "b", "c"),
            edges=(("a", "b"),),
            forward_prob=0.5,
            attacker_sites={"s": ("a",)},
            defender_sites={"s": ("a",)},
        )


def test_crowds_rejects_bad_forward_prob():
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(InvalidForwardProbability):
            CrowdsConfig(
                nodes=("a", "b"),
                edges=(("a", "b"),),
                forward_prob=bad,
                attacker_sites={"s": ("a",)},
                defender_sites={"s": ("a",)},
            )


def _random_crowds_config(rng, with_deliverer):
    n = int(rng.integers(3, 7))
    nodes = tuple(f"n{i}" for i in range(n))
    edges = {(nodes[i - 1], nodes[i]) for i in range(1, n)}  # spanning path
    for _ in range(n):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.add(tuple(sorted((nodes[i], nodes[j]))))
    corrupt_neigh = tuple(
        nodes[i] for i in rng.choice(n, size=max(1, n // 2), replace=False)
    )
    deliver_neigh = (
        tuple(nodes[i] for i in rng.choice(n, size=max(1, n // 2), replace=False))
        if with_deliverer
        else ()
    )
    return CrowdsConfig(
        nodes=nodes,
        edges=tuple(edges),
        forward_prob=float(rng.uniform(0.3, 0.9)),
        attacker_sites={"c": corrupt_neigh},
        defender_sites={"d": deliver_neigh},
    ), deliver_neigh


@pytest.mark.parametrize("seed", range(25))
def test_deliverer_never_increases_detection_probabilities(seed):
    # A deliverer thins every forwarding choice and shortens paths, so each
    # detection entry can only shrink.  The full Bayes vulnerability is NOT
    # monotone, though: the no-detection column becomes more informative
    # (its mass grows more for initiators near the deliverer), and on some
    # graphs that outweighs the detection loss.  Both effects are
    # cross-checked against the Monte-Carlo oracle elsewhere.
    rng = np.random.default_rng(seed)
    cfg_with, deliver_neigh = _random_crowds_config(rng, with_deliverer=True)
    cfg_without = CrowdsConfig(
        nodes=cfg_with.nodes,
        edges=cfg_with.edges,
        forward_prob=cfg_with.forward_prob,
        attacker_sites=cfg_with.attacker_sites,
        defender_sites={"d": ()},
    )
    with_d = crowds_channel(cfg_with, "d", "c").matrix
    without_d = crowds_channel(cfg_without, "d", "c").matrix
    assert np.all(with_d[:, :-1] <= without_d[:, :-1] + 1e-12)
    assert np.all(with_d[:, -1] >= without_d[:, -1] - 1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_simulation_agrees_with_analytic_channel(seed):
    rng = np.random.default_rng(seed + 100)
    cfg, _ = _random_crowds_config(rng, with_deliverer=True)
    analytic = crowds_channel(cfg, "d", "c")
    runs = 40_000
    empirical = simulate_crowds(cfg, "d", "c", runs_per_initiator=runs, seed=seed)
    sigma = np.sqrt(analytic.matrix * (1 - analytic.matrix) / runs)
    dev = np.abs(empirical.matrix - analytic.matrix)
    with np.errstate(invalid="ignore"):
        z = np.where(sigma > 0, dev / sigma, np.where(dev > 0, np.inf, 0.0))
    assert z.max() <= 4.5  # generous per-seed bound; acceptance pins 3 sigma


def test_manet_topology_loads_and_validates():
    cfg = manet_config()
    assert len(cfg.nodes) == 30
    assert len(cfg.attacker_sites) == 9
    assert cfg.forward_prob == 0.8
    game = build_crowds(cfg)
    for d in game.defender_actions:
        for a in game.attacker_actions:
            assert np.all(np.abs(game.channel(d, a).matrix.sum(axis=1) - 1) <= 1e-9)


# -- Crowds channels against the per-initiator loop -------------------------------

def _loop_crowds_channel(config, defender_site, attacker_site):
    """Per-initiator loop form of crowds_channel, kept as a byte-level oracle."""
    nodes = config.nodes
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    adj = config.adjacency()
    corrupt = set(config.attacker_sites[attacker_site])
    deliver = set(config.defender_sites[defender_site])
    p_f = config.forward_prob
    degree = np.array(
        [len(adj[z]) + (z in corrupt) + (z in deliver) for z in nodes], dtype=float
    )
    transit = np.zeros((n, n))
    onto_corrupt = np.zeros(n)
    for z in nodes:
        zi = index[z]
        for w in adj[z]:
            transit[zi, index[w]] = p_f / degree[zi]
        if z in corrupt:
            onto_corrupt[zi] = p_f / degree[zi]
    absorb = np.linalg.solve(np.eye(n) - transit, np.diag(onto_corrupt))
    rows = np.zeros((n, n + 1))
    for x in nodes:
        xi = index[x]
        det = np.zeros(n)
        for w in adj[x]:
            det += absorb[index[w]] / degree[xi]
        if x in corrupt:
            det[xi] += 1.0 / degree[xi]
        rows[xi, :n] = det
        rows[xi, n] = max(0.0, 1.0 - det.sum())
    return rows


def _assert_every_profile_matches_loop(cfg):
    game = build_crowds(cfg)  # one solve stack per defender site
    for d in cfg.defender_sites:
        for a in cfg.attacker_sites:
            loop = _loop_crowds_channel(cfg, d, a)
            assert np.array_equal(crowds_channel(cfg, d, a).matrix, loop), (d, a)
            assert np.array_equal(game.channel(d, a).matrix, loop), (d, a)


@pytest.mark.parametrize("forward_prob", [0.8, 0.5])
def test_crowds_channel_matches_loop_on_manet(forward_prob):
    _assert_every_profile_matches_loop(manet_config(forward_prob))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_crowds_channel_matches_loop_with_empty_and_shared_sites(seed):
    rng = np.random.default_rng(seed + 300)
    n = 14
    nodes = tuple(f"n{i}" for i in range(n))
    edges = {(nodes[i - 1], nodes[i]) for i in range(1, n)}
    for _ in range(2 * n):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.add(tuple(sorted((nodes[i], nodes[j]))))
    picks = [tuple(nodes[i] for i in sorted(rng.choice(n, size=4, replace=False)))
             for _ in range(2)]
    shared = nodes[int(rng.integers(0, n))]
    cfg = CrowdsConfig(
        nodes=nodes,
        edges=tuple(edges),
        forward_prob=float(rng.uniform(0.3, 0.9)),
        attacker_sites={"far": (), "a1": picks[0] + (shared,), "a2": picks[1]},
        defender_sites={"none": (), "d1": (shared,) + picks[1]},
    )
    assert shared in cfg.attacker_sites["a1"] and shared in cfg.defender_sites["d1"]
    _assert_every_profile_matches_loop(cfg)

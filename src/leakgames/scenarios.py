"""Builders for worked games and case studies.

Four families:

- two small QIF games (a two-party comparison service and a binary-sum
  service) whose four deterministic channels make the convexity effects
  of hidden choice easy to see;
- a small two-mechanism DP game;
- a local-DP mechanism-design game: an individual discloses one of four
  attributes correlated with a sensitive record field, obfuscated by
  randomized response whose strength depends on which attribute the
  defender chose to protect (correlation tables from the COMPAS
  recidivism dataset are embedded as defaults);
- the Crowds anonymity protocol on a mobile ad-hoc network, where the
  attacker places a corrupted node and the defender places a deliverer
  node, and each placement pair induces a channel from initiator to
  first-detected forwarder.

Crowds channels are computed analytically from the absorbing Markov
chain of the forwarding walk (dense linear solve, no sampling noise); a
Monte-Carlo simulator of the same protocol model is provided as an
independent cross-check.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from typing import Mapping, Sequence

import numpy as np

from .core import (
    AdjacencyRelation,
    Channel,
    DisconnectedGraph,
    DomainTooSmall,
    DpMeasure,
    GameSpec,
    InconsistentSecrets,
    InvalidForwardProbability,
    NegativeEpsilon,
    QifMeasure,
    ValidationError,
    bayes_gain,
    channel_from_rows,
    uniform,
)
from .algebra import cascade

#: Observation label for a message delivered without touching the
#: corrupted node.
NO_DETECTION = "⊥"


# ---------------------------------------------------------------------------
# Small worked games
# ---------------------------------------------------------------------------

def build_two_millionaires() -> GameSpec:
    """Two-party comparison game: which of two comparison programs runs.

    The defender picks the program (d), the attacker picks her own input
    (a); the channel maps the defender's secret bit to the comparison
    outcome.  One action pair fully reveals the secret, the other leaks
    nothing, symmetrically, so the equilibrium mixes both programs evenly.
    """
    inputs = ("0", "1")
    outputs = ("T", "F")
    channels = {
        ("0", "0"): channel_from_rows(inputs, outputs, [[1, 0], [0, 1]]),
        ("0", "1"): channel_from_rows(inputs, outputs, [[1, 0], [1, 0]]),
        ("1", "0"): channel_from_rows(inputs, outputs, [[1, 0], [1, 0]]),
        ("1", "1"): channel_from_rows(inputs, outputs, [[0, 1], [1, 0]]),
    }
    return GameSpec(
        defender_actions=("0", "1"),
        attacker_actions=("0", "1"),
        channels=channels,
        measure=QifMeasure(prior=uniform(inputs), gain=bayes_gain(inputs)),
    )


def build_binary_sum() -> GameSpec:
    """Binary-sum game: XOR of the secret with the attacker input.

    Every pure profile reveals the secret completely, yet the even mixture
    of the two programs leaks nothing: the showcase for why hidden-choice
    utility is not an expectation over pure strategies.
    """
    inputs = ("0", "1")
    outputs = ("0", "1")
    identity = [[1, 0], [0, 1]]
    flipped = [[0, 1], [1, 0]]
    channels = {
        ("0", "0"): channel_from_rows(inputs, outputs, identity),
        ("0", "1"): channel_from_rows(inputs, outputs, flipped),
        ("1", "0"): channel_from_rows(inputs, outputs, flipped),
        ("1", "1"): channel_from_rows(inputs, outputs, identity),
    }
    return GameSpec(
        defender_actions=("0", "1"),
        attacker_actions=("0", "1"),
        channels=channels,
        measure=QifMeasure(prior=uniform(inputs), gain=bayes_gain(inputs)),
    )


def build_dp_example() -> GameSpec:
    """Two-mechanism DP game over a binary secret, all pairs adjacent.

    C_00 is a noisy-response channel at level ln 9; C_01 = C_10 is a
    near-constant channel at level ln 3; C_11 sits at level ln 7.  The
    asymmetry makes the hidden-choice equilibrium an uneven mixture
    (about 0.14/0.86) and the visible-choice optimum the pure second
    action.
    """
    inputs = ("x0", "x1")
    outputs = ("y0", "y1")
    channels = {
        ("0", "0"): channel_from_rows(inputs, outputs, [[0.90, 0.10], [0.10, 0.90]]),
        ("0", "1"): channel_from_rows(inputs, outputs, [[0.01, 0.99], [0.03, 0.97]]),
        ("1", "0"): channel_from_rows(inputs, outputs, [[0.01, 0.99], [0.03, 0.97]]),
        ("1", "1"): channel_from_rows(inputs, outputs, [[0.028, 0.972], [0.004, 0.996]]),
    }
    return GameSpec(
        defender_actions=("0", "1"),
        attacker_actions=("0", "1"),
        channels=channels,
        measure=DpMeasure(adjacency=AdjacencyRelation.all_pairs()),
    )


# ---------------------------------------------------------------------------
# Randomized response and the local-DP design game
# ---------------------------------------------------------------------------

def randomized_response(eps: float, domain: Sequence[str]) -> Channel:
    """(eps, domain)-randomized response channel.

    Reports the true value with probability e^eps / (|domain| + e^eps - 1)
    and any other value with the remaining mass spread uniformly; its DP
    level under all-pairs adjacency is exactly eps.
    """
    if eps < 0:
        raise NegativeEpsilon(f"epsilon must be non-negative, got {eps!r}")
    domain = tuple(domain)
    k = len(domain)
    if k < 2:
        raise DomainTooSmall(f"randomized response needs at least 2 values, got {k}")
    stay = math.exp(eps) / (k + math.exp(eps) - 1)
    move = 1.0 / (k + math.exp(eps) - 1)
    matrix = np.full((k, k), move)
    np.fill_diagonal(matrix, stay)
    return channel_from_rows(domain, domain, matrix)


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Conditional distribution p(attribute value | secret).

    Rows whose sums drift from 1 by rounding (up to 1e-3) are renormalized
    at construction with a warning; larger deviations are rejected.
    """

    name: str
    secrets: tuple[str, ...]
    attribute_values: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self):
        secrets = tuple(str(s) for s in self.secrets)
        values = tuple(str(v) for v in self.attribute_values)
        object.__setattr__(self, "secrets", secrets)
        object.__setattr__(self, "attribute_values", values)
        rows = np.asarray(self.rows, dtype=float)
        if rows.shape != (len(secrets), len(values)):
            raise ValidationError(
                f"table {self.name!r} has shape {rows.shape}, expected "
                f"({len(secrets)}, {len(values)})"
            )
        if np.any(rows < 0):
            raise ValidationError(f"table {self.name!r} has negative entries")
        sums = rows.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-3):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise ValidationError(
                f"table {self.name!r} row {secrets[bad]!r} sums to {sums[bad]!r}"
            )
        if np.any(np.abs(sums - 1.0) > 1e-9):
            warnings.warn(
                f"renormalizing rounded rows of correlation table {self.name!r} "
                f"(worst row sum {sums[np.argmax(np.abs(sums - 1.0))]!r})",
                stacklevel=2,
            )
            rows = rows / sums[:, None]
        rows = np.array(rows, dtype=float)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def output_labels(self) -> tuple[str, ...]:
        """Attribute values namespaced by the table name."""
        return tuple(f"{self.name}:{v}" for v in self.attribute_values)

    def to_channel(self) -> Channel:
        return channel_from_rows(self.secrets, self.output_labels(), self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CorrelationTable):
            return NotImplemented
        return (
            self.name == other.name
            and self.secrets == other.secrets
            and self.attribute_values == other.attribute_values
            and np.array_equal(self.rows, other.rows)
        )


_COMPAS_SECRETS = ("BC", "DRRD", "Pretrial", "Probation")

_COMPAS_RAW = (
    (
        "z1",
        ("African", "Caucasian", "Hispanic", "Other", "Arabic", "Native", "Asian", "Oriental"),
        [
            [0.5366, 0.3171, 0.1463, 0.0000, 0.0000, 0.0000, 0.0000, 0.0000],
            [0.7234, 0.1436, 0.0957, 0.0266, 0.0053, 0.0053, 0.0000, 0.0000],
            [0.4956, 0.3509, 0.0909, 0.0545, 0.0009, 0.0034, 0.0032, 0.0004],
            [0.3267, 0.3799, 0.2590, 0.0176, 0.0017, 0.0039, 0.0101, 0.0011],
        ],
    ),
    (
        "z2",
        ("Male", "Female"),
        [
            [0.731707, 0.268293],
            [0.87234, 0.12766],
            [0.802482, 0.197518],
            [0.732053, 0.267947],
        ],
    ),
    (
        "z3",
        ("English", "Spanish"),
        [
            [1.0000, 0.0000],
            [1.0000, 0.0000],
            [0.9969, 0.0031],
            [0.9935, 0.0065],
        ],
    ),
    (
        "z4",
        ("Single", "Married", "Divorced", "Separated", "Widowed", "Other", "Unknown"),
        [
            [0.9268, 0.0000, 0.0488, 0.0244, 0.0000, 0.0000, 0.0000],
            [0.9149, 0.0479, 0.0106, 0.0053, 0.0053, 0.0160, 0.0000],
            [0.7664, 0.1201, 0.0482, 0.0258, 0.0050, 0.0295, 0.0050],
            [0.6820, 0.1685, 0.0990, 0.0387, 0.0094, 0.0020, 0.0003],
        ],
    ),
)


def compas_tables() -> list[CorrelationTable]:
    """The four embedded COMPAS attribute/secret correlation tables.

    Attributes: ethnicity (z1), gender (z2), language (z3), marital
    status (z4); the secret is the agency_text record field.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tables are 4-decimal rounded
        return [
            CorrelationTable(name, _COMPAS_SECRETS, values, rows)
            for name, values, rows in _COMPAS_RAW
        ]


def build_ldp_game(
    tables: Sequence[CorrelationTable] | None = None,
    eps_strong: float = 0.1,
    eps_weak: float = 2.0,
) -> GameSpec:
    """Local-DP mechanism-selection game.

    The attacker queries one attribute (action a); the defender picks
    which attribute gets the strong randomized-response noise (action d).
    The channel for (d, a) cascades the correlation table of attribute a
    with randomized response at ``eps_strong`` when d = a and
    ``eps_weak`` otherwise.  Adjacency is all-pairs over the secrets.
    """
    if tables is None:
        tables = compas_tables()
    tables = list(tables)
    if not tables:
        raise ValidationError("need at least one correlation table")
    if eps_strong < 0 or eps_weak < 0:
        raise NegativeEpsilon("randomized-response levels must be non-negative")
    secrets = tables[0].secrets
    for t in tables[1:]:
        if t.secrets != secrets:
            raise InconsistentSecrets(
                f"tables disagree on secrets: {secrets} vs {t.secrets}"
            )
    actions = tuple(str(i + 1) for i in range(len(tables)))
    channels = {}
    for d_idx, d in enumerate(actions):
        for a_idx, a in enumerate(actions):
            table = tables[a_idx]
            eps = eps_strong if d_idx == a_idx else eps_weak
            noise = randomized_response(eps, table.output_labels())
            channels[(d, a)] = cascade(table.to_channel(), noise)
    return GameSpec(
        defender_actions=actions,
        attacker_actions=actions,
        channels=channels,
        measure=DpMeasure(adjacency=AdjacencyRelation.all_pairs()),
    )


# ---------------------------------------------------------------------------
# Crowds on a MANET
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CrowdsConfig:
    """Crowds protocol instance: honest topology plus candidate sites.

    ``attacker_sites`` maps each candidate corrupted-node location to the
    honest nodes in its communication range; ``defender_sites`` does the
    same for candidate deliverer locations.  An empty neighbor list
    models a site out of everyone's range.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    forward_prob: float
    attacker_sites: Mapping[str, tuple[str, ...]]
    defender_sites: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        nodes = tuple(str(n) for n in self.nodes)
        if not nodes or len(set(nodes)) != len(nodes):
            raise ValidationError("honest node list must be non-empty and unique")
        object.__setattr__(self, "nodes", nodes)
        known = set(nodes)
        edges = []
        for u, v in self.edges:
            u, v = str(u), str(v)
            if u == v:
                raise ValidationError(f"self-loop at node {u!r}")
            if u not in known or v not in known:
                raise ValidationError(f"edge ({u!r}, {v!r}) references unknown node")
            edges.append(tuple(sorted((u, v))))
        object.__setattr__(self, "edges", tuple(sorted(set(edges))))
        if not (0.0 < self.forward_prob < 1.0):
            raise InvalidForwardProbability(
                f"forward probability must lie strictly in (0, 1), "
                f"got {self.forward_prob!r}"
            )
        for side, sites in (
            ("attacker", self.attacker_sites),
            ("defender", self.defender_sites),
        ):
            if not sites:
                raise ValidationError(f"{side} site list is empty")
            for site, neighbors in sites.items():
                for n in neighbors:
                    if str(n) not in known:
                        raise ValidationError(
                            f"{side} site {site!r} references unknown node {n!r}"
                        )
        object.__setattr__(
            self,
            "attacker_sites",
            {str(s): tuple(str(n) for n in ns) for s, ns in self.attacker_sites.items()},
        )
        object.__setattr__(
            self,
            "defender_sites",
            {str(s): tuple(str(n) for n in ns) for s, ns in self.defender_sites.items()},
        )
        # Connectivity over honest nodes only.
        adj = self.adjacency()
        seen = {nodes[0]}
        frontier = [nodes[0]]
        while frontier:
            cur = frontier.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) != len(nodes):
            missing = sorted(known - seen)
            raise DisconnectedGraph(
                f"honest-node graph is disconnected; unreachable: {missing}"
            )

    def adjacency(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for u, v in self.edges:
            out[u].append(v)
            out[v].append(u)
        return {n: tuple(sorted(set(ns))) for n, ns in out.items()}


def _site_neighbors(sites: Mapping[str, tuple[str, ...]], site: str, side: str):
    if site not in sites:
        raise ValidationError(f"unknown {side} site {site!r}")
    return sites[site]


def _crowds_rows(config: CrowdsConfig, profiles) -> np.ndarray:
    """Rows of k (defender site, attacker site) profiles' channels, (k, n, n + 1), in one solve."""
    nodes = config.nodes
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    adj = config.adjacency()
    p_f = config.forward_prob

    def members(sites, site, side):  # (n,) mask of the honest nodes in the site's range
        return np.isin(nodes, _site_neighbors(sites, site, side))

    is_corrupt = np.array([members(config.attacker_sites, a, "attacker") for _, a in profiles])
    deliver = np.array([members(config.defender_sites, d, "defender") for d, _ in profiles])
    # A lone node with no site in range forwards nowhere; degree 1 keeps its
    # all-zero terms finite.
    links = np.array([len(adj[z]) for z in nodes])  # honest neighbors
    degree = np.maximum(1, links + is_corrupt + deliver).astype(float)  # (k, n)
    # neighbors[x, j]: index of x's j-th neighbor in adjacency order, padded
    # with n, which names the all-zero row appended to absorb below.
    width = int(links.max())
    neighbors = np.full((n, width), n)
    for z in nodes:
        neighbors[index[z], : len(adj[z])] = [index[w] for w in adj[z]]

    transit = np.zeros((len(profiles), n, n + 1))  # the padding column n is dropped
    transit[:, np.arange(n)[:, None], neighbors] = (p_f / degree)[:, :, None]
    onto_corrupt = np.where(is_corrupt, p_f / degree, 0.0)

    # absorb[p, z, j]: from forwarder z, probability of eventual detection at j.
    absorb = np.linalg.solve(np.eye(n) - transit[:, :, :n], onto_corrupt[:, None, :] * np.eye(n))
    absorb = np.concatenate([absorb, np.zeros((len(profiles), 1, n))], axis=1)

    det = np.zeros((len(profiles), n, n))
    for j in range(width):
        det += absorb[:, neighbors[:, j]] / degree[:, :, None]
    det[:, np.arange(n), np.arange(n)] += is_corrupt / degree
    return np.concatenate([det, np.maximum(0.0, 1.0 - det.sum(axis=2))[:, :, None]], axis=2)


def crowds_channel(config: CrowdsConfig, defender_site: str, attacker_site: str) -> Channel:
    """Initiator-to-observation channel for one placement profile.

    The observation is the first honest node seen forwarding to the
    corrupted node, or ``NO_DETECTION`` if the message exits the crowd
    (forwarder delivery or the deliverer node) untouched.  The initiator
    always forwards once, choosing uniformly among its in-range neighbors
    including the corrupted and deliverer nodes, which are
    indistinguishable from honest ones; each later forwarder delivers
    with probability 1 - forward_prob and otherwise forwards uniformly.

    Detection probabilities come from the absorbing Markov chain over
    forwarder states (dense linear solve).  Each initiator's detections
    are summed over its neighbors in adjacency order, so the output is
    byte-stable.  ``build_crowds`` solves one stack per defender site and
    gets the same bits.
    """
    rows = _crowds_rows(config, [(defender_site, attacker_site)])[0]
    return channel_from_rows(config.nodes, config.nodes + (NO_DETECTION,), rows)


def build_crowds(config: CrowdsConfig) -> GameSpec:
    """Crowds placement game: defender sites vs attacker sites.

    Uniform prior over initiators, Bayes gain; one analytic channel per
    pure placement profile.
    """
    d_actions = tuple(config.defender_sites)
    a_actions = tuple(config.attacker_sites)
    outputs = config.nodes + (NO_DETECTION,)
    channels = {}
    for d in d_actions:
        stack = _crowds_rows(config, [(d, a) for a in a_actions])
        for a, rows in zip(a_actions, stack):
            channels[(d, a)] = channel_from_rows(config.nodes, outputs, rows)
    return GameSpec(
        defender_actions=d_actions,
        attacker_actions=a_actions,
        channels=channels,
        measure=QifMeasure(prior=uniform(config.nodes), gain=bayes_gain(config.nodes)),
    )


def simulate_crowds(
    config: CrowdsConfig,
    defender_site: str,
    attacker_site: str,
    runs_per_initiator: int,
    seed: int = 0,
) -> Channel:
    """Monte-Carlo estimate of one placement profile's channel.

    Simulates the same protocol model as ``crowds_channel`` (independent
    of the linear-algebra path) and returns the empirical observation
    frequencies, ``runs_per_initiator`` walks per row.
    """
    if runs_per_initiator < 1:
        raise ValidationError("need at least one run per initiator")
    nodes = config.nodes
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    adj = config.adjacency()
    corrupt = set(_site_neighbors(config.attacker_sites, attacker_site, "attacker"))
    deliver = set(_site_neighbors(config.defender_sites, defender_site, "defender"))
    p_f = config.forward_prob
    CORRUPT, DELIVER = n, n + 1

    neighbor_arrays = []
    for z in nodes:
        cand = [index[w] for w in adj[z]]
        if z in corrupt:
            cand.append(CORRUPT)
        if z in deliver:
            cand.append(DELIVER)
        neighbor_arrays.append(np.array(cand, dtype=np.int64))

    rng = np.random.default_rng(seed)
    counts = np.zeros((n, n + 1), dtype=np.int64)

    for xi in range(n):
        m = runs_per_initiator
        start = neighbor_arrays[xi]
        if len(start) == 0:
            counts[xi, n] += m  # nowhere to forward; nothing observed
            continue
        first = start[rng.integers(0, len(start), size=m)]
        counts[xi, xi] += int(np.count_nonzero(first == CORRUPT))
        counts[xi, n] += int(np.count_nonzero(first == DELIVER))
        current = first[first < n]
        while current.size:
            keep = rng.random(current.size) < p_f
            counts[xi, n] += int(np.count_nonzero(~keep))
            current = current[keep]
            nxt = np.empty_like(current)
            for z in np.unique(current):
                at_z = np.nonzero(current == z)[0]
                neigh = neighbor_arrays[z]
                nxt[at_z] = neigh[rng.integers(0, len(neigh), size=at_z.size)]
            detected = nxt == CORRUPT
            if detected.any():
                det_nodes, det_counts = np.unique(
                    current[detected], return_counts=True
                )
                counts[xi, det_nodes] += det_counts
            counts[xi, n] += int(np.count_nonzero(nxt == DELIVER))
            current = nxt[nxt < n]

    rows = counts / float(runs_per_initiator)
    return channel_from_rows(nodes, nodes + (NO_DETECTION,), rows)


def manet_config(forward_prob: float = 0.8) -> CrowdsConfig:
    """Crowds configuration of the bundled 30-node MANET snapshot.

    Node coordinates live in ``data/crowds_manet.json`` (an approximate
    transcription of a 1 km x 1 km deployment with a 250 m communication
    range); edges and site neighbor lists are derived from the geometry.
    """
    raw = json.loads(
        resources.files("leakgames").joinpath("data/crowds_manet.json").read_text()
    )
    radius = float(raw["radius_m"])
    coords = {str(k): np.array(v, dtype=float) for k, v in raw["nodes"].items()}
    site_coords = {str(k): np.array(v, dtype=float) for k, v in raw["sites"].items()}
    nodes = tuple(coords)

    def in_range(p, q) -> bool:
        return float(np.hypot(*(p - q))) <= radius

    edges = [
        (u, v)
        for i, u in enumerate(nodes)
        for v in nodes[i + 1 :]
        if in_range(coords[u], coords[v])
    ]
    sites = {
        s: tuple(n for n in nodes if in_range(site_coords[s], coords[n]))
        for s in site_coords
    }
    return CrowdsConfig(
        nodes=nodes,
        edges=tuple(edges),
        forward_prob=forward_prob,
        attacker_sites=sites,
        defender_sites=sites,
    )

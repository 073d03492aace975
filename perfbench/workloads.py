"""Seeded workload generators for the leakgames benchmark.

Every input is made here from the seed alone: game documents are
written as JSON text and configuration files are written to a work
directory during set-up.  Channels are computed by this module's own
numpy code, so the inputs do not change when the program under test
does.  The same seed gives byte-identical documents and files.

Each workload has a fixed schedule of sizes; the seed draws the content.
That keeps the cost of an op set close across seeds while the games
themselves differ.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

#: One-line reason for each workload, printed with its results.
WHY = {
    "qif-solve": "QIF descent at the README settings; qif dominates, jsonio "
    "parses Crowds documents, dp and scipy's LP are never called",
    "dp-solve": "hidden then visible DP solve per game; small games are bound by "
    "per-round linprog overhead, mid-size ones by LP size; qif is never called",
    "build-audit": "builder piped into audit; the only workload where jsonio writes "
    "large documents and where scenarios and audits do most of their work",
}

QIF_TOLERANCE = 1e-3
QIF_ARGS = ("--tolerance", f"{QIF_TOLERANCE:g}", "--max-iter", "5000")
NO_DETECTION = "⊥"
MANET_AREA_M = 1000.0
MANET_RADIUS_M = 250.0
SITE_GRID_M = (200.0, 500.0, 800.0)
FORWARD_PROB = 0.8


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: CLI steps run in order.

    Every step reads ``doc`` on standard input, except when ``pipe`` is
    set, where each step after the first reads the previous step's
    standard output.
    """

    name: str
    steps: tuple[tuple[str, ...], ...]
    doc: str | None = None
    pipe: bool = False


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, ensure_ascii=False)


def game_doc(d_actions, a_actions, inputs, outputs, channels, measure) -> dict:
    return {
        "defender_actions": list(d_actions),
        "attacker_actions": list(a_actions),
        "inputs": list(inputs),
        "outputs": list(outputs),
        "channels": {
            f"{d}|{a}": np.asarray(channels[(d, a)], dtype=float).tolist()
            for d in d_actions
            for a in a_actions
        },
        "measure": measure,
    }


def _labels(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


# -- worked games -------------------------------------------------------------

def two_millionaires() -> dict:
    m = {("0", "0"): [[1, 0], [0, 1]], ("0", "1"): [[1, 0], [1, 0]],
         ("1", "0"): [[1, 0], [1, 0]], ("1", "1"): [[0, 1], [1, 0]]}
    return game_doc("01", "01", "01", "TF", m,
                    {"kind": "qif", "prior": [0.5, 0.5], "gain": "bayes"})


def binary_sum() -> dict:
    ident, flip = [[1, 0], [0, 1]], [[0, 1], [1, 0]]
    m = {("0", "0"): ident, ("0", "1"): flip, ("1", "0"): flip, ("1", "1"): ident}
    return game_doc("01", "01", "01", "01", m,
                    {"kind": "qif", "prior": [0.5, 0.5], "gain": "bayes"})


# -- Crowds on a random-geometric MANET ---------------------------------------

def _site_coords() -> dict[str, np.ndarray]:
    return {
        str(3 * r + c + 1): np.array([x, y])
        for r, y in enumerate(reversed(SITE_GRID_M))
        for c, x in enumerate(SITE_GRID_M)
    }


def manet(coords: dict[str, np.ndarray], sites: dict[str, np.ndarray]) -> dict:
    """Crowds configuration document: geometric edges and site ranges."""
    nodes = list(coords)

    def near(p, q) -> bool:
        return float(np.hypot(*(p - q))) <= MANET_RADIUS_M

    edges = [[u, v] for i, u in enumerate(nodes) for v in nodes[i + 1:]
             if near(coords[u], coords[v])]
    ranges = {s: [n for n in nodes if near(p, coords[n])] for s, p in sites.items()}
    return {"nodes": nodes, "edges": edges, "forward_prob": FORWARD_PROB,
            "attacker_sites": ranges, "defender_sites": ranges}


def _connected(nodes, edges) -> bool:
    adj = {n: [] for n in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, todo = {nodes[0]}, [nodes[0]]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(nodes)


def random_manet(rng: np.random.Generator, n: int) -> dict:
    """Resample node positions until connected and every site covers a node."""
    sites = _site_coords()
    while True:
        coords = {f"n{i + 1}": rng.uniform(0.0, MANET_AREA_M, size=2) for i in range(n)}
        cfg = manet(coords, sites)
        if _connected(cfg["nodes"], cfg["edges"]) and all(cfg["attacker_sites"].values()):
            return cfg


def shipped_manet(root: str) -> dict:
    """The 30-node MANET snapshot bundled with the package."""
    path = os.path.join(root, "src", "leakgames", "data", "crowds_manet.json")
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    coords = {str(k): np.array(v, dtype=float) for k, v in raw["nodes"].items()}
    sites = {str(k): np.array(v, dtype=float) for k, v in raw["sites"].items()}
    return manet(coords, sites)


def crowds_rows(cfg: dict, d_site: str, a_site: str) -> np.ndarray:
    """Initiator-to-first-detection channel from the absorbing forwarding chain."""
    nodes = cfg["nodes"]
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    adj = np.zeros((n, n))
    for u, v in cfg["edges"]:
        adj[index[u], index[v]] = adj[index[v], index[u]] = 1.0
    corrupt = np.zeros(n)
    corrupt[[index[v] for v in cfg["attacker_sites"][a_site]]] = 1.0
    deliver = np.zeros(n)
    deliver[[index[v] for v in cfg["defender_sites"][d_site]]] = 1.0
    degree = adj.sum(axis=1) + corrupt + deliver
    p = cfg["forward_prob"]
    absorb = np.linalg.solve(np.eye(n) - p * adj / degree[:, None],
                             np.diag(p * corrupt / degree))
    det = (adj @ absorb + np.diag(corrupt)) / degree[:, None]
    rows = np.zeros((n, n + 1))
    rows[:, :n] = det
    rows[:, n] = np.maximum(0.0, 1.0 - det.sum(axis=1))
    return rows


def crowds_game(cfg: dict) -> dict:
    nodes = cfg["nodes"]
    d_sites, a_sites = list(cfg["defender_sites"]), list(cfg["attacker_sites"])
    chans = {(d, a): crowds_rows(cfg, d, a) for d in d_sites for a in a_sites}
    prior = [1.0 / len(nodes)] * len(nodes)
    return game_doc(d_sites, a_sites, nodes, nodes + [NO_DETECTION], chans,
                    {"kind": "qif", "prior": prior, "gain": "bayes"})


# -- random QIF ladder --------------------------------------------------------

def random_qif(rng: np.random.Generator, n_d: int, n_a: int, n_x: int, n_y: int,
               custom_gain: bool) -> dict:
    """Sparse Dirichlet channels, Dirichlet prior, Bayes or a random gain table."""
    support = max(2, n_y // 4)
    chans = {}
    for d in range(n_d):
        for a in range(n_a):
            m = np.zeros((n_x, n_y))
            for x in range(n_x):
                cols = rng.choice(n_y, size=support, replace=False)
                m[x, cols] = rng.dirichlet(np.ones(support))
            chans[(str(d), str(a))] = m
    prior = rng.dirichlet(np.ones(n_x)).tolist()
    if custom_gain:
        n_w = max(2, n_x // 2)
        gain = {"guesses": _labels("w", n_w),
                "table": rng.uniform(0.0, 1.0, size=(n_w, n_x)).tolist()}
    else:
        gain = "bayes"
    return game_doc(_labels("", n_d), _labels("", n_a), _labels("x", n_x),
                    _labels("y", n_y), chans, {"kind": "qif", "prior": prior, "gain": gain})


#: (n_d, n_a, |X|, |Y|) rungs of the QIF ladder, drawn from {2, 4, 8} x {4, 16, 64}.
QIF_LADDER = (
    (2, 2, 4, 4), (2, 8, 4, 16), (4, 4, 16, 4), (4, 2, 16, 16),
    (8, 4, 4, 4), (2, 4, 64, 16), (4, 8, 16, 16), (8, 2, 16, 64),
    (4, 4, 64, 64),
)
#: Node counts of the seeded Crowds MANETs solved in qif-solve.  Three
#: games share the shipped game's size, so the tail lands inside one
#: cluster of equal-cost ops rather than on the edge between two.
QIF_CROWDS_NODES = (30, 30, 44)


def qif_solve(rng: np.random.Generator, root: str) -> list[Op]:
    args = ("solve", "qif", "-", *QIF_ARGS)
    docs = [("two-millionaires", two_millionaires()),
            ("binary-sum", binary_sum()),
            ("crowds-shipped", crowds_game(shipped_manet(root)))]
    for i, n in enumerate(QIF_CROWDS_NODES):
        docs.append((f"crowds-{i}-{n}", crowds_game(random_manet(rng, n))))
    for i, shape in enumerate(QIF_LADDER):
        docs.append((f"ladder-{'x'.join(map(str, shape))}",
                     random_qif(rng, *shape, custom_gain=i % 3 == 2)))
    return [Op(name, (args,), dumps(doc)) for name, doc in docs]


# -- DP games ------------------------------------------------------------------

def dp_example() -> dict:
    m = {("0", "0"): [[0.90, 0.10], [0.10, 0.90]],
         ("0", "1"): [[0.01, 0.99], [0.03, 0.97]],
         ("1", "0"): [[0.01, 0.99], [0.03, 0.97]],
         ("1", "1"): [[0.028, 0.972], [0.004, 0.996]]}
    return game_doc("01", "01", ["x0", "x1"], ["y0", "y1"], m,
                    {"kind": "dp", "adjacency": "all-pairs"})


def _dirichlet_rows(rng, n_rows: int, n_cols: int, alpha: float) -> np.ndarray:
    """Full-support rows; sparse draws (alpha < 1) are floored at 1e-6."""
    rows = np.clip(rng.dirichlet(np.full(n_cols, alpha), size=n_rows), 1e-6, None)
    return rows / rows.sum(axis=1, keepdims=True)


def random_dp(rng, n_d, n_a, n_x, n_y, alpha=1.0, zero_cols=0, adjacency="all-pairs") -> dict:
    """Random conforming DP game; ``zero_cols`` columns are zero in every channel."""
    dead = set(rng.choice(n_y, size=zero_cols, replace=False).tolist()) if zero_cols else set()
    live = [y for y in range(n_y) if y not in dead]
    chans = {}
    for d in range(n_d):
        for a in range(n_a):
            m = np.zeros((n_x, n_y))
            m[:, live] = _dirichlet_rows(rng, n_x, len(live), alpha)
            chans[(str(d), str(a))] = m
    return game_doc(_labels("", n_d), _labels("", n_a), _labels("x", n_x),
                    _labels("y", n_y), chans, {"kind": "dp", "adjacency": adjacency})


def compas_tables() -> list[dict]:
    """The COMPAS correlation tables embedded in the package, as documents."""
    from leakgames.scenarios import compas_tables as tables

    return [{"name": t.name, "secrets": list(t.secrets),
             "attribute_values": list(t.attribute_values), "rows": t.rows.tolist()}
            for t in tables()]


def random_tables(rng, n_secrets: int, value_counts) -> list[dict]:
    secrets = _labels("s", n_secrets)
    return [{"name": f"z{i + 1}", "secrets": secrets,
             "attribute_values": _labels("v", k),
             "rows": _dirichlet_rows(rng, n_secrets, k, 1.0).tolist()}
            for i, k in enumerate(value_counts)]


def _randomized_response(eps: float, k: int) -> np.ndarray:
    e = np.exp(eps)
    m = np.full((k, k), 1.0 / (k + e - 1))
    np.fill_diagonal(m, e / (k + e - 1))
    return m


def ldp_game(tables: list[dict], eps_strong=0.1, eps_weak=2.0) -> dict:
    """Local-DP design game: table a cascaded with randomized response.

    Outputs are the union of the namespaced attribute values, so each
    channel is zero outside its own table's block.
    """
    outputs = [f"{t['name']}:{v}" for t in tables for v in t["attribute_values"]]
    offsets = np.cumsum([0] + [len(t["attribute_values"]) for t in tables])
    actions = [str(i + 1) for i in range(len(tables))]
    chans = {}
    for di, d in enumerate(actions):
        for ai, a in enumerate(actions):
            t = tables[ai]
            rows = np.asarray(t["rows"], dtype=float)
            rr = _randomized_response(eps_strong if di == ai else eps_weak, rows.shape[1])
            m = np.zeros((rows.shape[0], len(outputs)))
            m[:, offsets[ai]:offsets[ai + 1]] = rows @ rr
            chans[(d, a)] = m
    return game_doc(actions, actions, tables[0]["secrets"], outputs, chans,
                    {"kind": "dp", "adjacency": "all-pairs"})


#: Secret counts and per-table attribute-value counts of the seeded ldp game.
DP_LDP_SHAPE = (6, (3, 2, 4, 6))
DP_SMALL_GAMES = 24
#: Shapes of the small games, (n_d, n_a, |X|, |Y|, shared zero columns):
#: one fixed schedule for every seed and set, so that the seed draws the
#: channels but not the sizes, which set most of an op's cost and so the
#: median op latency.
DP_SMALL_SHAPE_SEED = 20201223
#: Every fourth small game draws sparse channels, which need many more rounds.
DP_SPARSE_EVERY = 4
#: Mid-size games: (n_d, n_a, |X|, |Y|, adjacency); LP size sets their cost.
DP_MID = ((8, 4, 12, 12, "all-pairs"), (8, 4, 12, 12, "all-pairs"), (8, 4, 12, 12, "all-pairs"),
          (4, 4, 24, 24, [[f"x{i}", f"x{i + 1}"] for i in range(23)]))
#: Mid-size games come from one fixed pool, the same for every seed: their
#: round counts vary threefold between draws, and the few such games in a
#: run would otherwise set the tail and most of the seed-to-seed spread.
DP_MID_POOL_SEED = 20201222


def dp_small_shapes() -> list[tuple[int, int, int, int, int]]:
    """n_d, n_a in 2..4 and |X|, |Y| in 2..8; every third game has shared zero columns."""
    rng = np.random.default_rng(DP_SMALL_SHAPE_SEED)
    shapes = []
    for i in range(DP_SMALL_GAMES):
        n_d, n_a = (int(v) for v in rng.integers(2, 5, size=2))
        n_x, n_y = (int(v) for v in rng.integers(2, 9, size=2))
        zero = int(rng.integers(1, n_y - 1)) if n_y >= 3 and i % 3 == 1 else 0
        shapes.append((n_d, n_a, n_x, n_y, zero))
    return shapes


def dp_solve(rng: np.random.Generator, index: int) -> list[Op]:
    steps = (("solve", "dp", "-", "--mode", "hidden"),
             ("solve", "dp", "-", "--mode", "visible"))
    n_s, counts = DP_LDP_SHAPE
    docs = [("dp-example", dp_example()),
            ("ldp-compas", ldp_game(compas_tables())),
            (f"ldp-{n_s}", ldp_game(random_tables(rng, n_s, counts)))]
    for i, (n_d, n_a, n_x, n_y, zero) in enumerate(dp_small_shapes()):
        alpha = 0.3 if i % DP_SPARSE_EVERY == DP_SPARSE_EVERY - 1 else 1.0
        docs.append((f"small-{i}", random_dp(rng, n_d, n_a, n_x, n_y, alpha, zero)))
    pool = np.random.default_rng([DP_MID_POOL_SEED, index])
    for i, (n_d, n_a, n_x, n_y, adj) in enumerate(DP_MID):
        kind = "chain" if isinstance(adj, list) else "all"
        docs.append((f"mid-{i}-{kind}-{n_d}x{n_a}-{n_x}x{n_y}",
                     random_dp(pool, n_d, n_a, n_x, n_y, adjacency=adj)))
    return [Op(name, steps, dumps(doc)) for name, doc in docs]


# -- build-audit ---------------------------------------------------------------

#: Node counts of the Crowds configurations built and audited.  The four
#: 45-node configs fill the middle of a set's latencies, so its median is
#: set by several ops of equal cost rather than by one or two; the 60-node
#: pair does the same for the tail.
AUDIT_CROWDS_NODES = (30, 45, 45, 45, 45, 60, 60)
#: Secret counts and attribute-value counts of the ldp tables built and audited.
AUDIT_LDP_SHAPES = ((4, (3, 3, 2, 4)), (6, (2, 5, 3, 4)), (8, (4, 2, 3, 3)))


def build_audit(rng: np.random.Generator, seed: int, workdir: str) -> list[Op]:
    audit = ("audit", "-", "--seed", str(seed), "--priors", "50")
    ops = [Op("dp-example", (("build", "dp-example"), audit), pipe=True),
           Op("ldp-compas", (("build", "ldp"), audit), pipe=True)]
    for i, n in enumerate(AUDIT_CROWDS_NODES):
        path = os.path.join(workdir, f"crowds-{i}-{n}.json")
        write_text(path, dumps(random_manet(rng, n)))
        ops.append(Op(f"crowds-{i}-{n}", (("build", "crowds", path), audit), pipe=True))
    for n_s, counts in AUDIT_LDP_SHAPES:
        path = os.path.join(workdir, f"ldp-{n_s}.json")
        write_text(path, dumps(random_tables(rng, n_s, counts)))
        ops.append(Op(f"ldp-{n_s}", (("build", "ldp", path), audit), pipe=True))
    return ops


def probe_ops(seed: int, workdir: str) -> list[Op]:
    """Small seeded ops that reach every module, one of each kind.

    The traced run times them once, for the per-module metrics of modules
    the workload itself never calls; they are not part of any op set.
    """
    rng = np.random.default_rng([seed, len(WHY)])
    dp_steps = (("solve", "dp", "-", "--mode", "hidden"),
                ("solve", "dp", "-", "--mode", "visible"))
    audit = ("audit", "-", "--seed", str(seed), "--priors", "50")
    crowds = os.path.join(workdir, "probe-crowds.json")
    write_text(crowds, dumps(random_manet(rng, 30)))
    tables = os.path.join(workdir, "probe-ldp.json")
    write_text(tables, dumps(random_tables(rng, 4, (3, 3))))
    return [
        Op("qif", (("solve", "qif", "-", *QIF_ARGS),),
           dumps(random_qif(rng, 2, 4, 16, 16, custom_gain=False))),
        Op("dp", dp_steps, dumps(random_dp(rng, 3, 3, 6, 6))),
        Op("crowds", (("build", "crowds", crowds), audit), pipe=True),
        Op("ldp", (("build", "ldp", tables), audit), pipe=True),
    ]


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def make_ops(workload: str, seed: int, index: int, root: str, workdir: str) -> list[Op]:
    """Op set number ``index`` of a workload run; config files go to ``workdir``.

    Every set has the same composition; the seed and the index draw its
    content.
    """
    rng = np.random.default_rng([seed, list(WHY).index(workload), index])
    if workload == "qif-solve":
        return qif_solve(rng, root)
    if workload == "dp-solve":
        return dp_solve(rng, index)
    if workload == "build-audit":
        return build_audit(rng, seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")

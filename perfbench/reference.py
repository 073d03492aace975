"""Reference checks for the benchmark's answers.

The QIF optimum and the DP lower bound come from linear programs built
here straight from the game documents; nothing is shared with
``leakgames.qif`` or ``leakgames.dp``.  The DP level checks use
``leakgames.measures.dp_level`` and ``leakgames.algebra.hidden_choice``,
which define the quantity the solvers optimise.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

#: Entries at or below this count as zeros, as in the package.
ZERO_TOL = 1e-15
#: HiGHS tolerances for the certificate programs.
LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
VALUE_TOL = 1e-9
DP_LOWER_SHRINK = 1e-7
#: The hidden solver reports ln(lambda_k) beside the strategy of the next
#: round; a certified residual of 1e-9 leaves this much room between them.
DP_VALUE_TOL = 1e-7


def channel_stack(doc: dict) -> np.ndarray:
    """Channels as an array indexed (defender, attacker, input, output)."""
    return np.array([[doc["channels"][f"{d}|{a}"] for a in doc["attacker_actions"]]
                     for d in doc["defender_actions"]], dtype=float)


# -- QIF ------------------------------------------------------------------------

def qif_tensor(doc: dict) -> np.ndarray:
    """S[a, d, w, y] = sum_x prior(x) g(w, x) C_da(x, y)."""
    measure = doc["measure"]
    prior = np.asarray(measure["prior"], dtype=float)
    gain = measure.get("gain", "bayes")
    table = np.eye(len(prior)) if gain == "bayes" else np.asarray(gain["table"], dtype=float)
    return np.einsum("wx,x,daxy->adwy", table, prior, channel_stack(doc))


def worst_case(s: np.ndarray, delta: np.ndarray) -> float:
    """max_a sum_y max_w (S[a, :, w, y] . delta)."""
    scores = np.einsum("d,adwy->awy", delta, s)
    return float(scores.max(axis=1).sum(axis=1).max())


def qif_optimum(s: np.ndarray) -> float:
    """Exact game value: the epigraph LP of the worst-case vulnerability.

    Variables (delta, z[a, y], t); minimise t subject to
    S[a, :, w, y] . delta <= z[a, y], sum_y z[a, y] <= t, delta on the simplex.
    """
    n_a, n_d, n_w, n_y = s.shape
    n_z = n_a * n_y
    rows = np.arange(n_a * n_w * n_y)
    coef = s.transpose(0, 2, 3, 1).reshape(-1, n_d)  # row (a, w, y), column d
    z_col = n_d + (rows // (n_w * n_y)) * n_y + rows % n_y
    r, c = np.nonzero(coef)
    first = sparse.coo_matrix(
        (np.concatenate([coef[r, c], -np.ones(rows.size)]),
         (np.concatenate([r, rows]), np.concatenate([c, z_col]))),
        shape=(rows.size, n_d + n_z + 1))
    za = np.repeat(np.arange(n_a), n_y)
    second = sparse.coo_matrix(
        (np.concatenate([np.ones(n_z), -np.ones(n_a)]),
         (np.concatenate([za, np.arange(n_a)]),
          np.concatenate([n_d + np.arange(n_z), np.full(n_a, n_d + n_z)]))),
        shape=(n_a, n_d + n_z + 1))
    c_obj = np.zeros(n_d + n_z + 1)
    c_obj[-1] = 1.0
    a_eq = np.zeros((1, n_d + n_z + 1))
    a_eq[0, :n_d] = 1.0
    res = linprog(c_obj, A_ub=sparse.vstack([first, second]).tocsr(), b_ub=np.zeros(rows.size + n_a),
                  A_eq=a_eq, b_eq=[1.0], bounds=[(0, None)] * n_d + [(None, None)] * (n_z + 1),
                  method="highs", options=LP_OPTIONS)
    if not res.success:
        raise RuntimeError(f"QIF reference LP failed: {res.message}")
    return float(res.fun)


def check_qif(doc: dict, report: dict, tolerance: float, optimum: float) -> tuple[list[str], float]:
    """Failures of a QIF solve report, and its value minus the exact optimum."""
    value = report["value"]
    delta = np.asarray(report["defender_strategy"]["weights"], dtype=float)
    at_delta = worst_case(qif_tensor(doc), delta)
    fails = []
    if abs(value - at_delta) > VALUE_TOL:
        fails.append(f"value {value!r} != worst case {at_delta!r} at its strategy")
    if value < optimum - VALUE_TOL:
        fails.append(f"value {value!r} below the exact optimum {optimum!r}")
    if report["certified"] and value - optimum > tolerance + VALUE_TOL:
        fails.append(f"certified value {value!r} not within {tolerance} of {optimum!r}")
    return fails, value - optimum


# -- DP -------------------------------------------------------------------------

def ordered_pairs(doc: dict) -> list[tuple[int, int]]:
    inputs = doc["inputs"]
    adj = doc["measure"]["adjacency"]
    if adj == "all-pairs":
        return [(i, j) for i in range(len(inputs)) for j in range(len(inputs)) if i != j]
    index = {x: i for i, x in enumerate(inputs)}
    pairs = {tuple(sorted((index[u], index[v]))) for u, v in adj}
    return [p for i, j in sorted(pairs) for p in ((i, j), (j, i))]


def ratio_terms(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator coefficients (term, defender action)."""
    c = channel_stack(doc)
    i, j = np.array(ordered_pairs(doc)).T
    f = c[:, :, i, :].transpose(1, 2, 3, 0).reshape(-1, c.shape[0])
    g = c[:, :, j, :].transpose(1, 2, 3, 0).reshape(-1, c.shape[0])
    live = (f.max(axis=1) > ZERO_TOL) | (g.max(axis=1) > ZERO_TOL)
    return f[live], g[live]


def dp_lower_bound_margin(doc: dict, value: float, delta: np.ndarray) -> float:
    """min_delta max_j (f_j - lam g_j) . delta at lam = e^value (1 - 1e-7).

    A positive optimum proves the game's ratio exceeds lam, so ``value``
    is within about 1e-7 nats of the optimum.  Scaling a row by a positive
    number keeps the sign of the optimum; each row is scaled by
    (f_j + g_j) . delta at the reported strategy (floored at 1e-6 of its
    largest coefficient), so the rows that bind there enter at unit size.
    """
    f, g = ratio_terms(doc)
    lam = math.exp(value) * (1.0 - DP_LOWER_SHRINK)
    coef = f - lam * g
    largest = np.maximum(f.max(axis=1), g.max(axis=1))
    coef /= np.maximum((f + g) @ delta, 1e-6 * largest)[:, None]
    n_t, n_d = coef.shape
    c_obj = np.zeros(n_d + 1)
    c_obj[-1] = 1.0
    a_eq = np.ones((1, n_d + 1))
    a_eq[0, -1] = 0.0
    res = linprog(c_obj, A_ub=np.hstack([coef, -np.ones((n_t, 1))]), b_ub=np.zeros(n_t),
                  A_eq=a_eq, b_eq=[1.0], bounds=[(0, None)] * n_d + [(None, None)],
                  method="highs", options=LP_OPTIONS)
    if not res.success:
        raise RuntimeError(f"DP lower-bound LP failed: {res.message}")
    return float(res.fun)


def _dp_objects(doc: dict):
    from leakgames.core import AdjacencyRelation, channel_from_rows

    adj = doc["measure"]["adjacency"]
    adjacency = (AdjacencyRelation.all_pairs() if adj == "all-pairs"
                 else AdjacencyRelation.explicit([tuple(p) for p in adj]))
    chans = {(d, a): channel_from_rows(doc["inputs"], doc["outputs"], doc["channels"][f"{d}|{a}"])
             for d in doc["defender_actions"] for a in doc["attacker_actions"]}
    return adjacency, chans


def check_dp_hidden(doc: dict, report: dict) -> tuple[list[str], float]:
    """Failures of a hidden-choice report, and its value minus its strategy's level.

    A certified value must equal the level of the reported strategy and
    pass the lower-bound program.  An uncertified value is ln(lambda_k)
    of the last round, which bounds the level of the returned strategy
    from above; it must not fall below it.
    """
    from leakgames.algebra import hidden_choice
    from leakgames.measures import dp_level

    adjacency, chans = _dp_objects(doc)
    delta = np.asarray(report["defender_strategy"]["weights"], dtype=float)
    level = max(dp_level(hidden_choice(delta, [chans[(d, a)] for d in doc["defender_actions"]]),
                         adjacency) for a in doc["attacker_actions"])
    value = report["value"]
    slack = DP_VALUE_TOL * max(1.0, abs(level))
    fails = []
    if report["certified"]:
        if not abs(value - level) <= slack:
            fails.append(f"hidden value {value!r} != level {level!r} of its strategy")
        margin = dp_lower_bound_margin(doc, value, delta)
        if not margin > 0:
            fails.append(f"hidden value {value!r} not proved optimal (margin {margin!r})")
    elif not value >= level - slack:
        fails.append(f"uncertified hidden value {value!r} below level {level!r} of its strategy")
    return fails, value - level


def check_dp_visible(doc: dict, report: dict) -> list[str]:
    from leakgames.measures import dp_level

    adjacency, chans = _dp_objects(doc)
    worst = [max(dp_level(chans[(d, a)], adjacency) for a in doc["attacker_actions"])
             for d in doc["defender_actions"]]
    best = min(worst)
    if report["value"] != best:
        return [f"visible value {report['value']!r} != argmin-max {best!r}"]
    return []


# -- build-audit ------------------------------------------------------------------

def check_build_audit(built: str, audit_out: str) -> list[str]:
    from leakgames import jsonio

    fails = []
    result = json.loads(audit_out)
    if result.get("ok") is not True:
        fails.append(f"audit not ok: {result.get('violations')}")
    text = built.rstrip("\n")
    again = jsonio.canonical_dumps(jsonio.game_to_dict(jsonio.game_from_dict(json.loads(text))))
    if again != text:
        fails.append("built document does not round-trip byte for byte")
    return fails

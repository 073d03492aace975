"""JSON formats and canonical serialization.

One self-contained document per game: action lists, the shared
input/output alphabets, the channel family keyed ``"d|a"``, and the
measure block.  Serialization is canonical for byte-stable round trips:
keys sorted, floats printed with 17 significant digits (enough to
reproduce the double exactly), UTF-8 text.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .core import (
    AdjacencyRelation,
    Channel,
    Distribution,
    DpMeasure,
    GainFunction,
    GameSpec,
    QifMeasure,
    SolveReport,
    ValidationError,
    bayes_gain,
    channel_from_rows,
)
from .scenarios import CorrelationTable, CrowdsConfig


class ParseError(ValueError):
    """Document is syntactically valid JSON but not a valid schema instance."""


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        raise ValidationError("cannot serialize NaN")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    if isinstance(obj, dict):
        items = ",".join(
            f"{json.dumps(str(k), ensure_ascii=False)}:{canonical_dumps(v)}"
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        if obj and set(map(type, obj)) == {float}:
            # A float row in one format call; nan and inf spell an "n", and
            # take the per-item path below.
            text = ",".join(["%.17g"] * len(obj)) % tuple(obj)
            if "n" not in text:
                return "[" + text + "]"
        return "[" + ",".join(canonical_dumps(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return canonical_dumps(obj.tolist())
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


def _require(doc: dict, key: str, kind: type):
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"missing key {key!r}")
    value = doc[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ParseError(f"key {key!r} must be a number")
        return float(value)
    if not isinstance(value, kind):
        raise ParseError(f"key {key!r} must be a {kind.__name__}")
    return value


# -- channels ---------------------------------------------------------------

def channel_to_dict(channel: Channel) -> dict:
    return {
        "inputs": list(channel.inputs),
        "outputs": list(channel.outputs),
        "matrix": channel.matrix.tolist(),
    }


def channel_from_dict(doc: dict) -> Channel:
    inputs = _require(doc, "inputs", list)
    outputs = _require(doc, "outputs", list)
    matrix = _require(doc, "matrix", list)
    return channel_from_rows(inputs, outputs, matrix)


# -- measures ---------------------------------------------------------------

def adjacency_to_json(adj: AdjacencyRelation):
    if adj.mode == "all-pairs":
        return "all-pairs"
    return sorted(sorted(p) for p in adj.pairs)


def adjacency_from_json(doc) -> AdjacencyRelation:
    if doc == "all-pairs":
        return AdjacencyRelation.all_pairs()
    if isinstance(doc, list):
        pairs = []
        for p in doc:
            if not isinstance(p, list) or len(p) != 2:
                raise ParseError(f"adjacency pair {p!r} must be a 2-element list")
            pairs.append((str(p[0]), str(p[1])))
        return AdjacencyRelation.explicit(pairs)
    raise ParseError('adjacency must be "all-pairs" or a list of pairs')


def gain_to_json(gain: GainFunction):
    if gain == bayes_gain(gain.inputs):
        return "bayes"
    return {"guesses": list(gain.guesses), "table": gain.table.tolist()}


def gain_from_json(doc, inputs) -> GainFunction:
    if doc == "bayes":
        return bayes_gain(inputs)
    if isinstance(doc, dict):
        guesses = _require(doc, "guesses", list)
        table = _require(doc, "table", list)
        return GainFunction(tuple(guesses), tuple(inputs), table)
    raise ParseError('gain must be "bayes" or an object with guesses and table')


# -- games ------------------------------------------------------------------

def game_to_dict(game: GameSpec) -> dict:
    for label in game.defender_actions + game.attacker_actions:
        if "|" in label:
            raise ValidationError(
                f"action label {label!r} contains '|', which the channel map "
                "key format reserves"
            )
    channels = {
        f"{d}|{a}": game.channel(d, a).matrix.tolist()
        for d in game.defender_actions
        for a in game.attacker_actions
    }
    if isinstance(game.measure, QifMeasure):
        measure = {
            "kind": "qif",
            "prior": game.measure.prior.weights.tolist(),
            "gain": gain_to_json(game.measure.gain),
        }
    else:
        measure = {"kind": "dp", "adjacency": adjacency_to_json(game.measure.adjacency)}
    return {
        "defender_actions": list(game.defender_actions),
        "attacker_actions": list(game.attacker_actions),
        "inputs": list(game.inputs),
        "outputs": list(game.outputs),
        "channels": channels,
        "measure": measure,
    }


def game_from_dict(doc: dict) -> GameSpec:
    d_actions = [str(x) for x in _require(doc, "defender_actions", list)]
    a_actions = [str(x) for x in _require(doc, "attacker_actions", list)]
    inputs = [str(x) for x in _require(doc, "inputs", list)]
    outputs = [str(x) for x in _require(doc, "outputs", list)]
    chan_doc = _require(doc, "channels", dict)
    channels = {}
    for d in d_actions:
        for a in a_actions:
            key = f"{d}|{a}"
            if key not in chan_doc:
                raise ParseError(f"missing channel for profile {key!r}")
            channels[(d, a)] = channel_from_rows(inputs, outputs, chan_doc[key])
    measure_doc = _require(doc, "measure", dict)
    kind = measure_doc.get("kind")
    if kind == "qif":
        prior = Distribution(tuple(inputs), _require(measure_doc, "prior", list))
        gain = gain_from_json(measure_doc.get("gain", "bayes"), inputs)
        measure = QifMeasure(prior=prior, gain=gain)
    elif kind == "dp":
        measure = DpMeasure(adjacency=adjacency_from_json(measure_doc.get("adjacency")))
    else:
        raise ParseError(f'measure kind must be "qif" or "dp", got {kind!r}')
    return GameSpec(
        defender_actions=tuple(d_actions),
        attacker_actions=tuple(a_actions),
        channels=channels,
        measure=measure,
    )


# -- scenario inputs ---------------------------------------------------------

def prior_from_json(doc, inputs) -> Distribution:
    if isinstance(doc, list):
        return Distribution(tuple(inputs), doc)
    if isinstance(doc, dict):
        labels = _require(doc, "labels", list)
        weights = _require(doc, "weights", list)
        return Distribution(tuple(str(x) for x in labels), weights)
    raise ParseError("prior must be a weight list or a labels/weights object")


def crowds_config_from_dict(doc: dict) -> CrowdsConfig:
    nodes = _require(doc, "nodes", list)
    edges = _require(doc, "edges", list)
    forward_prob = _require(doc, "forward_prob", float)
    att = _require(doc, "attacker_sites", dict)
    dfd = _require(doc, "defender_sites", dict)
    for p in edges:
        if not isinstance(p, list) or len(p) != 2:
            raise ParseError(f"edge {p!r} must be a 2-element list")
    return CrowdsConfig(
        nodes=tuple(nodes),
        edges=tuple((str(u), str(v)) for u, v in edges),
        forward_prob=forward_prob,
        attacker_sites={str(k): tuple(v) for k, v in att.items()},
        defender_sites={str(k): tuple(v) for k, v in dfd.items()},
    )


def correlation_tables_from_json(doc) -> list[CorrelationTable]:
    if not isinstance(doc, list) or not doc:
        raise ParseError("expected a non-empty list of correlation tables")
    tables = []
    for i, entry in enumerate(doc):
        name = str(entry.get("name", f"z{i + 1}"))
        secrets = _require(entry, "secrets", list)
        values = _require(entry, "attribute_values", list)
        rows = _require(entry, "rows", list)
        tables.append(CorrelationTable(name, tuple(secrets), tuple(values), rows))
    return tables


def report_to_dict(report: SolveReport) -> dict:
    def dist(d):
        return None if d is None else {
            "labels": list(d.labels),
            "weights": d.weights.tolist(),
        }

    return {
        "defender_strategy": dist(report.defender_strategy),
        "attacker_strategy": dist(report.attacker_strategy),
        "value": report.value,
        "iterations": report.iterations,
        "certificate_gap": report.certificate_gap,
        "certified": report.certified,
        "diagnostics": report.diagnostics,
    }

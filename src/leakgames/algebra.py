"""Channel composition operators.

Four ways of combining channels:

- ``hidden_choice``: entrywise mixture; the selector is concealed, so the
  observer sees one averaged channel.
- ``concat``: side-by-side column concatenation with tagged outputs; the
  raw result is a matrix, not a channel (no scaling is applied).
- ``visible_choice``: concatenation of the probability-scaled channels;
  the selector is revealed through the output tag, and the result is
  again row-stochastic.
- ``cascade``: sequential composition (matrix product).

Output tags are (original label, channel index) pairs rendered as
``"label#index"`` with zero-based indices.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (
    Channel,
    DimensionMismatch,
    Distribution,
    InputMismatch,
    LabeledMatrix,
    ShapeMismatch,
    WeightCountMismatch,
)


def _weights_vector(weights, n: int) -> np.ndarray:
    """Mixing weights of n channels, validated as a Distribution over "0".."n-1"."""
    w = weights.weights if isinstance(weights, Distribution) else weights
    return Distribution(tuple(str(i) for i in range(n)), w).weights


def tag_output(label: str, index: int) -> str:
    return f"{label}#{index}"


def split_tag(tagged: str) -> tuple[str, int]:
    label, _, idx = tagged.rpartition("#")
    return label, int(idx)


def hidden_choice(weights, channels: Sequence[Channel]) -> Channel:
    """Entrywise mixture sum_i mu(i) * C_i of same-type channels.

    Returned as a ``Channel``, so mixed float dust is stored as 0 like any
    other; the game-level mixtures of ``dp`` (``hidden_levels``, the ratio
    terms) and the audits' samples stay exact.
    """
    channels = list(channels)
    if not channels:
        raise WeightCountMismatch("no channels to mix")
    w = _weights_vector(weights, len(channels))
    first = channels[0]
    for c in channels[1:]:
        if c.inputs != first.inputs or c.outputs != first.outputs:
            raise ShapeMismatch(
                "hidden choice needs channels of the same type; got "
                f"({c.inputs}, {c.outputs}) vs ({first.inputs}, {first.outputs})"
            )
    stack = np.stack([c.matrix for c in channels])
    mixed = np.tensordot(w, stack, axes=(0, 0))
    return Channel(first.inputs, first.outputs, mixed)


def concat(channels: Sequence[Channel], tags: Sequence[int] | None = None) -> LabeledMatrix:
    """Column concatenation with tagged outputs; performs no scaling.

    The result is a plain labeled matrix: its rows sum to the number of
    channels when the inputs are unscaled channels.
    """
    channels = list(channels)
    if not channels:
        raise InputMismatch("no channels to concatenate")
    inputs = channels[0].inputs
    for c in channels[1:]:
        if c.inputs != inputs:
            raise InputMismatch(f"channels disagree on inputs: {inputs} vs {c.inputs}")
    if tags is None:
        tags = list(range(len(channels)))
    if len(tags) != len(channels):
        raise WeightCountMismatch(
            f"{len(channels)} channels but {len(tags)} tags"
        )
    outputs = tuple(
        tag_output(y, tag) for c, tag in zip(channels, tags) for y in c.outputs
    )
    matrix = np.concatenate([c.matrix for c in channels], axis=1)
    return LabeledMatrix(inputs, outputs, matrix)


def visible_choice(weights, channels: Sequence[Channel]) -> Channel:
    """Concatenation of the scaled channels mu(i) * C_i.

    Each row of the result sums to sum_i mu(i) = 1, so the composition is
    a channel again.
    """
    channels = list(channels)
    if not channels:
        raise WeightCountMismatch("no channels to compose")
    w = _weights_vector(weights, len(channels))
    inputs = channels[0].inputs
    for c in channels[1:]:
        if c.inputs != inputs:
            raise InputMismatch(f"channels disagree on inputs: {inputs} vs {c.inputs}")
    outputs = tuple(
        tag_output(y, i) for i, c in enumerate(channels) for y in c.outputs
    )
    matrix = np.concatenate(
        [w[i] * c.matrix for i, c in enumerate(channels)], axis=1
    )
    return Channel(inputs, outputs, matrix)


def marginalize_tags(composed: Channel) -> Channel:
    """Drop output tags and sum columns that shared an original label.

    Applied to a visible choice of same-type channels this recovers the
    hidden choice of the same family.
    """
    originals: list[str] = []
    seen = {}
    for y in composed.outputs:
        label, _ = split_tag(y)
        if label not in seen:
            seen[label] = len(originals)
            originals.append(label)
    matrix = np.zeros((len(composed.inputs), len(originals)))
    for j, y in enumerate(composed.outputs):
        label, _ = split_tag(y)
        matrix[:, seen[label]] += composed.matrix[:, j]
    return Channel(composed.inputs, tuple(originals), matrix)


def cascade(first: Channel, second: Channel) -> Channel:
    """Sequential composition: (first ; second)(x, y) = sum_z second(z, y) first(x, z)."""
    if first.outputs != second.inputs:
        raise DimensionMismatch(
            "cascade needs the first channel's outputs to equal the second's "
            f"inputs; got {first.outputs} vs {second.inputs}"
        )
    return Channel(first.inputs, second.outputs, first.matrix @ second.matrix)

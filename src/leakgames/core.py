"""Domain types for information-leakage games.

A game couples finite defender/attacker action sets with a family of
channel matrices indexed by action pairs, plus the measure that scores a
channel: either posterior g-vulnerability (QIF games) or the
differential-privacy level under an adjacency relation (DP games).

All types are immutable after construction and validated eagerly; a value
that exists is a value that satisfies its invariants.  Numeric tolerances
are deliberately strict (1e-9 on stochasticity): inputs that fail are
rejected, never renormalized, so data errors surface at the boundary.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

STOCHASTIC_TOL = 1e-9

# A Channel stores entries at or below this as exact zeros (float dust from
# cascades, and the negatives the sign check lets through), so zero
# patterns, DP levels and mixtures of channels test ``== 0`` / ``> 0``.
ZERO_TOL = 1e-15


class LeakGameError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LeakGameError, ValueError):
    """A domain object failed one of its construction invariants."""


class NonStochastic(ValidationError):
    pass


class NegativeEntry(ValidationError):
    pass


class NonFiniteEntry(ValidationError):
    pass


class DuplicateLabel(ValidationError):
    pass


class EmptyDomain(ValidationError):
    pass


class InputMismatch(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    pass


class WeightCountMismatch(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class LabelMismatch(ValidationError):
    pass


class MeasureMismatch(ValidationError):
    pass


class ZeroPriorVulnerability(ValidationError):
    pass


class NegativeEpsilon(ValidationError):
    pass


class NonConforming(ValidationError):
    pass


class TooManyActions(ValidationError):
    pass


class ParameterOutOfRange(ValidationError):
    pass


class DomainTooSmall(ValidationError):
    pass


class InconsistentSecrets(ValidationError):
    pass


class DisconnectedGraph(ValidationError):
    pass


class InvalidForwardProbability(ValidationError):
    pass


class Infeasible(LeakGameError):
    pass


class NumericalFailure(LeakGameError):
    pass


def _check_labels(labels: Sequence[str], kind: str) -> tuple[str, ...]:
    labels = tuple(str(x) for x in labels)
    if not labels:
        raise EmptyDomain(f"{kind} label list is empty")
    if len(set(labels)) != len(labels):
        raise DuplicateLabel(f"duplicate {kind} labels in {labels!r}")
    return labels


def _as_matrix(rows, n_rows: int, n_cols: int, kind: str) -> np.ndarray:
    m = np.asarray(rows, dtype=float)
    if m.shape != (n_rows, n_cols):
        raise ShapeMismatch(
            f"{kind} table has shape {m.shape}, expected ({n_rows}, {n_cols})"
        )
    if not np.all(np.isfinite(m)):
        bad = tuple(int(i) for i in np.argwhere(~np.isfinite(m))[0])
        raise NonFiniteEntry(f"{kind} entry {bad} is {m[bad]!r}, not a finite number")
    out = np.array(m, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Channel:
    """Row-stochastic matrix from secret inputs to observable outputs."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", _check_labels(self.inputs, "input"))
        object.__setattr__(self, "outputs", _check_labels(self.outputs, "output"))
        m = _as_matrix(self.matrix, len(self.inputs), len(self.outputs), "channel")
        if np.any(m < -STOCHASTIC_TOL):
            bad = np.unravel_index(np.argmin(m), m.shape)
            raise NegativeEntry(f"channel entry {bad} is {m[bad]!r} < 0")
        if np.any(m > 1 + STOCHASTIC_TOL):
            bad = np.unravel_index(np.argmax(m), m.shape)
            raise NonStochastic(f"channel entry {bad} is {m[bad]!r} > 1")
        sums = m.sum(axis=1)
        off = np.abs(sums - 1.0)
        if np.any(off > STOCHASTIC_TOL):
            i = int(np.argmax(off))
            raise NonStochastic(
                f"row {i} ({self.inputs[i]!r}) sums to {sums[i]!r}, not 1"
            )
        m = np.where(m > ZERO_TOL, m, 0.0)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def entry(self, x: str, y: str) -> float:
        return float(self.matrix[self.inputs.index(x), self.outputs.index(y)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Channel):
            return NotImplemented
        return (
            self.inputs == other.inputs
            and self.outputs == other.outputs
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash((self.inputs, self.outputs, self.matrix.tobytes()))

    def __repr__(self):
        return f"Channel({len(self.inputs)}x{len(self.outputs)})"


def channel_from_rows(inputs, outputs, rows) -> Channel:
    """Validated channel constructor; rejects rather than rescales."""
    return Channel(tuple(inputs), tuple(outputs), rows)


@dataclass(frozen=True, eq=False)
class LabeledMatrix:
    """Labeled real matrix with no stochasticity guarantee.

    Concatenation of channels lands here: the raw result is a matrix, not
    a channel, and keeping it a distinct type keeps the Channel invariant
    unconditional.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", _check_labels(self.inputs, "input"))
        object.__setattr__(self, "outputs", _check_labels(self.outputs, "output"))
        m = _as_matrix(self.matrix, len(self.inputs), len(self.outputs), "matrix")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability distribution over a finite label list.

    Serves both as a prior over secrets and as a mixed strategy over
    actions; the two roles share every invariant (non-negative weights
    summing to one within 1e-9).
    """

    labels: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", _check_labels(self.labels, "distribution"))
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.labels),):
            raise WeightCountMismatch(
                f"{len(self.labels)} labels but weight vector of shape {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise NonFiniteEntry(f"non-finite weight in {w.tolist()!r}")
        if np.any(w < -STOCHASTIC_TOL):
            raise NegativeEntry(f"negative weight {float(w.min())!r}")
        if abs(w.sum() - 1.0) > STOCHASTIC_TOL:
            raise NonStochastic(f"weights sum to {float(w.sum())!r}, not 1")
        w = np.array(w, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def weight(self, label: str) -> float:
        return float(self.weights[self.labels.index(label)])

    def support(self) -> tuple[str, ...]:
        return tuple(l for l, w in zip(self.labels, self.weights) if w > 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(
            self.weights, other.weights
        )

    def __hash__(self):
        return hash((self.labels, self.weights.tobytes()))

    def __repr__(self):
        pairs = ", ".join(f"{l}: {w:.4g}" for l, w in zip(self.labels, self.weights))
        return f"Distribution({pairs})"


def uniform(labels: Sequence[str]) -> Distribution:
    """Uniform distribution over a non-empty label list."""
    labels = _check_labels(labels, "distribution")
    n = len(labels)
    return Distribution(labels, np.full(n, 1.0 / n))


def point_mass(labels: Sequence[str], label: str) -> Distribution:
    """Point distribution concentrated on one label."""
    labels = _check_labels(labels, "distribution")
    w = np.zeros(len(labels))
    w[labels.index(label)] = 1.0
    return Distribution(labels, w)


@dataclass(frozen=True, eq=False)
class GainFunction:
    """Finite guess set with a gain table g(w, x)."""

    guesses: tuple[str, ...]
    inputs: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "guesses", _check_labels(self.guesses, "guess"))
        object.__setattr__(self, "inputs", _check_labels(self.inputs, "input"))
        t = _as_matrix(self.table, len(self.guesses), len(self.inputs), "gain")
        object.__setattr__(self, "table", t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GainFunction):
            return NotImplemented
        return (
            self.guesses == other.guesses
            and self.inputs == other.inputs
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self):
        return hash((self.guesses, self.inputs, self.table.tobytes()))


def bayes_gain(inputs: Sequence[str]) -> GainFunction:
    """Identity gain: guess set equals the secret set, g(w,x) = 1 iff w = x."""
    inputs = _check_labels(inputs, "input")
    return GainFunction(inputs, inputs, np.eye(len(inputs)))


@dataclass(frozen=True, eq=False)
class AdjacencyRelation:
    """Symmetric, irreflexive relation on secrets.

    ``all-pairs`` mode treats any two distinct secrets as adjacent (local
    differential privacy); ``explicit`` mode carries the pair set.
    """

    mode: str
    pairs: frozenset[frozenset[str]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.mode not in ("all-pairs", "explicit"):
            raise ValidationError(f"unknown adjacency mode {self.mode!r}")
        norm = set()
        for pair in self.pairs:
            members = tuple(pair)
            if len(members) != 2 or members[0] == members[1]:
                raise ValidationError(f"adjacency pair {members!r} is not two distinct labels")
            norm.add(frozenset(str(m) for m in members))
        if self.mode == "all-pairs" and norm:
            raise ValidationError("all-pairs mode takes no explicit pairs")
        object.__setattr__(self, "pairs", frozenset(norm))

    @classmethod
    def all_pairs(cls) -> "AdjacencyRelation":
        return cls("all-pairs")

    @classmethod
    def explicit(cls, pairs: Iterable[tuple[str, str]]) -> "AdjacencyRelation":
        return cls("explicit", frozenset(frozenset(p) for p in pairs))

    def check_labels(self, labels: Sequence[str]) -> None:
        if self.mode == "explicit":
            known = set(labels)
            for pair in self.pairs:
                for x in pair:
                    if x not in known:
                        raise LabelMismatch(
                            f"adjacency references unknown label {x!r}"
                        )

    def ordered_pairs(self, labels: Sequence[str]) -> Iterator[tuple[int, int]]:
        """All ordered adjacent index pairs (i, j), i != j, both directions."""
        self.check_labels(labels)
        if self.mode == "all-pairs":
            n = len(labels)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        yield i, j
        else:
            index = {l: i for i, l in enumerate(labels)}
            for pair in sorted(self.pairs, key=sorted):
                a, b = sorted(pair)
                yield index[a], index[b]
                yield index[b], index[a]

    def index_pairs(self, labels: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (i, j) of ``ordered_pairs``, in the same order."""
        pairs = np.array(list(self.ordered_pairs(labels)), dtype=int).reshape(-1, 2)
        return pairs[:, 0], pairs[:, 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, AdjacencyRelation):
            return NotImplemented
        return self.mode == other.mode and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.mode, self.pairs))


@dataclass(frozen=True, eq=False)
class QifMeasure:
    """Posterior g-vulnerability utility: prior plus gain function."""

    prior: Distribution
    gain: GainFunction

    def __post_init__(self):
        if self.prior.labels != self.gain.inputs:
            raise LabelMismatch(
                "prior labels and gain-function inputs disagree: "
                f"{self.prior.labels} vs {self.gain.inputs}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, QifMeasure):
            return NotImplemented
        return self.prior == other.prior and self.gain == other.gain

    def __hash__(self):
        return hash((self.prior, self.gain))


@dataclass(frozen=True)
class DpMeasure:
    """Differential-privacy-level utility under an adjacency relation."""

    adjacency: AdjacencyRelation


Measure = Union[QifMeasure, DpMeasure]


def align_outputs(channels: Sequence[Channel]) -> list[Channel]:
    """Extend every channel to the union of all output labels.

    New columns are zero-filled, so row sums are preserved exactly.  The
    union keeps first-seen declaration order; already-aligned channels are
    returned unchanged.
    """
    channels = list(channels)
    if not channels:
        return []
    inputs = channels[0].inputs
    for c in channels[1:]:
        if c.inputs != inputs:
            raise InputMismatch(
                f"channels disagree on inputs: {inputs} vs {c.inputs}"
            )
    union: list[str] = []
    seen = set()
    for c in channels:
        for y in c.outputs:
            if y not in seen:
                seen.add(y)
                union.append(y)
    union_t = tuple(union)
    out = []
    for c in channels:
        if c.outputs == union_t:
            out.append(c)
            continue
        m = np.zeros((len(inputs), len(union_t)))
        for j, y in enumerate(c.outputs):
            m[:, union.index(y)] = c.matrix[:, j]
        out.append(Channel(inputs, union_t, m))
    return out


def zero_mismatch(matrices: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """(..., pair, y) mask where exactly one of C(i,y), C(j,y) is zero.

    ``matrices`` is any (..., x, y) stack of channel matrices; a hit means
    the zero pattern disagrees on that adjacent pair (non-conformance).
    """
    zero = matrices == 0
    return zero[..., i, :] != zero[..., j, :]


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Zero-sum information-leakage game.

    Holds a channel for every (defender action, attacker action) pair; all
    channels share the input list and are output-aligned at construction
    (zero-padding to the union alphabet), so downstream solvers can assume
    a common type.  For DP measures every channel must conform to the
    adjacency relation; violation is a construction error.
    """

    defender_actions: tuple[str, ...]
    attacker_actions: tuple[str, ...]
    channels: Mapping[tuple[str, str], Channel]
    measure: Measure

    def __post_init__(self):
        d_actions = _check_labels(self.defender_actions, "defender action")
        a_actions = _check_labels(self.attacker_actions, "attacker action")
        object.__setattr__(self, "defender_actions", d_actions)
        object.__setattr__(self, "attacker_actions", a_actions)

        profiles = list(itertools.product(d_actions, a_actions))
        missing = [p for p in profiles if p not in self.channels]
        if missing:
            raise ValidationError(f"no channel for action profile(s) {missing}")
        extra = [k for k in self.channels if k not in set(profiles)]
        if extra:
            raise ValidationError(f"channels for unknown profile(s) {extra}")

        ordered = [self.channels[p] for p in profiles]
        aligned = align_outputs(ordered)
        chan_map = dict(zip(profiles, aligned))
        object.__setattr__(self, "channels", chan_map)

        if isinstance(self.measure, QifMeasure):
            if self.measure.prior.labels != aligned[0].inputs:
                raise LabelMismatch(
                    "prior labels do not match channel inputs: "
                    f"{self.measure.prior.labels} vs {aligned[0].inputs}"
                )
        elif isinstance(self.measure, DpMeasure):
            i, j = self.measure.adjacency.index_pairs(aligned[0].inputs)
            i, j = i[i < j], j[i < j]  # the zero-pattern check is symmetric
            hit = np.argwhere(zero_mismatch(self.matrices, i, j))
            if hit.size:
                d, a, k, y = hit[0]
                raise NonConforming(
                    f"channel for profile {(d_actions[d], a_actions[a])} breaks the "
                    f"zero-pattern condition at inputs ({self.inputs[i[k]]!r}, "
                    f"{self.inputs[j[k]]!r}), output {self.outputs[y]!r}"
                )
        else:
            raise ValidationError(f"unknown measure {self.measure!r}")

    @property
    def inputs(self) -> tuple[str, ...]:
        return next(iter(self.channels.values())).inputs

    @functools.cached_property
    def matrices(self) -> np.ndarray:
        """Read-only (defender action, attacker action, x, y) stack of the channels."""
        stack = np.array([c.matrix for c in self.channels.values()])  # profile order
        stack = stack.reshape(len(self.defender_actions), -1, *stack.shape[1:])
        stack.setflags(write=False)
        return stack

    @property
    def outputs(self) -> tuple[str, ...]:
        return next(iter(self.channels.values())).outputs

    def channel(self, d: str, a: str) -> Channel:
        return self.channels[(d, a)]

    def channels_for_attack(self, a: str) -> list[Channel]:
        """Defender-indexed channel list for a fixed attacker action."""
        return [self.channels[(d, a)] for d in self.defender_actions]

    def is_qif(self) -> bool:
        return isinstance(self.measure, QifMeasure)

    def is_dp(self) -> bool:
        return isinstance(self.measure, DpMeasure)

    def require_qif(self) -> QifMeasure:
        if not self.is_qif():
            raise MeasureMismatch("operation requires a QIF game")
        return self.measure

    def require_dp(self) -> DpMeasure:
        if not self.is_dp():
            raise MeasureMismatch("operation requires a DP game")
        return self.measure

    def __eq__(self, other) -> bool:
        if not isinstance(other, GameSpec):
            return NotImplemented
        return (
            self.defender_actions == other.defender_actions
            and self.attacker_actions == other.attacker_actions
            and dict(self.channels) == dict(other.channels)
            and self.measure == other.measure
        )

    def __hash__(self):
        return hash(
            (
                self.defender_actions,
                self.attacker_actions,
                tuple(sorted(self.channels.items())),
                self.measure,
            )
        )


@dataclass(frozen=True)
class SolveReport:
    """Solver output: strategy, value, and convergence diagnostics.

    ``value`` is a posterior vulnerability for QIF games and a DP level in
    nats for DP games.  ``certificate_gap`` is the solver's optimality
    certificate: the value minus a proven lower bound on the game value,
    in the units of the value; ``certified`` is False when the iteration
    budget ran out before the gap met the tolerance.
    """

    defender_strategy: Distribution
    value: float
    iterations: int
    certificate_gap: float
    certified: bool = True
    attacker_strategy: Distribution | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.certificate_gap < -STOCHASTIC_TOL:
            raise ValidationError(
                f"negative certificate gap {self.certificate_gap!r}"
            )
        if not np.isfinite(self.value):
            raise ValidationError(f"non-finite game value {self.value!r}")

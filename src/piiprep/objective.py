"""Class-weighted cross-entropy over predicted label distributions.

Outside tokens (gold label O) are down-weighted so the loss signal is not
swamped by the majority class; every entity label carries full weight. The
loss for a sequence is the mean over tokens of

    weight(gold_t) * -ln p_t[gold_t]

with probabilities clamped away from zero before the log. A fine loss and a
coarse loss combine linearly with a configurable coarse weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from piiprep.errors import LabelError

__all__ = ["LossWeights", "token_weight", "weighted_cross_entropy", "combined_loss"]

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LossWeights:
    outside: float = 0.1
    entity: float = 1.0

    def __post_init__(self) -> None:
        if self.outside < 0 or self.entity < 0:
            raise ValueError("loss weights must be non-negative")


def token_weight(label: str, weights: LossWeights = LossWeights()) -> float:
    """Weight applied to one token's loss term, by its gold label."""
    return weights.outside if label == "O" else weights.entity


def _shape(x: object) -> tuple[int, ...]:
    """Shape of a nested sequence, read down its first entries."""
    dims: list[int] = []
    while not isinstance(x, str):
        try:
            dims.append(len(x))
        except TypeError:
            break
        if not dims[-1]:
            break
        x = x[0]
    return tuple(dims)


def weighted_cross_entropy(
    distributions: Sequence[Sequence[float]],
    gold_labels: Sequence[str],
    vocabulary: Sequence[str],
    weights: LossWeights = LossWeights(),
    *,
    floor: float = PROB_FLOOR,
) -> float:
    """Mean weighted negative log-likelihood of the gold labels.

    distributions is one probability vector per token over the vocabulary
    (any label order, as long as it matches the vectors), as nested
    sequences or a 2-D numpy array. Rows must be non-negative and sum to 1.
    An empty sequence scores 0.
    """
    n = len(gold_labels)
    try:
        probs = [[float(p) for p in row] for row in distributions]
    except TypeError:  # not two levels deep: a row is a number or holds rows
        probs = None
    if n == 0 and probs is not None and not any(probs):
        return 0.0
    if probs is None or len(probs) != n:
        raise ValueError(
            f"expected {n} distributions, got array of shape {_shape(distributions)}"
        )
    for row in probs:
        if len(row) != len(vocabulary):
            raise ValueError(
                f"distribution width {len(row)} does not match "
                f"vocabulary size {len(vocabulary)}"
            )
    if any(p < 0 for row in probs for p in row):
        raise ValueError("distributions must be non-negative")
    sums = [sum(row) for row in probs]
    # A NaN sum would pass "d > 1e-6" (NaN fails every comparison), so it
    # counts as infinitely far from 1.
    off = [math.inf if math.isnan(t) else abs(t - 1.0) for t in sums]
    if any(d > 1e-6 for d in off):
        worst = off.index(max(off))
        raise ValueError(f"distribution {worst} sums to {sums[worst]!r}, expected 1")
    index = {lab: i for i, lab in enumerate(vocabulary)}
    try:
        cols = [index[lab] for lab in gold_labels]
    except KeyError as e:
        raise LabelError(f"gold label {e.args[0]!r} not in vocabulary") from None
    return sum(
        token_weight(lab, weights) * -math.log(max(row[col], floor))
        for lab, row, col in zip(gold_labels, probs, cols)
    ) / n


def combined_loss(fine_loss: float, coarse_loss: float, coarse_weight: float = 0.3) -> float:
    """Total objective: fine loss plus weighted coarse loss.

    >>> combined_loss(1.0, 1.0, 0.3)
    1.3
    """
    if coarse_weight < 0:
        raise ValueError(f"coarse_weight must be >= 0, got {coarse_weight}")
    if math.isnan(fine_loss) or math.isnan(coarse_loss):
        raise ValueError("loss terms must not be NaN")
    if fine_loss < 0 or coarse_loss < 0:
        raise ValueError("loss terms must be non-negative")
    return fine_loss + coarse_weight * coarse_loss

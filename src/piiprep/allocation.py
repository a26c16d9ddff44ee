"""Largest-remainder apportionment with deterministic tie-breaking.

All quotas are exact rationals (fractions.Fraction), which keeps results
platform-stable. Apportioning counts proportionally never gives a bucket more
than its count: a quota target*c/total is at most c, and a bucket gets its
extra unit only when its remainder is above 0, so floor + 1 <= c.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from piiprep.errors import AllocationError

__all__ = ["apportion", "largest_remainder_allocate", "allocate_fractions"]


def apportion(
    quotas: Sequence[Fraction],
    target: int,
    *,
    tie_weights: Sequence[int] | None = None,
) -> list[int]:
    """Round exact quotas to integers summing to target.

    Each bucket gets floor(quota); the remaining units go to the largest
    fractional remainders. Ties break by larger tie_weight, then lower index,
    so callers control the final tie order through input ordering.
    """
    n = len(quotas)
    weights = list(tie_weights) if tie_weights is not None else [0] * n
    if len(weights) != n:
        raise AllocationError("quotas and tie_weights must have equal length")
    if sum(quotas) != target:
        raise AllocationError(f"quotas sum to {sum(quotas)}, expected {target}")

    if any(q < 0 for q in quotas):
        raise AllocationError("negative quota")

    result = [int(q) for q in quotas]  # floor, quotas are non-negative
    remainders = [q - b for q, b in zip(quotas, result)]
    order = sorted(range(n), key=lambda i: (-remainders[i], -weights[i], i))
    # Every remainder is below 1, so fewer than n units are left over.
    for i in order[: target - sum(result)]:
        result[i] += 1
    return result


def largest_remainder_allocate(counts: Mapping[str, int], target_total: int) -> dict[str, int]:
    """Allocate target_total across sources proportionally to their counts.

    Remainder ties break by larger source count first, then lexicographic
    source name. Allocations never exceed the source counts.

    >>> largest_remainder_allocate({"a": 7, "b": 2, "c": 1}, 7)
    {'a': 5, 'b': 1, 'c': 1}
    """
    for name, c in counts.items():
        if c < 0:
            raise AllocationError(f"negative count for {name!r}: {c}")
    total = sum(counts.values())
    if target_total < 0:
        raise AllocationError(f"negative target: {target_total}")
    if target_total > total:
        raise AllocationError(f"target {target_total} exceeds total count {total}")
    if not counts:
        if target_total:
            raise AllocationError("cannot allocate a positive target across no sources")
        return {}
    names = sorted(counts)  # lexicographic order realises the name tie-break
    quotas = [Fraction(target_total * counts[n], total) if total else Fraction(0) for n in names]
    alloc = apportion(quotas, target_total, tie_weights=[counts[n] for n in names])
    by_name = dict(zip(names, alloc))
    return {name: by_name[name] for name in counts}


def allocate_fractions(n: int, fractions: Mapping[str, float | str]) -> dict[str, int]:
    """Partition n items across named parts with given fractions.

    Fractions must sum to exactly 1 (checked as exact rationals built from
    their string form, so 0.8/0.1/0.1 is fine). Remainder ties go to the
    earlier part in declaration order.
    """
    if n < 0:
        raise AllocationError(f"negative n: {n}")
    parts = list(fractions)
    fr = [Fraction(str(fractions[p])) for p in parts]
    if any(f < 0 for f in fr):
        raise AllocationError("negative split fraction")
    if sum(fr) != 1:
        raise AllocationError(f"split fractions sum to {float(sum(fr))}, expected 1")
    alloc = apportion([n * f for f in fr], n)
    return dict(zip(parts, alloc))

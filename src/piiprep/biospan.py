"""Span-level view of BIO label sequences.

The hot loops (span extraction, orphan counting) live in a small kernel that
exists twice: compiled (_speedups, Cython) and pure Python (_purespans). The
compiled one is used when it can be imported, the pure one otherwise. Both
twins implement the same semantics, documented in _purespans and summarised
here:

- B-X opens a new span at its token.
- I-X continues a running span of type X. An orphan I-X (at sequence start,
  after O, or after a different type) opens a new span instead of being
  dropped, so annotation glitches still count as mentions.
- O and end-of-sequence close the running span. Spans are half-open token
  intervals [start, end).

check_labels names the first bad entry of a label list with the same message
whichever kernel is active; callers use it when a kernel has raised.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from piiprep._purespans import check_labels

try:
    from piiprep import _speedups as _kernel
except ImportError:
    from piiprep import _purespans as _kernel  # type: ignore[no-redef]

__all__ = [
    "Span",
    "extract_spans",
    "extract_span_tuples",
    "count_orphan_continuations",
    "check_labels",
    "active_kernel",
]

# Raw-tuple entry points used by the streaming scorer; cheaper than wrapping
# every span in a NamedTuple.
extract_span_tuples = _kernel.extract_span_tuples
count_orphan_continuations = _kernel.count_orphan_continuations


class Span(NamedTuple):
    """Half-open token interval [start, end) carrying one entity type."""

    start: int
    end: int
    entity: str


def active_kernel() -> str:
    """Name of the kernel selected at import: 'cython' or 'python'."""
    return "cython" if _kernel.__name__.endswith("_speedups") else "python"


def extract_spans(labels: Sequence[str]) -> list[Span]:
    """Extract entity spans from a BIO sequence.

    >>> extract_spans(["B-A", "I-B", "I-B"])
    [Span(start=0, end=1, entity='A'), Span(start=1, end=3, entity='B')]
    """
    return [Span(*t) for t in extract_span_tuples(list(labels))]

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
whichever kernel is active; it is the one rule for a label's form (O, B-<type>
or I-<type>). The scorer uses it when a kernel has raised, and
Record.validate on a record whose labels it has not all seen before.
"""

from __future__ import annotations

from piiprep._purespans import check_labels

try:
    from piiprep import _speedups as _kernel
except ImportError:
    from piiprep import _purespans as _kernel  # type: ignore[no-redef]

__all__ = [
    "extract_span_tuples",
    "count_orphan_continuations",
    "check_labels",
    "active_kernel",
]

extract_span_tuples = _kernel.extract_span_tuples
count_orphan_continuations = _kernel.count_orphan_continuations


def active_kernel() -> str:
    """Name of the kernel selected at import: 'cython' or 'python'."""
    return "cython" if _kernel.__name__.endswith("_speedups") else "python"


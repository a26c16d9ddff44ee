"""Pure-Python span kernels.

Twin of the compiled module _speedups; biospan uses this one when _speedups
cannot be imported. Any semantic change here must be mirrored there.

Span semantics: a span is a maximal half-open token interval of one entity
type. B-X always opens a new span. I-X continues a running span of the same
type; an I-X with no running span of type X (at sequence start, after O, or
after a different type) opens a new span rather than being dropped.

Label cache: both functions look each non-O label up in a module-level dict
that maps it to (is_begin, entity_type), and check and slice it only on a
miss. A corpus has at most 2n+1 distinct labels for n entity types, so nearly
every token costs one dict hit. The cache is not a semantic change: only a
label that passed the check is stored, and the stored pair is what the check
would compute again, so results are the same; a malformed label is never
stored, so every occurrence of it is checked and raises with its own
position. The compiled twin therefore does not mirror the cache. The dict is
emptied when it reaches _CACHE_MAX labels, so input with unboundedly many
distinct labels cannot grow it past that.

A label that is not a string raises LabelError here; the compiled twin
raises TypeError for it, and biospan.check_labels gives the LabelError for
either.
"""

from __future__ import annotations

from piiprep.errors import LabelError

_CACHE_MAX = 4096
_LABELS: dict[str, tuple[bool, str]] = {}


def _parse(label: object, position: int) -> tuple[bool, str]:
    """Check an uncached label and cache it as (is_begin, entity_type)."""
    if type(label) is not str:
        raise LabelError(f"label {position} is not a string: {label!r}")
    if len(label) < 3 or label[1] != "-" or label[0] not in "BI":
        raise LabelError(f"malformed BIO label at position {position}: {label!r}")
    if len(_LABELS) >= _CACHE_MAX:
        _LABELS.clear()
    parsed = _LABELS[label] = (label[0] == "B", label[2:])
    return parsed


def extract_span_tuples(labels: list[str]) -> list[tuple[int, int, str]]:
    """Extract (start, end, entity_type) tuples from a BIO sequence."""
    spans: list[tuple[int, int, str]] = []
    start = -1
    cur: str | None = None
    get = _LABELS.get
    try:
        for i, lab in enumerate(labels):
            if lab == "O":
                if cur is not None:
                    spans.append((start, i, cur))
                    cur = None
                continue
            is_begin, typ = get(lab) or _parse(lab, i)
            if is_begin or typ != cur:
                if cur is not None:
                    spans.append((start, i, cur))
                start = i
                cur = typ
    except TypeError:
        check_labels(labels)
        raise
    if cur is not None:
        spans.append((start, len(labels), cur))
    return spans


def count_orphan_continuations(labels: list[str]) -> int:
    """Count I-X tokens whose predecessor is neither B-X nor I-X."""
    count = 0
    prev_typ: str | None = None
    get = _LABELS.get
    try:
        for i, lab in enumerate(labels):
            if lab == "O":
                prev_typ = None
                continue
            is_begin, typ = get(lab) or _parse(lab, i)
            if not is_begin and typ != prev_typ:
                count += 1
            prev_typ = typ
    except TypeError:
        check_labels(labels)
        raise
    return count


def check_labels(labels: list[str]) -> None:
    """Raise LabelError at the first entry that is neither O nor a BIO label.

    The kernels above call it when their loop raised TypeError, which the
    cache lookup does for an unhashable entry (a JSON array or object), so
    the error names that entry and its position; if it returns, the
    TypeError stands. biospan offers it to callers of either kernel.
    """
    for i, lab in enumerate(labels):
        if lab != "O":
            _parse(lab, i)

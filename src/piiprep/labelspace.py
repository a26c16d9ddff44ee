"""Label-space construction for fine and coarse BIO tagging.

A label space is built from an ordered list of entity types plus a mapping of
each type onto one of ten fixed coarse groups. The fine tag set is O plus a
B-/I- pair per type (2n+1 labels); the coarse tag set is O plus a B-/I- pair
per group that actually occurs in the mapping.

Label order is part of the contract: O sits at index 0 and the B-/I- pairs
follow in taxonomy order, so downstream consumers can rely on stable indices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from piiprep.errors import LabelError, TaxonomyError
from piiprep.jsonl import iter_lines

__all__ = [
    "CANONICAL_GROUPS",
    "BioLabel",
    "LabelSpace",
    "build_label_space",
    "parse_bio_label",
    "load_taxonomy",
]

# The ten coarse groups, in declaration order. Coarse label order follows
# this order, filtered to the groups a given taxonomy actually uses.
CANONICAL_GROUPS = (
    "PERSON_GROUP",
    "CONTACT",
    "FINANCIAL_ID",
    "TEMPORAL",
    "CREDENTIAL",
    "NETWORK",
    "ORG_ROLE",
    "LOCATION",
    "MISC",
    "FINANCIAL_NER",
)

_TYPE_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")


class BioLabel(NamedTuple):
    """A parsed BIO label: prefix is 'O', 'B' or 'I'; entity is None for O."""

    prefix: str
    entity: str | None


def parse_bio_label(text: str) -> BioLabel:
    """Parse a label string such as 'B-IBAN' into its parts.

    >>> parse_bio_label("B-IBAN")
    BioLabel(prefix='B', entity='IBAN')
    """
    if text == "O":
        return BioLabel("O", None)
    if len(text) > 2 and text[1] == "-" and text[0] in ("B", "I"):
        return BioLabel(text[0], text[2:])
    raise LabelError(f"malformed BIO label: {text!r}")


@dataclass(frozen=True)
class LabelSpace:
    """Immutable fine/coarse label inventory for one taxonomy."""

    types: tuple[str, ...]
    coarse_map: Mapping[str, str]
    groups: tuple[str, ...] = field(init=False)
    fine_labels: tuple[str, ...] = field(init=False)
    coarse_labels: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        present = set(self.coarse_map.values())
        groups = tuple(g for g in CANONICAL_GROUPS if g in present)
        fine = ["O"]
        for t in self.types:
            fine += [f"B-{t}", f"I-{t}"]
        coarse = ["O"]
        for g in groups:
            coarse += [f"B-{g}", f"I-{g}"]
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "fine_labels", tuple(fine))
        object.__setattr__(self, "coarse_labels", tuple(coarse))

    def coarse_of(self, entity_type: str) -> str:
        """Coarse group of a fine type; raises LabelError for unknown types."""
        try:
            return self.coarse_map[entity_type]
        except KeyError:
            raise LabelError(f"entity type not in label space: {entity_type!r}") from None

    def __contains__(self, entity_type: str) -> bool:
        return entity_type in self.coarse_map


def build_label_space(types: Iterable[str], coarse_map: Mapping[str, str]) -> LabelSpace:
    """Validate a taxonomy and build its LabelSpace.

    Types must be unique uppercase identifiers (no hyphen, so the B-/I- split
    on the first hyphen stays unambiguous) and every type must map onto one of
    the canonical coarse groups.
    """
    ordered = tuple(types)
    seen: set[str] = set()
    for t in ordered:
        if not _TYPE_RE.match(t):
            raise TaxonomyError(
                f"invalid entity type name {t!r}: expected an uppercase "
                "identifier without hyphens"
            )
        if t in seen:
            raise TaxonomyError(f"duplicate entity type: {t}")
        seen.add(t)
    for t in ordered:
        if t not in coarse_map:
            raise TaxonomyError(f"entity type has no coarse group: {t}")
        g = coarse_map[t]
        if g not in CANONICAL_GROUPS:
            raise TaxonomyError(f"unknown coarse group {g!r} for type {t}")
    extra = set(coarse_map) - seen
    if extra:
        raise TaxonomyError(f"coarse map covers unknown types: {sorted(extra)}")
    return LabelSpace(types=ordered, coarse_map=dict(coarse_map))


def load_taxonomy(path: str | Path) -> LabelSpace:
    """Load a TYPE<TAB>GROUP taxonomy file and build its label space.

    Blank lines and '#' comments are ignored. Type and group names are
    normalized to uppercase, so a file may spell them either way.
    """
    types: list[str] = []
    coarse_map: dict[str, str] = {}
    path = Path(path)
    for lineno, _, raw in iter_lines(path):
        raw = raw.rstrip("\r\n")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise TaxonomyError(f"{path.name}:{lineno}: expected TYPE<TAB>GROUP, got {raw!r}")
        t = parts[0].strip().upper()
        g = parts[1].strip().upper()
        if t in coarse_map:
            raise TaxonomyError(f"{path.name}:{lineno}: duplicate entity type {t}")
        types.append(t)
        coarse_map[t] = g
    if not types:
        raise TaxonomyError(f"{path.name}: no TYPE<TAB>GROUP mappings found")
    return build_label_space(types, coarse_map)

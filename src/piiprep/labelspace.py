"""The taxonomy and its fine and coarse BIO label spaces.

load_taxonomy reads and checks a taxonomy: each type mapped onto one of ten
fixed coarse groups. The fine tag set is O plus a B-/I- pair per type (2n+1
labels); the coarse tag set is O plus a B-/I- pair per group that occurs in
the mapping. LabelSpace.unknown_type is validate's and prepare's check that a
label's type is in the space; the form of a label (O, B-<type> or I-<type>)
is the span kernel's rule, biospan.check_labels.

Label order is part of the contract: O sits at index 0 and the B-/I- pairs
follow in taxonomy order, so downstream consumers can rely on stable indices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from piiprep.errors import TaxonomyError
from piiprep.jsonl import iter_lines

__all__ = ["CANONICAL_GROUPS", "LabelSpace", "load_taxonomy"]

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


@dataclass(frozen=True)
class LabelSpace:
    """Immutable fine/coarse label inventory for one taxonomy."""

    types: tuple[str, ...]
    coarse_map: Mapping[str, str]
    groups: tuple[str, ...] = field(init=False)
    fine_labels: tuple[str, ...] = field(init=False)
    coarse_labels: tuple[str, ...] = field(init=False)
    fine_label_set: frozenset[str] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "fine_label_set", frozenset(fine))

    def __contains__(self, entity_type: str) -> bool:
        return entity_type in self.coarse_map

    def unknown_type(self, labels: Sequence[str]) -> str | None:
        """The type of the first of these well-formed BIO labels outside the space, or None."""
        if self.fine_label_set.issuperset(labels):
            return None
        return next(lab[2:] for lab in labels if lab not in self.fine_label_set)


def load_taxonomy(path: str | Path | None = None) -> LabelSpace:
    """Load a TYPE<TAB>GROUP taxonomy file, the packaged one if path is None.

    Blank lines and '#' comments are ignored. Type and group names are
    normalized to uppercase. A type must be an identifier without hyphens (so
    the B-/I- split stays unambiguous), map onto a canonical coarse group and
    appear once; a line that breaks a rule fails as <file>:<line>: <reason>.
    """
    if path is None:
        from piiprep.fixtures import taxonomy_path

        path = taxonomy_path()
    path = Path(path)
    coarse_map: dict[str, str] = {}
    for lineno, _, raw in iter_lines(path):
        raw = raw.rstrip("\r\n")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path.name}:{lineno}"
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise TaxonomyError(f"{where}: expected TYPE<TAB>GROUP, got {raw!r}")
        t = parts[0].strip().upper()
        g = parts[1].strip().upper()
        if not _TYPE_RE.match(t):
            raise TaxonomyError(
                f"{where}: invalid entity type name {t!r}: expected an uppercase "
                "identifier without hyphens"
            )
        if g not in CANONICAL_GROUPS:
            raise TaxonomyError(f"{where}: unknown coarse group {g!r} for type {t}")
        if t in coarse_map:
            raise TaxonomyError(f"{where}: duplicate entity type {t}")
        coarse_map[t] = g
    if not coarse_map:
        raise TaxonomyError(f"{path.name}: no TYPE<TAB>GROUP mappings found")
    return LabelSpace(types=tuple(coarse_map), coarse_map=coarse_map)

"""The id key's layout belongs to idindex alone."""

from __future__ import annotations

import ast
from pathlib import Path

import piiprep

KEY_NAMES = {"_ROW", "_HIGH", "_id_hash"}


def test_only_idindex_reads_a_key():
    # A key (an id hash in the high bits, the row in the low 32) and a bitmap
    # of rows are read through LineIndex and IdKeys, so no other module names
    # the key's masks or hash, or imports a private name of idindex.
    found = []
    for path in sorted(Path(piiprep.__file__).parent.glob("*.py")):
        if path.name == "idindex.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "piiprep.idindex":
                found += [(path.name, node.lineno, a.name) for a in node.names
                          if a.name.startswith("_")]
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in KEY_NAMES:
                found.append((path.name, node.lineno, name))
    assert found == []

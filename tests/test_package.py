"""The package's public surface and the layering of its modules."""

import ast
import types
from pathlib import Path

import presmat


def test_all_lists_every_public_name():
    bound = {name for name, value in vars(presmat).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(presmat.__all__) == len(set(presmat.__all__))
    assert set(presmat.__all__) == bound


def imported_names(module: str) -> dict:
    """{source module: names} of the imports at any depth of the named
    presmat module, relative ones as "." plus their module."""
    path = Path(presmat.__file__).with_name(module + ".py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            found.setdefault(source, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                found.setdefault(a.name, set())
    return found


def test_layers_import_only_what_they_may_know():
    # the ring is the bottom layer; the engine's term format stays in the
    # engine, so the presentation layer imports none of its names
    ring = imported_names("ring")
    assert not [m for m in ring if m.startswith((".", "presmat"))], ring
    encoding = {"_Encoding", "_run", "_reduce_basis", "_syzygy_vectors",
                "_terms_to_polys", "_Clock"}
    presentation = imported_names("presentation")
    assert not encoding & presentation.get(".groebner", set()), presentation

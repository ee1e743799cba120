"""Every module-level import in the package is referenced by its module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "routebench"

# perfbench's tracer times gradcheck's prefix by patching these names on
# ``numerics``, and wraps the router's stage functions on ``fusion``, so they
# stay imported there although neither module calls them.
ALLOWED_UNUSED = {
    "numerics.py": {"resample_tokens", "adapt_dim"},
    "fusion.py": {"route_logits", "routing_weights", "select_top_k"},
}


def unused_imports(source: str) -> set:
    """Names bound by the module's top-level imports that no ``Name`` node
    in the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert unused == ALLOWED_UNUSED.get(path.name, set())


def test_detector_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from typing import Optional as Opt, Any\n"
        "def f(x: Opt[int]):\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == {"json", "Any"}

"""No module of ``xcliff`` or of its tests imports a name it never reads.

Each module is parsed with ``ast``.  Every name that an ``import`` or
``from ... import`` statement binds must be read somewhere in the module:
as a bare name, or as the root of an attribute chain.  ``from __future__``
imports bind no name and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "xcliff").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names the source's imports bind and never read, in order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.path.join('a')\n", []),
    ("from math import gcd, lcm as l\nl(2, 3)\n", ["gcd"]),
    ("from __future__ import annotations\n", []),
    ("def f():\n    import json\n    return json\n", []),
])
def test_the_scan_finds_exactly_the_unread_names(source, unused):
    assert unused_imports(source) == unused


def test_no_module_imports_a_name_it_never_reads():
    found = {path.relative_to(ROOT).as_posix(): names for path in MODULES
             if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}

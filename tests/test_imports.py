"""Every imported name is used: an ``ast`` scan of ``src/``, ``tests/`` and
``tools/``, the check a linter's unused-import rule would make.

The package's ``__init__.py`` is left out, since it imports to re-export;
``from __future__`` imports are ignored.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "tools") for p in (ROOT / d).rglob("*.py")
               if not (d == "src" and p.name == "__init__.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name the module imports and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from json import dumps as d, loads\nprint(os.path.sep, d)\n")
    assert unused_imports(source) == [(2, "math"), (4, "loads")]

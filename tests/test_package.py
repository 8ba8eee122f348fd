import ast
from pathlib import Path

import spo_bounds


def imported_names() -> list[str]:
    """The names ``spo_bounds/__init__.py`` imports from its submodules."""
    tree = ast.parse(Path(spo_bounds.__file__).read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_export_resolves():
    missing = [name for name in spo_bounds.__all__ if not hasattr(spo_bounds, name)]
    assert missing == []


def test_exports_are_exactly_the_imports():
    assert len(set(spo_bounds.__all__)) == len(spo_bounds.__all__)
    assert sorted(spo_bounds.__all__) == sorted(imported_names())

import ast
from pathlib import Path

import spo_bounds
import spo_bounds.audits


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


def test_audits_import_nothing_from_the_harness():
    # the audits own their checks; the experiment harness is not a layer
    # beneath them
    tree = ast.parse(Path(spo_bounds.audits.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["spo_bounds" if node.level else "",
                                            node.module]))
            modules |= {module} | {f"{module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
    assert "spo_bounds.geometry" in modules
    assert "spo_bounds.harness" not in modules

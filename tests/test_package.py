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


def row_norm_sites() -> set[tuple[str, str]]:
    """(module, innermost enclosing function) of every ``linalg.norm`` call
    with an ``axis`` keyword and every ``vecdot`` in the package."""
    sites = set()

    def visit(node: ast.AST, module: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Attribute) and child.attr == "vecdot":
                sites.add((module, inner))
            if (isinstance(child, ast.Call)
                    and ast.unparse(child.func).endswith("linalg.norm")
                    and any(kw.arg == "axis" for kw in child.keywords)):
                sites.add((module, inner))
            visit(child, module, inner)

    for path in Path(spo_bounds.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, "<module>")
    return sites


def test_row_norms_have_one_home():
    # every row norm goes through vector_norm_rows, which calls no BLAS and
    # works row-major; whole-array norms (no axis) stay allowed
    assert row_norm_sites() == {("geometry", "vector_norm_rows")}


def dict_test_sites() -> set[tuple[str, str]]:
    """(module, innermost enclosing function) of every ``isinstance(..., dict)``
    in the package."""
    sites = set()

    def visit(node: ast.AST, module: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else scope
            if (isinstance(child, ast.Call) and ast.unparse(child.func) == "isinstance"
                    and "dict" in ast.unparse(child.args[1])):
                sites.add((module, inner))
            visit(child, module, inner)

    for path in Path(spo_bounds.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, "<module>")
    return sites


def test_json_objects_have_one_reader():
    # every JSON object from outside the program goes through _read_object,
    # which refuses non-objects, unknown and missing keys and wrong types
    assert dict_test_sites() == {("_inputs", "_read_object")}

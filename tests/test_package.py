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


def sites(match) -> set[tuple[str, str]]:
    """(module, innermost enclosing function) of every node in the package
    for which ``match`` holds."""
    found = set()

    def visit(node: ast.AST, module: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else scope
            if match(child):
                found.add((module, inner))
            visit(child, module, inner)

    for path in Path(spo_bounds.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, "<module>")
    return found


def calls(node: ast.AST, *names: str) -> bool:
    return isinstance(node, ast.Call) and ast.unparse(node.func) in names


def test_row_norms_have_one_home():
    # every row sum and row norm of the kernels is a column sweep with
    # numpy's bits and no BLAS call (geometry._row_sums, vector_norm_rows):
    # no linalg.norm with an axis, no vecdot and no row sum along axis 1.
    # Whole-array norms stay allowed, and the audits keep their two
    # (linopt * C).sum(axis=1), which check the oracle against numpy's own
    # reduction.
    def row_reduction(node):
        if isinstance(node, ast.Attribute) and node.attr == "vecdot":
            return True
        if not isinstance(node, ast.Call):
            return False
        func = ast.unparse(node.func)
        axes = {ast.unparse(kw.value) for kw in node.keywords if kw.arg == "axis"}
        return bool((func.endswith("linalg.norm") and axes)
                    or (func.endswith(("sum", "add.reduce")) and axes & {"1", "-1"}))

    assert sites(row_reduction) == {("audits", "audit_oracle_optimality"),
                                    ("audits", "audit_dag_enumeration")}


def test_json_objects_have_one_reader():
    # every JSON object from outside the program goes through _read_object,
    # which refuses non-objects, unknown and missing keys and wrong types
    assert sites(lambda node: calls(node, "isinstance")
                 and "dict" in ast.unparse(node.args[1])) == {("_inputs", "_read_object")}


def test_scalars_and_json_text_have_one_reader():
    # every scalar range check goes through _require_number, which refuses
    # NaN and the infinities, and all JSON text through _read_json, which
    # turns a RecursionError into a ValueError
    assert sites(lambda node: calls(node, "math.isfinite", "json.loads")) == \
        {("_inputs", "_read_json")}

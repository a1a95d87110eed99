import ast
from pathlib import Path

import iotprint

PACKAGE_DIR = Path(iotprint.__file__).parent
SOURCES = {path.stem: ast.parse(path.read_text()) for path in PACKAGE_DIR.glob("*.py")}


def _package_imports(node) -> list:
    """Package modules a `from .x import` (or `from . import x`) statement names."""
    if not isinstance(node, ast.ImportFrom) or node.level == 0:
        return []
    if node.module is None:
        return [alias.name for alias in node.names]
    return [node.module]


def test_no_function_imports_a_package_module():
    deferred = [
        f"{name}.py:{node.lineno}"
        for name, tree in SOURCES.items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if _package_imports(node)
        or (isinstance(node, ast.Import) and any(a.name.startswith("iotprint") for a in node.names))
    ]
    assert deferred == []


def test_module_imports_form_an_acyclic_graph():
    graph = {
        name: {dep for node in ast.walk(tree) for dep in _package_imports(node)}
        for name, tree in SOURCES.items()
    }
    done: set = set()

    def visit(name: str, path: tuple) -> None:
        assert name not in path, f"import cycle: {' -> '.join(path + (name,))}"
        if name not in done:
            for dep in sorted(graph.get(name, ())):
                visit(dep, path + (name,))
            done.add(name)

    for name in sorted(graph):
        visit(name, ())


def test_every_module_level_import_is_used():
    """A name a module imports at module level is used in that module."""
    unused = []
    for name, tree in SOURCES.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}.py:{node.lineno}: {bound}")
    assert unused == []


def test_synth_imports_only_the_packet_model():
    imports = {dep for node in ast.walk(SOURCES["synth"]) for dep in _package_imports(node)}
    assert imports == {"packet_model"}

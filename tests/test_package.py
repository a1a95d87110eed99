import ast
import importlib
from pathlib import Path

import iotprint
from iotprint import cli, evaluation, features, fingerprint, ml

PACKAGE_DIR = Path(iotprint.__file__).parent
SOURCES = {path.stem: ast.parse(path.read_text()) for path in PACKAGE_DIR.glob("*.py")}


def _package_imports(node) -> list:
    """Package modules a `from .x import` (or `from . import x`) statement names."""
    if not isinstance(node, ast.ImportFrom) or node.level == 0:
        return []
    if node.module is None:
        return [alias.name for alias in node.names]
    return [node.module]


IMPORTS = {
    name: {dep for node in ast.walk(tree) for dep in _package_imports(node)}
    for name, tree in SOURCES.items()
}


def _reachable(name: str) -> set:
    """The package modules `name` imports, directly or through others."""
    found, todo = set(), [name]
    while todo:
        for dep in IMPORTS.get(todo.pop(), ()):
            if dep not in found:
                found.add(dep)
                todo.append(dep)
    return found


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
    done: set = set()

    def visit(name: str, path: tuple) -> None:
        assert name not in path, f"import cycle: {' -> '.join(path + (name,))}"
        if name not in done:
            for dep in sorted(IMPORTS.get(name, ())):
                visit(dep, path + (name,))
            done.add(name)

    for name in sorted(IMPORTS):
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


def _read_names(tree) -> set:
    """The names a module reads: as a name, as an attribute or by an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def _module_level_names(tree) -> list:
    """The names a module defines at module level."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, ast.Assign):
            defined += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.append(node.target.id)
    return defined


def test_every_public_module_level_name_is_read_in_the_package():
    """A public name a module defines at module level is read somewhere in
    the package: as a name, as an attribute or by an import."""
    read = set().union(*map(_read_names, SOURCES.values()))
    unread = [
        f"{name}.{d}"
        for name, tree in SOURCES.items()
        for d in _module_level_names(tree)
        if not d.startswith("_") and d not in read
    ]
    assert unread == []


def test_every_private_module_level_name_is_read_in_its_module():
    """A private module-level name is read in the module that defines it,
    so a helper that a change leaves behind fails here."""
    unread = [
        f"{name}.{d}"
        for name, tree in SOURCES.items()
        for d in _module_level_names(tree)
        if d.startswith("_") and not d.startswith("__") and d not in _read_names(tree)
    ]
    assert unread == []


def test_no_module_reads_another_modules_private_name():
    """What a module keeps private stays in it: no `from .x import _name`,
    and no `x._name` on a package module bound by `from . import x`."""
    found = []
    for name, tree in SOURCES.items():
        modules = {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level and node.module is None
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{name}.py:{node.lineno}: {a.name}" for a in node.names if a.name[0] == "_"]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
            ):
                found.append(f"{name}.py:{node.lineno}: {node.value.id}.{node.attr}")
    assert found == []


def test_the_package_defines_three_exception_classes():
    """A data error is a `ValueError`; only the two frame-skip signals that
    `fingerprint` catches, and the CLI's config error, have classes."""
    found = {}
    for name, tree in SOURCES.items():
        namespace = vars(importlib.import_module(f"iotprint.{name}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = [eval(ast.unparse(base), namespace) for base in node.bases]
                if any(isinstance(b, type) and issubclass(b, BaseException) for b in bases):
                    found[f"{name}.{node.name}"] = bases
    assert found == {
        "cli._ConfigError": [Exception],
        "packet_model.FrameTooShort": [ValueError],
        "packet_model.TruncatedHeader": [ValueError],
    }


def test_synth_imports_only_the_packet_model():
    assert IMPORTS["synth"] == {"packet_model"}


def test_ingest_does_not_depend_on_training():
    """Reading, parsing, features and profiles reach neither `ml` nor
    `evaluation`, even through another module."""
    for name in ("packet_model", "pcap_io", "features", "fingerprint"):
        assert not _reachable(name) & {"ml", "evaluation"}, name


def test_only_documents_imports_json():
    importers = {
        name
        for name, tree in SOURCES.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "json" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json")
    }
    assert importers == {"documents"}


def test_readme_names_every_schema_the_program_writes():
    """A schema bump that leaves the README describing the old version fails here."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    schemas = [
        ml.MODEL_SCHEMA,
        fingerprint.PROFILE_SCHEMA,
        evaluation.REPORT_SCHEMA,
        cli.IDENTIFY_SCHEMA,
        cli.LABELS_SCHEMA,
        features.FEATURE_SCHEMA,
    ]
    assert [schema for schema in schemas if schema not in readme] == []

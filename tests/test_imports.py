import ast
import sys
from pathlib import Path

import delins


def test_runtime_imports_only_the_standard_library():
    # the package promises a standard-library-only runtime
    sources = sorted(Path(delins.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "delins" or top in sys.stdlib_module_names, (path.name, name)


# Public names no command, claim or benchmark task reaches, kept on purpose:
# criterion 09 reads average_degree, and the tests check the enumerators
# against the closed forms composition_count and runs_distribution.
UNREFERENCED_ON_PURPOSE = {
    "bounds.average_degree",
    "qstrings.composition_count",
    "qstrings.runs_distribution",
}


def _referenced_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_definition_is_used_outside_the_tests():
    # a public function, class or method of src/ must be referenced by name
    # from a src/ module other than __init__ or from a non-test perfbench
    # module; a definition is not a reference to itself
    package = Path(delins.__file__).parent
    sources = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    users = sources + sorted(p for p in bench.glob("*.py") if not p.name.startswith("test_"))
    referenced = set().union(*(_referenced_names(ast.parse(p.read_text())) for p in users))
    unreferenced = set()
    for path in sources:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined = {node.name: f"{path.stem}.{node.name}"}
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    defined[member.name] = f"{path.stem}.{node.name}.{member.name}"
            unreferenced |= {
                key for name, key in defined.items()
                if not name.startswith("_") and name not in referenced
            }
    assert unreferenced == UNREFERENCED_ON_PURPOSE

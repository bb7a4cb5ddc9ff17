import ast
import importlib
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
    assert unreferenced == set()



def test_every_field_is_read_outside_the_tests():
    # an annotated field of a src/ class must be read as an attribute by
    # that name in src/ or in a non-test perfbench module, as above for
    # functions; a field that only the tests read is dead weight
    package = Path(delins.__file__).parent
    sources = sorted(package.glob("*.py"))
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    users = sources + sorted(p for p in bench.glob("*.py") if not p.name.startswith("test_"))
    read = {
        node.attr
        for path in users
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = {
        f"{path.stem}.{node.name}.{field.target.id}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for field in node.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and field.target.id not in read
    }
    assert unread == set()

def test_every_exception_class_is_caught_by_name():
    # an exception class of src/ that no except clause in src/ names is a
    # refusal that no caller tells apart from its parent: raise the parent
    package = Path(delins.__file__).parent
    caught, defined = set(), set()
    for path in sorted(p for p in package.glob("*.py") if p.name != "__init__.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= _referenced_names(node.type)
        module = importlib.import_module(f"delins.{path.stem}")
        defined |= {
            (path.stem, name)
            for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        }
    assert defined
    assert {f"{stem}.{name}" for stem, name in defined if name not in caught} == set()


def test_every_imported_name_is_read():
    # a stale import would count as a use above; noqa: F401 keeps one on purpose
    package = Path(delins.__file__).parent
    for path in sorted(package.glob("*.py")):
        lines = path.read_text().splitlines()
        nodes = list(ast.walk(ast.parse(path.read_text())))
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        imported = {
            alias.asname or alias.name.split(".")[0]
            for n in nodes
            if isinstance(n, (ast.Import, ast.ImportFrom))
            and getattr(n, "module", None) != "__future__"
            and "# noqa: F401" not in lines[n.lineno - 1]
            for alias in n.names
        }
        assert imported <= read, (path.name, imported - read)


def test_no_check_relies_on_assert():
    # python -O strips assert statements, so a check must raise instead
    package = Path(delins.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], (path.name, lines)

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

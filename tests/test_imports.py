import ast
import sys
from pathlib import Path

import phoenix

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "phoenix"}


def absolute_imports(path: Path) -> list[str]:
    """The top-level package of every absolute import in the module at ``path``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


def test_runtime_imports_only_numpy_beyond_the_standard_library():
    modules = sorted(Path(phoenix.__file__).parent.rglob("*.py"))
    assert len(modules) > 10
    outside = {f"{path.name}: {name}" for path in modules
               for name in absolute_imports(path) if name not in ALLOWED}
    assert outside == set()

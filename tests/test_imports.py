import ast
import sys
from pathlib import Path

import phoenix

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "phoenix"}
MODULES = sorted(Path(phoenix.__file__).parent.rglob("*.py"))


def nodes(path: Path):
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


def absolute_imports(path: Path) -> list[str]:
    """The top-level package of every absolute import in the module at ``path``."""
    names = []
    for node in nodes(path):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


def test_runtime_imports_only_numpy_beyond_the_standard_library():
    assert len(MODULES) > 10
    outside = {f"{path.name}: {name}" for path in MODULES
               for name in absolute_imports(path) if name not in ALLOWED}
    assert outside == set()


def uses_os_fork(path: Path) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == "fork"
               and isinstance(node.value, ast.Name) and node.value.id == "os"
               for node in nodes(path))


def test_only_parallel_forks():
    forking = {path.name for path in MODULES
               if "multiprocessing" in absolute_imports(path) or uses_os_fork(path)}
    assert forking == {"parallel.py"}

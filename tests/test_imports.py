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


def test_only_parallel_pickles():
    pickling = {path.name for path in MODULES
                if {"pickle", "copyreg"} & set(absolute_imports(path))}
    assert pickling == {"parallel.py"}


def defined_names(statement: ast.stmt) -> list[str]:
    """The module-level names that ``statement`` defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = (statement.targets if isinstance(statement, ast.Assign)
               else [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def referenced_names(statement: ast.stmt) -> set[str]:
    """Every name that ``statement`` reads, as a variable, an attribute or an import."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_private_module_name_is_used():
    # a single-underscore name at module level is used by some statement of
    # the package other than its own definition, so none is left behind
    private, used = set(), set()
    for path in MODULES:
        for statement in ast.parse(path.read_text(), filename=str(path)).body:
            own = {name for name in defined_names(statement)
                   if name.startswith("_") and not name.startswith("__")}
            private |= {(path.name, name) for name in own}
            used |= referenced_names(statement) - own
    assert {f"{module}: {name}" for module, name in private if name not in used} == set()

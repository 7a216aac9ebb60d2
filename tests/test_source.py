"""Source hygiene of the package: every module-level import is used, and
no module imports a thread or process module at any level.

An import kept on purpose for another module's sake (a name that a
benchmark or a re-export reads) carries `# noqa: F401` on its statement.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wwm"
MODULES = sorted(SRC.glob("*.py"))
THREAD_MODULES = {"threading", "concurrent", "multiprocessing"}


def unused_imports(source):
    """Names bound by module-level imports of `source` that nothing reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(name for name in bound if name not in read)


def thread_imports(source):
    """Thread or process modules that any import in `source` names, in
    functions and classes too."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(found & THREAD_MODULES)


def test_modules_are_found():
    assert {"transfer.py", "weakvalue.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_caught():
    source = (SRC / "weakvalue.py").read_text(encoding="utf-8")
    grid_import = "from .grid import BIN_SPAN, EMPTY_BIN_MASS, SQRT_2PI,"
    assert grid_import in source
    stale = source.replace(grid_import, "from .grid import BIN_SPAN, EMPTY_BIN_MASS, GridSpec, SQRT_2PI,")
    stale = stale.replace("from .transfer import (\n", "from .transfer import (\n    tail_split,\n")
    assert unused_imports(stale) == ["GridSpec", "tail_split"]
    marked = stale.replace("    tail_split,\n", "    tail_split,  # noqa: F401\n")
    assert unused_imports(marked) == ["GridSpec"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_threads(path):
    assert thread_imports(path.read_text(encoding="utf-8")) == []


def test_a_thread_import_in_a_function_is_caught():
    source = (SRC / "weakvalue.py").read_text(encoding="utf-8")
    assert thread_imports(source) == []
    nested = source + (
        "\n\ndef pool(fn, items):\n"
        "    from concurrent.futures import ThreadPoolExecutor\n"
        "    import multiprocessing.pool as mp, threading\n"
    )
    assert thread_imports(nested) == ["concurrent", "multiprocessing", "threading"]

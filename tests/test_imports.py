"""Every module reads each name it imports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p.relative_to(ROOT)
                 for top in ("src", "tests", "demos", "tools")
                 for p in (ROOT / top).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads, except those on a
    line marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}  # name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    return sorted(
        f"{name} (line {line})" for name, line in bound.items()
        if name not in read and "# noqa: F401" not in lines[line - 1])


def test_the_scan_sees_an_unused_import_and_honours_noqa():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == [
        "os (line 1)"]
    assert unused_imports("from a import (b,\n    c)\nc()\n") == ["b (line 1)"]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("from a import b  # noqa: F401\n") == []


@pytest.mark.parametrize("path", MODULES, ids=str)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports((ROOT / path).read_text()) == []

"""Every name a ``thermoformal`` module imports is read in that module.

The exceptions are the names the benchmark's layer tracer
(``benchmarks/layertrace.py``) rebinds in that module, and the package's
``__init__``, whose imports are its exports.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "thermoformal").glob("*.py")
                 if p.name != "__init__.py")


@pytest.fixture(scope="module")
def rebound():
    spec = importlib.util.spec_from_file_location(
        "layertrace", ROOT / "benchmarks" / "layertrace.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {(module, name) for module, name, _, _ in mod._REBIND}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_read(path, rebound):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = {name for name in imported - read if (path.stem, name) not in rebound}
    assert sorted(unread) == []

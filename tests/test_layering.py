"""Import layering: the core never depends on the packages built on it."""

import ast
from pathlib import Path

import repro

CORE = ("cruz", "zap", "simos", "tcp", "net", "sim")
UPPER = ("repro.lsf", "repro.serve", "repro.bench", "repro.apps")


def imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_core_packages_do_not_import_the_layers_above_them():
    root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root)} imports {module}"
        for package in CORE
        for path in sorted((root / package).rglob("*.py"))
        for module in imported_modules(path)
        if module.startswith(UPPER)]
    assert not offenders, offenders

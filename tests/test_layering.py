"""Import layering and reachability.

Layering: the core never depends on the packages built on it.

Reachability: every module under ``src/repro`` is reached by a path
someone runs — ``repro.cli``, ``repro.__main__``, an example, the perf
ledger or the README Quickstart — walking ``ast`` imports (function-local
ones included). A name imported from a package resolves to the submodule
that defines it, so a package ``__init__`` re-export never makes a module
look reached, and an ``__init__`` may only import names that a root or a
``src/repro`` module imports through it. A module kept without such a
path is in ``ALLOWLIST`` with the decision that keeps it.
"""

import ast
from pathlib import Path

import pytest

import repro

from tests.test_examples import readme_quickstart

CORE = ("repro.cruz", "repro.zap", "repro.simos", "repro.tcp", "repro.net",
        "repro.sim")
UPPER = ("repro.lsf", "repro.serve", "repro.bench", "repro.apps")

SRC = Path(repro.__file__).parent
REPO = SRC.parent.parent

ALLOWLIST = {
    "repro.cruz.consistency":
        "the §5.1 invariant checked over a whole image set; ROADMAP items "
        "2 and 9 (the TCP state machine and `repro image cut`) give it "
        "callers",
    "repro.net.capture":
        "the tcpdump-style link tap documented in docs/OBSERVABILITY.md; "
        "tests/test_fabric_equivalence.py diffs the two fabrics through it",
    "repro.apps.dhcp_client":
        "§4.2: a pod's own MAC identity keeps its DHCP lease across "
        "migration (the PAPER.md substitution; tests/test_dhcp_in_pod.py)",
}


class ImportGraph:
    """The modules of one package tree and the imports between them."""

    def __init__(self, package_dir: Path):
        self.modules = {}
        for path in sorted(package_dir.rglob("*.py")):
            parts = path.relative_to(package_dir.parent).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            self.modules[".".join(parts)] = path
        #: (package, name) pairs some user imported through the package.
        self.through = set()

    def is_package(self, module: str) -> bool:
        return self.modules[module].name == "__init__.py"

    def imports(self, source: str, module: str = ""):
        """(module, name) per imported name; name is None for ``import``."""
        package = module if module and self.is_package(module) \
            else module.rpartition(".")[0]
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name, None
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = package.split(".")
                    anchor = anchor[:len(anchor) - node.level + 1]
                    base = ".".join(anchor + ([base] if base else []))
                for alias in node.names:
                    yield base, alias.name

    def exports(self, package: str):
        """name -> (module, name) for every import in ``package``'s
        ``__init__``."""
        source = self.modules[package].read_text()
        bound = {}
        for module, name in self.imports(source, package):
            if name is None:
                bound[module.split(".")[0]] = (module, None)
            else:
                bound[name] = (module, name)
        return bound

    def resolve(self, module: str, name):
        """The module that defines ``module``'s ``name``, or None."""
        if name is not None and f"{module}.{name}" in self.modules:
            return f"{module}.{name}"
        if module not in self.modules:
            return None
        if name is None or not self.is_package(module):
            return module
        origin = self.exports(module).get(name)
        if origin is None:
            return None  # defined by the __init__ itself
        self.through.add((module, name))
        return self.resolve(*origin)

    def reach(self, sources, start=()):
        """Every module reached from ``start`` and the root ``sources``."""
        reached, todo = set(), list(start)
        for source in sources:
            todo.extend(self.resolve(*pair) for pair in self.imports(source))
        while todo:
            module = todo.pop()
            if module is None or module in reached:
                continue
            reached.add(module)
            if not self.is_package(module):
                todo.extend(self.resolve(*pair) for pair in self.imports(
                    self.modules[module].read_text(), module))
        return reached


def test_core_packages_do_not_import_the_layers_above_them():
    graph = ImportGraph(SRC)
    offenders = [
        f"{module} imports {imported}"
        for module, path in graph.modules.items() if module.startswith(CORE)
        for imported, _name in graph.imports(path.read_text(), module)
        if imported.startswith(UPPER)]
    assert not offenders, offenders


def reachability_violations(package_dir: Path, start, sources, allowlist):
    graph = ImportGraph(package_dir)
    reached = graph.reach(sources, start)
    problems = [f"stale allowlist: {module}"
                for module in sorted(allowlist)
                if module in reached or module not in graph.modules]
    reached |= graph.reach((), set(allowlist) & set(graph.modules))
    problems += [f"orphan: {module}" for module in sorted(graph.modules)
                 if module not in reached and not graph.is_package(module)]
    for module, path in graph.modules.items():  # users that are not roots
        if not graph.is_package(module):
            for pair in graph.imports(path.read_text(), module):
                graph.resolve(*pair)
    problems += [f"unused re-export: {package}.{name}"
                 for package in sorted(graph.modules)
                 if graph.is_package(package)
                 for name in sorted(graph.exports(package))
                 if (package, name) not in graph.through]
    return problems


def repo_roots():
    paths = sorted(REPO.glob("examples/*.py")) \
        + sorted(REPO.glob("benchmarks/perf/*.py"))
    return [path.read_text() for path in paths] + [readme_quickstart()]


def test_every_module_is_reached_by_a_path_someone_runs():
    problems = reachability_violations(
        SRC, ["repro.cli", "repro.__main__"], repo_roots(), ALLOWLIST)
    assert problems == []


CLEAN_TREE = {
    "__init__.py": "from pkg.core import Engine\n",
    "core.py": "from pkg.util import helper\n\nclass Engine:\n    pass\n",
    "util.py": "def helper():\n    pass\n",
    "kept.py": "from pkg.util import helper\n",
    "sub/__init__.py": "",
    "sub/leaf.py": "def run():\n    from ..tail import end\n",
    "tail.py": "end = None\n",
}
ROOT = "from pkg import Engine\nimport pkg.sub.leaf\n"


@pytest.mark.parametrize("planted, allowlist, expected", [
    ({}, {}, []),
    ({"orphan.py": "import pkg.util\n"}, {}, ["orphan: pkg.orphan"]),
    ({"hidden.py": "class Hidden:\n    pass\n",
      "__init__.py": CLEAN_TREE["__init__.py"]
      + "from pkg.hidden import Hidden\n"},
     {}, ["orphan: pkg.hidden", "unused re-export: pkg.Hidden"]),
    ({}, {"pkg.util": "reached through pkg.core"},
     ["stale allowlist: pkg.util"]),
    ({"__init__.py": CLEAN_TREE["__init__.py"]
      + "from pkg.util import helper\n"},
     {}, ["unused re-export: pkg.helper"]),
], ids=["clean", "orphan", "reached-only-by-reexport", "stale-allowlist",
        "unused-reexport"])
def test_the_rule_fails_on_each_planted_violation(
        tmp_path, planted, allowlist, expected):
    for name, text in {**CLEAN_TREE, **planted}.items():
        path = tmp_path / "pkg" / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
    problems = reachability_violations(
        tmp_path / "pkg", [], [ROOT], {"pkg.kept": "kept", **allowlist})
    assert problems == expected

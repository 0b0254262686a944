"""Import layering, reachability, options and dependencies.

Layering: the core never depends on the packages built on it.

Reachability: every module under ``src/repro`` is reached by a path
someone runs — ``repro.cli``, ``repro.__main__``, an example, the perf
ledger or the README Quickstart — walking ``ast`` imports (function-local
ones included). A name imported from a package resolves to the submodule
that defines it, so a package ``__init__`` re-export never makes a module
look reached, and an ``__init__`` may only import names that a root or a
``src/repro`` module imports through it. A module kept without such a
path is in ``ALLOWLIST`` with the decision that keeps it.

Options: every keyword-default parameter under ``src/repro`` is passed a
value other than its default by some call site in ``src/``, ``tests/``,
``benchmarks/perf``, ``examples/`` or the documented snippets (see
:class:`OptionIndex`). A parameter kept without one is in
``OPTION_ALLOWLIST`` with the decision that keeps it. A ``def`` outside
the package is a forwarder: its parameters are not options, and a
keyword it hands on through ``**kwargs`` is credited to its callee.

Definitions: every ``def`` and ``class`` name under ``src/repro`` is
an identifier somewhere besides its own definitions: in ``src/``,
``tests/``, ``benchmarks/perf``, ``examples/`` or the README. A name
spelled only in a comment or a docstring does not count. Dunders and the
names a dispatcher builds from a prefix (``DISPATCH_PREFIXES``) are
exempt.

Dependencies: the third-party imports of ``src/``, ``tests/``,
``benchmarks/perf`` and ``examples/`` are exactly what ``pyproject.toml``
declares, and every CI job that runs Python installs that set first.
"""

import ast
import re
import sys
import tokenize
import tomllib
from collections import Counter
from pathlib import Path

import pytest

import repro

from tests.test_examples import package_quick_tour, readme_quickstart

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


# -- Options: a parameter is a value some caller sets ----------------------

#: ``module:qualname.param`` -> the decision that keeps a keyword-default
#: parameter that no call site sets to anything but its default.
OPTION_ALLOWLIST = {
    "repro.cruz.consistency:check_app_checkpoint.version":
        "the module is kept by the reachability ALLOWLIST until ROADMAP "
        "items 2 and 9 call it; `repro image cut EPOCH` names a version",
    "repro.net.capture:PacketCapture.__init__.max_frames":
        "the module is kept by the reachability ALLOWLIST as the "
        "documented link tap; a long capture bounds its ring with it",
}

#: The value of a ``*sequence``/``**mapping`` spread, and the keyword a
#: ``**mapping`` of unknown content binds: it matches every parameter.
UNKNOWN = None


def _base_names(node):
    return [getattr(base, "id", getattr(base, "attr", ""))
            for base in node.bases]


def _mappings(scope):
    """name -> [(key, value node)] for each dict built in ``scope`` from
    string keys only (``dict(k=v)``, ``{"k": v}``, ``d["k"] = v``);
    None for a name whose content is open."""
    found = {}
    for node in ast.walk(scope):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target, value = node.targets[0], node.value
        if isinstance(target, ast.Name):
            pairs = None
            if isinstance(value, ast.Dict) and all(
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str) for key in value.keys):
                pairs = [(key.value, item)
                         for key, item in zip(value.keys, value.values)]
            elif isinstance(value, ast.Call) \
                    and getattr(value.func, "id", "") == "dict" \
                    and not value.args and all(k.arg for k in value.keywords):
                pairs = [(k.arg, k.value) for k in value.keywords]
            found[target.id] = None if target.id in found else pairs
        elif isinstance(target, ast.Subscript) \
                and found.get(getattr(target.value, "id", "")) is not None:
            key = target.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                found[target.value.id].append((key.value, value))
            else:
                found[target.value.id] = None
    return found


class Signature:
    """One ``def``'s parameters, as a call site binds them."""

    def __init__(self, module, qualname, node, owner):
        self.module, self.qualname, self.node = module, qualname, node
        #: the ClassDef a method belongs to, or None
        self.owner = owner
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        static = any(getattr(d, "id", "") == "staticmethod"
                     for d in node.decorator_list)
        #: what a call's positional arguments bind, in order
        self.bound = positional[1:] if owner and not static else positional
        first = len(positional) - len(args.defaults)
        #: keyword-default parameter -> ``ast.dump`` of its default
        self.defaults = {name: ast.dump(default) for name, default
                         in zip(positional[first:], args.defaults)}
        self.defaults.update((a.arg, ast.dump(d)) for a, d
                             in zip(args.kwonlyargs, args.kw_defaults) if d)
        self.names = set(positional) | {a.arg for a in args.kwonlyargs}
        self.kwargs = args.kwarg.arg if args.kwarg else None

    def key(self, param: str) -> str:
        return f"{self.module}:{self.qualname}.{param}"


class OptionIndex:
    """The keyword-default parameters of a package tree, and which of them
    some call site sets to a value other than its default.

    A call resolves to its callees by name: ``f(...)`` and ``x.f(...)``
    to every ``def f``; ``C(...)``, ``cls(...)``, ``type(self)(...)`` and
    ``super().__init__(...)`` to the ``__init__`` the class inherits. A
    value is its ``ast``, so a caller that passes the default's own
    expression sets nothing. A keyword a callee takes into ``**kwargs``
    and hands on with ``g(**kwargs)`` is credited to ``g``, and so is each
    key of a ``**mapping`` built in the calling function (``_mappings``).
    A call that spreads a ``*sequence`` or a ``**mapping`` of unknown
    content credits every parameter it could reach."""

    def __init__(self, package_dir: Path):
        self.signatures, self.by_name, self.classes = [], {}, {}
        #: (module, line) -> the signature defined there
        self.at = {}
        #: module -> its source file
        self.modules = {}
        for path in sorted(package_dir.rglob("*.py")):
            parts = path.relative_to(package_dir.parent).with_suffix("").parts
            module = ".".join(parts[:-1] if parts[-1] == "__init__"
                              else parts)
            self.modules[module] = path
            self._collect(ast.parse(path.read_text()), module, "", None)
        self.credited = set()
        #: signature -> {keyword: {value}} its ``**kwargs`` received
        self.received = {}
        #: (caller, callee) per ``callee(**kwargs)`` inside ``caller``
        self.forwards = []

    def _collect(self, tree, module, prefix, owner):
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, ast.ClassDef):
                self.classes.setdefault(node.name, []).append(node)
                self._collect(node, module, f"{prefix}{node.name}.", node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                signature = Signature(module, prefix + node.name, node, owner)
                self.signatures.append(signature)
                self.at[module, node.lineno] = signature
                self.by_name.setdefault(node.name, []).append(signature)
                self._collect(node, module, f"{prefix}{node.name}.", None)
            else:
                self._collect(node, module, prefix, owner)

    def options(self):
        """The package's parameters; a forwarder's are not options."""
        return [signature.key(param) for signature in self.signatures
                if signature.module in self.modules
                for param in signature.defaults]

    def _init(self, names, seen=()):
        """The ``__init__`` signatures that classes named ``names`` run."""
        found = []
        for name in names:
            for node in self.classes.get(name, ()):
                own = [s for s in self.by_name.get("__init__", ())
                       if s.owner is node]
                found += own or self._init(
                    [b for b in _base_names(node) if b not in seen],
                    (*seen, name))
        return found

    def _callees(self, func, cls):
        name = getattr(func, "id", None)
        if name is not None:
            if name == "cls" and cls is not None:
                return self._init([cls.name])
            if name in self.classes:
                return self._init([name])
            return [s for s in self.by_name.get(name, ()) if s.owner is None]
        if isinstance(func, ast.Call):  # type(self)(...)
            if getattr(func.func, "id", "") == "type" and cls is not None:
                return self._init([cls.name])
            return []
        if not isinstance(func, ast.Attribute):
            return []
        if func.attr == "__init__":  # super().__init__(...)
            return self._init(_base_names(cls)) if cls is not None else []
        if func.attr in self.classes:
            return self._init([func.attr])
        return self.by_name.get(func.attr, [])

    def _credit(self, signature, param, value):
        default = signature.defaults.get(param)
        if default is not None and value != default:
            self.credited.add(signature.key(param))

    def _receive(self, signature, name, value):
        """Bind keyword ``name`` (UNKNOWN: any keyword) to ``value``."""
        if name is UNKNOWN:
            for param in signature.defaults:
                self._credit(signature, param, UNKNOWN)
        elif name in signature.names:
            self._credit(signature, name, value)
            return
        if signature.kwargs:
            self.received.setdefault(signature, {}).setdefault(
                name, set()).add(value)

    def _bind(self, call, callee, caller, mappings):
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                for param in callee.bound[index:]:
                    self._credit(callee, param, UNKNOWN)
                break
            if index < len(callee.bound):
                self._credit(callee, callee.bound[index], ast.dump(arg))
        for keyword in call.keywords:
            spread = getattr(keyword.value, "id", "")
            if keyword.arg is not None:
                self._receive(callee, keyword.arg, ast.dump(keyword.value))
            elif caller is not None and spread == caller.kwargs:
                self.forwards.append((caller, callee))
            elif mappings.get(spread):
                for name, value in mappings[spread]:
                    self._receive(callee, name, ast.dump(value))
            else:
                self._receive(callee, UNKNOWN, UNKNOWN)

    def forwarders(self, source: str, module: str):
        """Index the ``def``s of a source outside the package as
        forwarders: a helper's ``make(n, **kwargs): return
        Cluster(n, **kwargs)`` then hands on only the keywords its own
        callers pass."""
        self._collect(ast.parse(source), module, "", None)

    def scan(self, source: str, module: str = ""):
        """Credit every call in one module's (or snippet's) source."""
        tree = ast.parse(source)
        self._visit(tree, module, None, None, _mappings(tree))

    def _visit(self, tree, module, caller, cls, mappings):
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, ast.ClassDef):
                self._visit(node, module, None, node, mappings)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._visit(node, module, self.at.get((module, node.lineno)),
                            cls, _mappings(node))
            else:
                if isinstance(node, ast.Call):
                    for callee in self._callees(node.func, cls):
                        self._bind(node, callee, caller, mappings)
                self._visit(node, module, caller, cls, mappings)

    def _size(self):
        return len(self.credited) + sum(
            len(values) for got in self.received.values()
            for values in got.values())

    def unset(self):
        """The parameters no call site sets, forwarding followed."""
        size = None
        while size != self._size():
            size = self._size()
            for caller, callee in self.forwards:
                for name, values in list(self.received.get(caller,
                                                           {}).items()):
                    for value in list(values):
                        self._receive(callee, name, value)
        return [key for key in self.options() if key not in self.credited]


def option_violations(package_dir: Path, sources, allowlist):
    index = OptionIndex(package_dir)
    for module, path in index.modules.items():
        index.scan(path.read_text(), module)
    named = {f"<source {number}>": source
             for number, source in enumerate(sources)}
    for module, source in named.items():
        index.forwarders(source, module)
    for module, source in named.items():
        index.scan(source, module)
    unset = index.unset()
    return [f"stale allowlist: {key}" for key in sorted(allowlist)
            if key not in unset] + \
        [f"never set: {key}" for key in unset if key not in allowlist]


def test_every_option_is_set_by_a_caller():
    paths = [path for tree in ("tests", "benchmarks/perf", "examples")
             for path in sorted((REPO / tree).rglob("*.py"))]
    sources = [path.read_text() for path in paths] \
        + [readme_quickstart(), package_quick_tour()]
    assert option_violations(SRC, sources, OPTION_ALLOWLIST) == []


OPTION_TREE = {
    "__init__.py": "",
    "core.py": (
        "class Engine:\n"
        "    def __init__(self, size=1, mode='a'):\n"
        "        self.size, self.mode = size, mode\n"
        "\n"
        "    def run(self, steps=10):\n"
        "        return steps\n"
        "\n"
        "\n"
        "class Turbo(Engine):\n"
        "    def __init__(self, boost=2, **kwargs):\n"
        "        super().__init__(**kwargs)\n"
        "        self.boost = boost\n"
        "\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls(boost=3)\n"
        "\n"
        "\n"
        "def start(**options):\n"
        "    return Engine(**options)\n"),
}
OPTION_ROOT = ("from pkg.core import Engine, Turbo, start\n"
               "Engine(2).run(steps=5)\n"
               "Turbo.make()\n"
               "Turbo(size=4)\n"
               "settings = dict(mode='b')\n"
               "start(**settings)\n")


#: A test helper outside the package that forwards its ``**kwargs``.
BOX = ("class Box:\n"
       "    def __init__(self, n, lid=False):\n        self.lid = lid\n")
HELPER = ("from pkg.box import Box\n\n\n"
          "def make_box(n, **kwargs):\n    return Box(n, **kwargs)\n\n\n")


@pytest.mark.parametrize("planted, root, allowlist, expected", [
    ({}, "", {}, []),
    ({"extra.py": "def helper(flag=False):\n    return flag\n\n\n"
                  "helper()\n"},
     "", {}, ["never set: pkg.extra:helper.flag"]),
    ({"extra.py": "def helper(flag=False):\n    return flag\n\n\n"
                  "helper(flag=False)\n"},
     "", {}, ["never set: pkg.extra:helper.flag"]),
    ({"extra.py": "def inner(flag=False, **rest):\n    return flag\n\n\n"
                  "def outer(**kwargs):\n    return inner(**kwargs)\n\n\n"
                  "outer(level=1)\n"},
     "", {}, ["never set: pkg.extra:inner.flag"]),
    ({"box.py": BOX}, HELPER + "make_box(1)\n",
     {}, ["never set: pkg.box:Box.__init__.lid"]),
    ({"box.py": BOX}, HELPER + "make_box(1, lid=True)\n", {}, []),
    ({}, "", {"pkg.core:Engine.run.steps": "set by the root"},
     ["stale allowlist: pkg.core:Engine.run.steps"]),
], ids=["clean", "never-set", "set-only-to-its-default",
        "forwarded-without-it", "forwarded-through-a-helper",
        "set-through-a-helper", "stale-allowlist"])
def test_the_option_rule_fails_on_each_planted_violation(
        tmp_path, planted, root, allowlist, expected):
    for name, text in {**OPTION_TREE, **planted}.items():
        path = tmp_path / "pkg" / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
    assert option_violations(tmp_path / "pkg", [OPTION_ROOT, root],
                             allowlist) == expected


# -- Definitions: every def and class is named somewhere else -------------

#: The trees (and, beside them, the README) where a definition is named.
NAMING_TREES = ("src", "tests", "benchmarks/perf", "examples")
#: Prefixes of the names a dispatcher builds at run time
#: (``getattr(self, f"_sys_{name}")`` and the like), which no caller spells.
DISPATCH_PREFIXES = ("_sys_", "_rw_", "_tr_", "phase_", "visit_")


def identifiers(path: Path):
    """Every identifier in ``path``: a Python file's name tokens (no
    comment, no string), any other file's words."""
    if path.suffix != ".py":
        return re.findall(r"[A-Za-z_]\w*", path.read_text())
    with path.open("rb") as handle:
        return [token.string for token in tokenize.tokenize(handle.readline)
                if token.type == tokenize.NAME]


def unnamed_definitions(root: Path, package: str):
    """``path:line: name`` of every ``def``/``class`` under
    ``src/<package>`` whose name occurs nowhere but at its definitions."""
    defined, where = Counter(), {}
    for path in sorted((root / "src" / package).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined[node.name] += 1
                where.setdefault(node.name, f"{path.relative_to(root)}:"
                                            f"{node.lineno}: {node.name}")
    named = Counter(identifiers(root / "README.md"))
    for tree in NAMING_TREES:
        for path in sorted((root / tree).rglob("*.py")):
            named.update(identifiers(path))
    return [where[name] for name in sorted(defined, key=where.get)
            if named[name] <= defined[name]
            and not (name.startswith("__") and name.endswith("__"))
            and not name.startswith(DISPATCH_PREFIXES)]


def test_every_definition_is_named_elsewhere():
    assert unnamed_definitions(REPO, "repro") == []


NAMING_TREE = {
    "README.md": "Call `pkg.core.documented()` to begin.\n",
    "src/pkg/__init__.py": "",
    "src/pkg/core.py": (
        "class Engine:\n"
        "    def __repr__(self):\n        return 'Engine'\n\n"
        "    def _sys_read(self):\n        return 0\n\n"
        "    def run(self):\n        return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def documented():\n    return 2\n"),
    "tests/test_core.py": "from pkg.core import Engine\n\nEngine().run()\n",
}
ORPHAN = {"src/pkg/extra.py": "def orphan():\n    pass\n"}


@pytest.mark.parametrize("planted, expected", [
    ({}, []),
    (ORPHAN, ["src/pkg/extra.py:1: orphan"]),
    ({**ORPHAN, "tests/test_extra.py": "# orphan() in a comment\n"
                                       "'''orphan() in a string'''\n"},
     ["src/pkg/extra.py:1: orphan"]),
    ({**ORPHAN, "src/pkg/more.py": ORPHAN["src/pkg/extra.py"]},
     ["src/pkg/extra.py:1: orphan"]),
    ({**ORPHAN, "examples/use.py": "from pkg.extra import orphan\n"}, []),
], ids=["clean", "unnamed", "named-only-in-a-comment-or-string",
        "defined-twice-named-nowhere", "named-in-an-example"])
def test_the_definition_rule_fails_on_each_planted_violation(
        tmp_path, planted, expected):
    for name, text in {**NAMING_TREE, **planted}.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert unnamed_definitions(tmp_path, "pkg") == expected


# -- Dependencies: what the code imports is what every CI job installs -----

#: The trees whose imports a clean runner must satisfy.
IMPORTING_TREES = ("src", "tests", "benchmarks/perf", "examples")
WORKFLOW = Path(".github/workflows/ci.yml")
INSTALL = "python -m pip install "


def third_party_imports(root: Path, first_party):
    """top-level module -> the first file importing it, for every absolute
    import under ``IMPORTING_TREES`` that is neither stdlib, a package in
    ``first_party``, nor a module beside its importer (a file of these
    trees: the perf ledger's ``metrics``, an example)."""
    paths = [path for tree in IMPORTING_TREES
             for path in sorted((root / tree).rglob("*.py"))]
    local = set(first_party) | {path.stem for path in paths}
    found = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top not in local:
                    found.setdefault(top, path.relative_to(root).as_posix())
    return found


def declared_dependencies(root: Path):
    """``dependencies`` and the ``test`` extra of ``pyproject.toml``."""
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    return {re.match(r"[\w.-]+", spec).group() for spec in
            project["dependencies"] + project["optional-dependencies"]["test"]}


def workflow_jobs(text: str):
    """job id -> the ``run:`` command of each of its steps, in order.

    A line scan of the ``jobs:`` block: a YAML library is not a declared
    dependency, and the workflow's shape is fixed (a job id at two
    spaces, a step opening with ``- ``, ``run:`` inline or as a ``|``
    block indented under its key). Comment lines are skipped."""
    jobs, steps, in_jobs, block = {}, None, False, None
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indent = len(line) - len(line.lstrip())
        if block is not None and indent > block:
            steps[-1] += stripped + "\n"
            continue
        block = None
        if indent == 0:
            in_jobs = stripped == "jobs:"
        elif in_jobs and indent == 2:
            steps = jobs.setdefault(stripped.rstrip(":"), [])
        elif in_jobs and steps is not None:
            key = stripped.removeprefix("- ")
            if key.startswith("run:"):
                command = key.removeprefix("run:").strip()
                if command == "|":  # the block is indented under the key
                    block, command = indent + len(stripped) - len(key), ""
                steps.append(command)
    return jobs


def dependency_violations(root: Path, first_party):
    declared = declared_dependencies(root)
    imported = third_party_imports(root, first_party)
    problems = [f"undeclared import: {name} ({imported[name]})"
                for name in sorted(set(imported) - declared)]
    problems += [f"declared, never imported: {name}"
                 for name in sorted(declared - set(imported))]
    wanted = " ".join(sorted(declared))
    for job, commands in workflow_jobs((root / WORKFLOW).read_text()).items():
        python = [command for command in commands
                  if re.search(r"\bpython3?\b", command)]
        if not python:
            continue
        installs = [command for command in python
                    if command.startswith(INSTALL)]
        if not installs:
            problems.append(f"{job}: runs python with no install step")
            continue
        if python[0] not in installs:
            problems.append(f"{job}: runs python before its install step")
        if len(installs) > 1:
            problems.append(f"{job}: {len(installs)} install steps")
        got = " ".join(sorted(installs[0].removeprefix(INSTALL).split()))
        if got != wanted:
            problems.append(f"{job}: installs {got}; pyproject declares "
                            f"{wanted}")
    return problems


def test_imports_pyproject_and_the_workflow_install_agree():
    assert dependency_violations(REPO, ("repro", "tests")) == []


DEPENDENCY_TREE = {
    "pyproject.toml": ('[project]\ndependencies = ["numpy"]\n\n'
                       '[project.optional-dependencies]\n'
                       'test = ["pytest"]\n'),
    "src/pkg/__init__.py": "import numpy\nfrom . import core\n",
    "src/pkg/core.py": "import json\nfrom pkg import sub\n",
    "tests/test_core.py": "import pytest\nimport helpers\nimport pkg.core\n",
    "tests/helpers.py": "from tests.test_core import pytest\n",
    "benchmarks/perf/run.py": "import metrics\n",
    "benchmarks/perf/metrics.py": "import os.path\n",
    "examples/demo.py": "import pkg\n",
}
JOBS = {
    "tests": ["- run: python -m pip install pytest numpy",
              "- run: python -m pytest -x -q"],
    "bench": ["- run: python -m pip install numpy pytest",
              "- name: the suite as one JSON object",
              "  run: |",
              "    python -m pkg bench --json \\",
              "      | python -c \"import json,sys; json.load(sys.stdin)\""],
    "docs": ["- run: echo done"],
}


def render_workflow(jobs):
    lines = ["name: ci", "", "jobs:"]
    for job, steps in jobs.items():
        lines += [f"  {job}:", "    runs-on: ubuntu-latest", "    steps:",
                  "      - uses: actions/setup-python@v5",
                  "        # a comment"]
        lines += [f"      {step}" for step in steps]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("planted, jobs, expected", [
    ({}, {}, []),
    ({"src/pkg/plot.py": "import matplotlib.pyplot\n"}, {},
     ["undeclared import: matplotlib (src/pkg/plot.py)"]),
    ({"pyproject.toml": DEPENDENCY_TREE["pyproject.toml"].replace(
        '"numpy"', '"numpy", "requests>=2"')}, {},
     ["declared, never imported: requests",
      "tests: installs numpy pytest; pyproject declares numpy pytest "
      "requests",
      "bench: installs numpy pytest; pyproject declares numpy pytest "
      "requests"]),
    ({}, {"lint": ["- run: python -m pkg lint"]},
     ["lint: runs python with no install step"]),
    ({}, {"bench": JOBS["bench"][1:] + JOBS["bench"][:1]},
     ["bench: runs python before its install step"]),
    ({}, {"tests": ["- run: python -m pip install pytest",
                    "- run: python -m pytest -x -q"]},
     ["tests: installs pytest; pyproject declares numpy pytest"]),
], ids=["clean", "undeclared-import", "declared-never-imported",
        "job-without-install", "install-after-python",
        "install-of-the-wrong-set"])
def test_the_dependency_rule_fails_on_each_planted_violation(
        tmp_path, planted, jobs, expected):
    tree = {**DEPENDENCY_TREE, **planted,
            str(WORKFLOW): render_workflow({**JOBS, **jobs})}
    for name, text in tree.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert dependency_violations(tmp_path, ("pkg", "tests")) == expected

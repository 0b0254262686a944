"""``repro lint``: AST-based determinism lint with repo-specific rules.

The simulated stack is only trustworthy if every observable value derives
from the simulation clock and the seeded random streams, and if the
checkpoint protocol's resource discipline (netfilter rules, spans) is
visible in the source.  These rules encode that contract:

========  ==========================================================
CRZ001    wall-clock call (``time.time``/``datetime.now``/...) inside
          ``src/repro`` outside ``sim/rand.py``
CRZ002    unseeded ``random`` module use outside ``sim/rand.py``
CRZ003    swallowed exception (an ``except:`` whose body is only
          ``pass``)
CRZ004    netfilter install (``drop_all_for``) not paired with a
          ``remove_rule`` in a ``try/finally`` in the same function
CRZ005    ``spans.begin(...)`` in a function with no matching
          ``.end(...)`` call (prefer the ``spans.span`` context
          manager)
CRZ006    ``id()``-based ordering or keying (sort keys, comparisons,
          heap entries, dict subscripts/lookups) — allocation
          addresses are not deterministic
CRZ008    unbounded retry loop: a ``while True:`` that sends or
          retransmits with no pacing or budget (no timeout/sleep/
          backoff call) — a lost peer turns it into a busy storm
========  ==========================================================

Any violation can be suppressed on its line with ``# cruz: noqa`` (all
rules) or ``# cruz: noqa[CRZ003]`` (listed rules only); suppressions
should carry a reason in a neighbouring comment.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

#: Rule catalog: code -> (title, fix-hint).  docs/ANALYSIS.md carries the
#: longer rationale for each.
RULES: Dict[str, tuple] = {
    "CRZ001": (
        "wall-clock call in simulated code",
        "derive time from the simulator clock (sim.now / Trace clock); "
        "only sim/rand.py is exempt",
    ),
    "CRZ002": (
        "unseeded random source",
        "use the seeded repro.sim.rand.RandomStreams, never the global "
        "random module",
    ),
    "CRZ003": (
        "swallowed exception (except body is only 'pass')",
        "handle the error, restructure to avoid it, or suppress with "
        "# cruz: noqa[CRZ003] plus a reason comment",
    ),
    "CRZ004": (
        "netfilter install without try/finally removal",
        "pair drop_all_for with remove_rule in a finally block so rules "
        "cannot outlive a checkpoint round",
    ),
    "CRZ005": (
        "span begun but never ended in this function",
        "prefer 'with spans.span(...)'; if begin/end must be split, "
        "call .end(...) in a finally",
    ),
    "CRZ006": (
        "id()-based ordering or keying",
        "id() is an allocation address and varies run to run; order or "
        "key by a stable value (name, sequence number, attribute) "
        "instead",
    ),
    "CRZ008": (
        "unbounded retry loop (while True sends with no pacing/budget)",
        "bound the loop (for attempt in range(...)) or pace it with a "
        "timeout/sleep/backoff between sends — see "
        "protocol.RetryPolicy for the house pattern",
    ),
}

#: CRZ008: calls that put a datagram/segment on the wire.
_SEND_ATTRS = {
    "send", "send_unreliable", "sendto", "retransmit", "transmit",
    "_transmit", "broadcast",
}
#: CRZ008: calls that pace or budget a loop iteration.
_PACING_ATTRS = {"timeout", "sleep", "after", "backoff", "wait", "defer"}

#: Files exempt from the determinism source rules (CRZ001/CRZ002): the
#: one place wall-clock-free seeded randomness is implemented.
_RAND_EXEMPT_SUFFIX = "sim/rand.py"

_WALLCLOCK_TIME_ATTRS = {
    "time", "monotonic", "perf_counter", "time_ns",
    "monotonic_ns", "perf_counter_ns",
}
_WALLCLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}

_NOQA_RE = re.compile(
    r"#\s*cruz:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE)


@dataclass(frozen=True)
class LintViolation:
    """One rule hit, formatted ``path:line:col CODE title (hint)``."""

    path: str
    line: int
    col: int
    code: str

    @property
    def title(self) -> str:
        return RULES[self.code][0]

    @property
    def hint(self) -> str:
        return RULES[self.code][1]

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col} {self.code} "
                f"{self.title} ({self.hint})")


def _noqa_map(source: str) -> Dict[int, Optional[Set[str]]]:
    """line -> suppressed codes (``None`` means every rule)."""
    suppressed: Dict[int, Optional[Set[str]]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(text)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressed[lineno] = None
        else:
            suppressed[lineno] = {
                c.strip().upper() for c in codes.split(",") if c.strip()}
    return suppressed


def _is_call_to(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == name)


def _is_method_call(node: ast.AST, attr: str) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr)


def _contains(node: ast.AST, predicate) -> bool:
    return any(predicate(child) for child in ast.walk(node))


class _Scope:
    """Per-function facts the paired-resource rules aggregate over."""

    def __init__(self) -> None:
        self.drop_calls: List[ast.Call] = []
        self.has_finally_remove = False
        self.begin_calls: List[ast.Call] = []
        self.has_end_call = False


class _Linter(ast.NodeVisitor):

    def __init__(self, path: str, rand_exempt: bool) -> None:
        self.path = path
        self.rand_exempt = rand_exempt
        self.violations: List[LintViolation] = []
        self._scopes: List[_Scope] = [_Scope()]

    # -- helpers ---------------------------------------------------------

    def _flag(self, node: ast.AST, code: str) -> None:
        self.violations.append(LintViolation(
            path=self.path, line=node.lineno,
            col=node.col_offset, code=code))

    def _close_scope(self, scope: _Scope) -> None:
        if scope.drop_calls and not scope.has_finally_remove:
            for call in scope.drop_calls:
                self._flag(call, "CRZ004")
        if scope.begin_calls and not scope.has_end_call:
            for call in scope.begin_calls:
                self._flag(call, "CRZ005")

    # -- scope handling --------------------------------------------------

    def _visit_function(self, node) -> None:
        self._scopes.append(_Scope())
        self.generic_visit(node)
        self._close_scope(self._scopes.pop())

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    def visit_Try(self, node: ast.Try) -> None:
        for stmt in node.finalbody:
            if _contains(stmt, lambda n: _is_method_call(n, "remove_rule")):
                self._scopes[-1].has_finally_remove = True
        self.generic_visit(node)

    # -- CRZ008: unbounded retry/retransmit loop -------------------------

    def visit_While(self, node: ast.While) -> None:
        if isinstance(node.test, ast.Constant) and node.test.value is True:
            body = list(self._walk_loop_body(node.body))
            sends = any(self._is_send_call(n) for n in body)
            paced = any(self._is_pacing_call(n) for n in body)
            if sends and not paced:
                self._flag(node, "CRZ008")
        self.generic_visit(node)

    @staticmethod
    def _walk_loop_body(stmts: Sequence[ast.stmt]) -> Iterable[ast.AST]:
        """Walk loop statements without descending into nested defs —
        a closure's send happens on *its* schedule, not the loop's."""
        stack: List[ast.AST] = list(stmts)
        while stack:
            current = stack.pop()
            yield current
            if isinstance(current, (ast.FunctionDef,
                                    ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(current))

    @staticmethod
    def _is_send_call(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr in _SEND_ATTRS
        return isinstance(func, ast.Name) and func.id in _SEND_ATTRS

    @staticmethod
    def _is_pacing_call(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr in _PACING_ATTRS
        return isinstance(func, ast.Name) and func.id in _PACING_ATTRS

    # -- CRZ003: swallowed exception ------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if len(node.body) == 1 and isinstance(node.body[0], ast.Pass):
            self._flag(node, "CRZ003")
        self.generic_visit(node)

    # -- call-pattern rules ---------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            self._check_wallclock(node, func)
            self._check_random(node, func)
            if func.attr == "drop_all_for":
                self._scopes[-1].drop_calls.append(node)
            elif func.attr == "end":
                self._scopes[-1].has_end_call = True
            elif func.attr == "begin" and self._receiver_is_spans(func):
                self._scopes[-1].begin_calls.append(node)
            elif func.attr in ("sort", "heappush"):
                self._check_id_ordering_call(node)
        elif isinstance(func, ast.Name):
            if func.id in ("sorted", "min", "max"):
                self._check_id_ordering_call(node)
            elif func.id == "heappush":
                self._check_id_ordering_call(node)
        self.generic_visit(node)

    @staticmethod
    def _receiver_is_spans(func: ast.Attribute) -> bool:
        value = func.value
        if isinstance(value, ast.Name) and value.id == "spans":
            return True
        return isinstance(value, ast.Attribute) and value.attr == "spans"

    def _check_wallclock(self, node: ast.Call, func: ast.Attribute) -> None:
        if self.rand_exempt:
            return
        value = func.value
        if (isinstance(value, ast.Name) and value.id == "time"
                and func.attr in _WALLCLOCK_TIME_ATTRS):
            self._flag(node, "CRZ001")
            return
        if func.attr not in _WALLCLOCK_DATETIME_ATTRS:
            return
        # datetime.now() / date.today() (from datetime import ...) and
        # datetime.datetime.now() (import datetime) spellings.
        if isinstance(value, ast.Name) and value.id in ("datetime", "date"):
            self._flag(node, "CRZ001")
        elif (isinstance(value, ast.Attribute)
              and isinstance(value.value, ast.Name)
              and value.value.id == "datetime"
              and value.attr in ("datetime", "date")):
            self._flag(node, "CRZ001")

    def _check_random(self, node: ast.Call, func: ast.Attribute) -> None:
        if self.rand_exempt:
            return
        value = func.value
        if not (isinstance(value, ast.Name) and value.id == "random"):
            return
        if func.attr == "Random" and (node.args or node.keywords):
            return  # explicitly seeded generator: fine
        self._flag(node, "CRZ002")

    def _check_id_ordering_call(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            if (isinstance(keyword.value, ast.Name)
                    and keyword.value.id == "id"):
                self._flag(node, "CRZ006")
            elif _contains(keyword.value,
                           lambda n: _is_call_to(n, "id")):
                self._flag(node, "CRZ006")
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "heappush") or \
                (isinstance(node.func, ast.Name)
                 and node.func.id == "heappush"):
            for arg in node.args:
                if _contains(arg, lambda n: _is_call_to(n, "id")):
                    self._flag(node, "CRZ006")
        # Mapping lookups keyed on id(): d.get(id(x)) / d.pop(id(x)) /
        # d.setdefault(id(x), ...). The key survives in iteration order
        # and dumps, so it is ordering by another name.
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "pop", "setdefault")
                and node.args
                and _contains(node.args[0],
                              lambda n: _is_call_to(n, "id"))):
            self._flag(node, "CRZ006")

    # -- CRZ006: id() in comparisons and subscripts ----------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if _contains(node, lambda n: _is_call_to(n, "id")):
            self._flag(node, "CRZ006")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # d[id(x)] on either side of an assignment: an id()-keyed dict
        # iterates (and checkpoints) in allocation order.
        if _contains(node.slice, lambda n: _is_call_to(n, "id")):
            self._flag(node, "CRZ006")
        self.generic_visit(node)


def lint_source(source: str, path: str = "<string>") -> List[LintViolation]:
    """Lint one module's source text; returns surviving violations."""
    rand_exempt = Path(path).as_posix().endswith(_RAND_EXEMPT_SUFFIX)
    tree = ast.parse(source, filename=path)
    linter = _Linter(path=path, rand_exempt=rand_exempt)
    linter.visit(tree)
    # Flush the module-level scope (top-level code outside functions).
    linter._close_scope(linter._scopes.pop())
    suppressed = _noqa_map(source)
    kept = []
    for violation in sorted(linter.violations,
                            key=lambda v: (v.line, v.col, v.code)):
        codes = suppressed.get(violation.line, ...)
        if codes is None:           # bare noqa: everything on the line
            continue
        if codes is not ... and violation.code in codes:
            continue
        kept.append(violation)
    return kept


def default_target() -> Path:
    """The tree the self-hosting gate lints: ``src/repro`` itself."""
    import repro
    return Path(repro.__file__).parent


def iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def lint_paths(paths: Optional[Sequence] = None) -> List[LintViolation]:
    """Lint files/directories (default: the installed ``repro`` tree)."""
    targets = ([Path(p) for p in paths] if paths else [default_target()])
    violations: List[LintViolation] = []
    for file_path in iter_python_files(targets):
        source = file_path.read_text()
        violations.extend(lint_source(source, str(file_path)))
    return violations

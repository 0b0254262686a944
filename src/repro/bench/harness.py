"""Shared benchmark utilities: result records, shape reports, tables,
and the one ``--save``/``--compare`` baseline tail every suite uses."""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence


@dataclass
class Stat:
    """Mean and standard deviation of a sample, paper-style (µ ± σ)."""

    mean: float
    std: float
    n: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "Stat":
        if not values:
            return cls(float("nan"), float("nan"), 0)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        return cls(mean, math.sqrt(var), len(values))

    def scaled(self, factor: float) -> "Stat":
        return Stat(self.mean * factor, self.std * factor, self.n)

    def __str__(self) -> str:
        return f"{self.mean:.3g} ± {self.std:.2g}"


@dataclass
class ShapeCheck:
    """One named predicate of a figure's qualitative shape."""

    name: str
    ok: bool
    #: The measured quantity behind the verdict (whatever is most useful
    #: to show a human: a float, a list of means, ...).
    value: Any = None
    #: What the paper says the value should look like.
    expect: str = ""


class ShapeReport:
    """Named pass/fail checks for one benchmark's qualitative shape.

    This is the unified result convention for every ``bench`` harness:
    build with :meth:`check`, inspect with ``report["check_name"]`` and
    ``report.passed``, render with :meth:`render`, serialize with
    :meth:`to_jsonable`.
    """

    def __init__(self, title: str = ""):
        self.title = title
        self.checks: List[ShapeCheck] = []

    def check(self, name: str, ok: bool, value: Any = None,
              expect: str = "") -> bool:
        self.checks.append(ShapeCheck(name, bool(ok), value, expect))
        return ok

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def __getitem__(self, name: str) -> bool:
        for check in self.checks:
            if check.name == name:
                return check.ok
        raise KeyError(name)

    def __len__(self) -> int:
        return len(self.checks)

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [{"name": c.name, "ok": c.ok, "value": c.value,
                        "expect": c.expect} for c in self.checks],
        }

    def render(self) -> str:
        rows = []
        for c in self.checks:
            value = "" if c.value is None else (
                f"{c.value:.4g}" if isinstance(c.value, float)
                else str(c.value))
            rows.append([c.name, "PASS" if c.ok else "FAIL", value,
                         c.expect])
        verdict = "all checks pass" if self.passed else "CHECKS FAILED"
        return render_table(
            self.title or "shape checks",
            ["check", "verdict", "measured", "expected"],
            rows, note=verdict)


def _load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write_json(path: str, report: Any) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def workload_matches(report: Dict[str, Any],
                     baseline: Optional[Dict[str, Any]],
                     suite: str) -> bool:
    """The shared drift guard: baseline ratios only apply when the run's
    workload matches the committed baseline's (a reduced-scale smoke run
    is guarded by its explicit floors instead)."""
    if baseline is None:
        return False
    if baseline.get("workload") == report.get("workload"):
        return True
    print(f"{suite}: workload differs from committed baseline; "
          f"applying only the explicit floors")
    return False


def baseline_cli(*, baseline_path: str,
                 save: bool,
                 suite: str = "bench",
                 run: Callable[[], Any],
                 evaluate: Callable[[Any, Any], List[str]],
                 render: Optional[Callable[[Any, Any], List[str]]] = None,
                 load: Optional[Callable[[str], Any]] = None,
                 write: Optional[Callable[[str, Any], None]] = None,
                 require_baseline: bool = False,
                 vet_before_save: bool = False) -> int:
    """The one ``--save``/``--compare`` tail shared by every bench suite.

    ``run()`` produces the suite's report (``None`` means the run itself
    failed and already said why); ``evaluate(report, baseline)`` returns
    failure strings (empty = pass, skipped on ``--save`` unless
    ``vet_before_save`` refuses to record a failing run);
    ``render(report, baseline)`` returns human-readable lines printed
    before the verdict. ``load``/``write`` override how the baseline
    file is parsed/recorded (pretty-printed JSON by default; a writer
    may be a no-op when ``run`` produced the artifact itself).

    Exit status: 0 pass, 1 failures, 2 unreadable baseline (or missing
    when ``require_baseline``).
    """
    baseline = None
    if not save:
        if os.path.exists(baseline_path):
            try:
                baseline = (load or _load_json)(baseline_path)
            except (json.JSONDecodeError, OSError, KeyError,
                    TypeError) as exc:
                print(f"unreadable baseline {baseline_path}: {exc}",
                      file=sys.stderr)
                return 2
        elif require_baseline:
            print(f"no baseline at {baseline_path}; run with --save "
                  f"first", file=sys.stderr)
            return 2
    report = run()
    if report is None:
        return 1
    if render is not None:
        for line in render(report, baseline):
            print(line)
    failures: List[str] = []
    if not save or vet_before_save:
        failures = evaluate(report, baseline)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if save:
        (write or _write_json)(baseline_path, report)
        print(f"saved {suite} baseline to {baseline_path}")
    else:
        print(f"{suite} benchmark within tolerance")
    return 0


def render_table(title: str, headers: List[str],
                 rows: Iterable[Sequence], note: str = "") -> str:
    """A fixed-width table for benchmark output."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [f"== {title} =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if note:
        lines.append(note)
    return "\n".join(lines)


def paper_vs_measured(title: str, rows: List[tuple],
                      note: str = "") -> str:
    """Render 'quantity / paper / measured / verdict' comparison rows."""
    table_rows = []
    for quantity, paper, measured, holds in rows:
        table_rows.append([quantity, paper, measured,
                           "OK" if holds else "MISMATCH"])
    return render_table(title, ["quantity", "paper", "measured", "shape"],
                        table_rows, note=note)

"""Shared benchmark utilities: result records, shape reports, tables,
the :class:`Figure` / :class:`Suite` records every experiment declares
itself as, the EXPERIMENTS.md generator over the figure table, and the
one ``--save``/``--compare`` baseline tail."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple)


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
        rows = [[c.name, "PASS" if c.ok else "FAIL", _measured(c.value),
                 c.expect] for c in self.checks]
        verdict = "all checks pass" if self.passed else "CHECKS FAILED"
        return render_table(
            self.title or "shape checks",
            ["check", "verdict", "measured", "expected"],
            rows, note=verdict)


def _measured(value: Any) -> str:
    """A check's value as the table shows it: floats to four
    significant digits, inside sequences too."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_measured(item) for item in value) + "]"
    return str(value)


def at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type=``: an integer no smaller than ``minimum``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value

    return integer


def _no_arguments(parser: argparse.ArgumentParser) -> None:
    """A record with no flags of its own."""


@dataclass(frozen=True)
class Figure:
    """One paper experiment as a declared record: ``repro <name>`` runs
    the cluster, checks the shape the paper reports, prints or emits;
    ``repro experiments`` writes every record's section of
    EXPERIMENTS.md from the same three functions."""

    name: str
    help: str
    #: The record's heading in EXPERIMENTS.md.
    section: str
    #: What the paper reports, in its own words and numbers, with any
    #: caveat about how this reproduction differs: the prose of the
    #: record's section (the measured side is ``render`` and ``shape``).
    paper: str
    #: ``run(args)`` -> the figure's result record(s).
    run: Callable[[argparse.Namespace], Any]
    #: ``shape(result)`` -> the paper's claims as pass/fail checks.
    shape: Callable[[Any], ShapeReport]
    #: ``render(result)`` -> the lines printed above the shape table.
    render: Callable[[Any], List[str]]
    #: ``payload(result)`` -> the result's keys in the ``--json`` object.
    payload: Callable[[Any], Dict[str, Any]]
    add_arguments: Callable[[argparse.ArgumentParser], None] = \
        _no_arguments

    def run_at_paper_scale(self) -> Any:
        """Run with every flag at its default, the scale the paper
        reports and EXPERIMENTS.md records."""
        parser = argparse.ArgumentParser(add_help=False)
        self.add_arguments(parser)
        return self.run(parser.parse_args([]))


EXPERIMENTS_HEAD = """\
# EXPERIMENTS — paper vs measured

The output of `python -m repro experiments > EXPERIMENTS.md`; do not
edit it. One section per record of the figure table: what the paper
reports, then what `repro <name>` prints at paper scale. Every quantity
is simulated (time, bytes, messages) and exact for the fixed seeds, so
CI regenerates the file and fails on any difference.

The substrate is a calibrated simulator, so absolute numbers are model
outputs; what must (and does) match is the *shape*: who wins, by what
factor, and where the behaviour changes. Each `expected` column states
that shape and each `verdict` is computed from the run.
"""


def render_section(figure: Figure, result: Any) -> str:
    """One record's section of EXPERIMENTS.md."""
    return "\n".join([
        f"## {figure.section} (`repro {figure.name}`)", "",
        figure.paper, "",
        "```", *figure.render(result), figure.shape(result).render(),
        "```", ""])


def render_experiments(runs: Sequence[Tuple[Figure, Any]]) -> str:
    """The whole of EXPERIMENTS.md from ``(figure, result)`` pairs."""
    return "\n".join([EXPERIMENTS_HEAD] + [
        render_section(figure, result) for figure, result in runs])


@dataclass(frozen=True)
class Suite:
    """One committed-baseline guard as a declared record:
    ``repro bench <name> --save|--compare``.

    ``run(**workload)`` produces the suite's report dict;
    ``evaluate(report, baseline, tolerance=..., **floors)`` is a pure
    function returning failure strings (empty = pass; ``baseline`` is
    ``None`` when saving or when no baseline file exists);
    ``render(report)`` returns the human-readable lines.
    ``add_arguments(parser)`` declares the suite's own flags on its own
    subparser, and ``workload`` / ``floors`` name which parsed flags
    (by ``dest``) feed ``run`` and ``evaluate``.
    """

    name: str
    help: str
    #: Default baseline path (``--baseline`` overrides).
    baseline: str
    run: Callable[..., Dict[str, Any]]
    evaluate: Callable[..., List[str]]
    render: Callable[[Dict[str, Any]], List[str]]
    add_arguments: Callable[[argparse.ArgumentParser], None]
    workload: Tuple[str, ...] = ()
    floors: Tuple[str, ...] = ()


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


def baseline_cli(suite: Suite, args: argparse.Namespace) -> Dict[str, Any]:
    """The one ``--save``/``--compare`` tail every bench suite shares.

    Runs the suite, prints its rendered report and verdict (failures to
    stderr), and records the baseline on ``--save`` — but only a run
    that passes its own floors. Returns the verdict record the CLI
    emits under ``--json``: ``report``, ``failures``, ``baseline``
    (the path), ``ok`` and ``exit_status`` (0 pass, 1 failures, 2
    unreadable baseline).
    """
    path = args.baseline or suite.baseline
    verdict = {"suite": suite.name, "baseline": path, "ok": False,
               "exit_status": 1, "report": None, "failures": []}
    baseline = None
    if not args.save and os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (ValueError, OSError) as exc:
            print(f"unreadable baseline {path}: {exc}", file=sys.stderr)
            verdict.update(exit_status=2,
                           failures=[f"unreadable baseline: {exc}"])
            return verdict
    report = suite.run(**{name: getattr(args, name)
                          for name in suite.workload})
    for line in suite.render(report):
        print(line)
    failures = suite.evaluate(
        report, baseline, tolerance=args.tolerance,
        **{name: getattr(args, name) for name in suite.floors})
    verdict.update(report=report, failures=failures)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return verdict
    if args.save:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"saved {suite.name} baseline to {path}")
    else:
        print(f"{suite.name} benchmark within tolerance")
    verdict.update(ok=True, exit_status=0)
    return verdict


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

"""``run.py compare A.json B.json``: one verdict per (metric, workload).

A is the base (the parent commit, or the first of two runs of one
commit), B the change. Every metric here is lower-is-better.

* ``sim_*`` metrics and ``sim_digest`` are compared exactly.
* Host metrics use the bounds in ``BENCHMARK.json``: within the bound is
  ``unchanged``, beyond it ``improved`` or ``regressed`` -- unless a
  side's own repetitions spread wider than the bound, which makes the
  row ``unresolved`` except when every sample of one side beats every
  sample of the other.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                              "BENCHMARK.json")


def bounds() -> Dict[str, float]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def spread(samples: Optional[List[float]]) -> float:
    """Interquartile range over median of one side's repetitions; 0
    when the metric has a single reading a run (``peak_rss_mb``)."""
    if not samples or len(samples) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(samples, n=4)
    return (high - low) / statistics.median(samples)


def host_verdict(a: float, b: float, bound: float,
                 a_samples: Optional[List[float]],
                 b_samples: Optional[List[float]]) -> str:
    if max(spread(a_samples), spread(b_samples)) > bound:
        # Too noisy for the bound to mean anything: only a clean
        # separation of the two sides' samples decides.
        if max(b_samples) < min(a_samples):
            return "improved"
        if min(b_samples) > max(a_samples):
            return "regressed"
        return "unresolved"
    change = (b - a) / a
    if change > bound:
        return "regressed"
    if change < -bound:
        return "improved"
    return "unchanged"


def exact_verdict(a, b) -> str:
    if a == b:
        return "unchanged"
    return "improved" if b < a else "regressed"


def compare(base: Dict, change: Dict) -> List[Tuple[str, str, str, str]]:
    """Rows of (workload, metric, verdict, detail)."""
    limit = bounds()
    rows = []
    for name in metrics.WORKLOADS:
        a, b = base["workloads"].get(name), change["workloads"].get(name)
        if a is None or b is None:
            rows.append((name, "-", "unresolved",
                         "workload missing from one side"))
            continue
        for metric, unit, _bound in metrics.HOST_END_TO_END:
            va, vb = a["metrics"][metric], b["metrics"][metric]
            verdict = host_verdict(
                va, vb, limit[metric],
                a.get("samples", {}).get(metric),
                b.get("samples", {}).get(metric))
            rows.append((name, metric, verdict,
                         f"{vb:.6g} vs {va:.6g} {unit} "
                         f"({vb / va:.3f}x of base {va:.6g})"))
        for metric, unit, producers in metrics.SIM_END_TO_END:
            if name not in producers:
                continue
            va, vb = a["metrics"][metric], b["metrics"][metric]
            rows.append((name, metric, exact_verdict(va, vb),
                         f"{vb!r} vs {va!r} {unit}"))
        same = a["sim_digest"] == b["sim_digest"]
        rows.append((name, "sim_digest",
                     "unchanged" if same else "changed",
                     f"{b['sim_digest'][:16]} vs {a['sim_digest'][:16]}"))
        for side, record in (("base", a), ("change", b)):
            if record["failed_ops"]:
                rows.append((name, "failed_ops", "regressed",
                             f"{side}: {record['failed_ops']} of "
                             f"{record['ops']} ops failed"))
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    base, change = documents
    for key in ("seed", "smoke", "seconds"):
        if base.get(key) != change.get(key):
            print(f"warning: {key} differs ({base.get(key)} vs "
                  f"{change.get(key)}); sim_* rows compare different "
                  f"inputs", file=sys.stderr)
    rows = compare(base, change)
    width = max(len(metric) for _w, metric, _v, _d in rows)
    workload = None
    for name, metric, verdict, detail in rows:
        if name != workload:
            print(f"== {name}")
            workload = name
        print(f"  {metric:<{width}}  {verdict:<10}  {detail}")
    bad = [row for row in rows if row[2] in ("regressed", "unresolved")]
    print(f"{len(rows)} rows: {len(bad)} regressed or unresolved")
    return 1 if bad else 0

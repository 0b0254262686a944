"""``repro analyze determinism``: a schedule-race detector.

The simulator's event queue breaks (time, priority) ties by insertion
sequence.  Correct code must not depend on that arbitrary order: any two
tie-break policies must produce bit-identical results.  This module runs
the same workload twice — once with ``tiebreak="fifo"``, once with
``"lifo"`` (newest-first among same-timestamp, same-priority events) —
and diffs the per-round :class:`RoundStats` plus a hash of the final
store state.  Divergence means some component consumed the queue's
arbitrary ordering (a schedule race).

These are the two end points of the schedule space; `repro mc` explores
the space *between* them through a
:class:`~repro.analysis.oracle.ScheduleOracle`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Tuple

#: The fig5-small workload: rounds this far apart, this much state per
#: rank.
INTERVAL_S = 0.2
MEMORY_MB = 4.0


@dataclass
class DeterminismReport:
    """The two fingerprints and every path where they disagree."""

    workload: str
    divergences: List[str] = field(default_factory=list)
    fingerprints: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def deterministic(self) -> bool:
        return not self.divergences

    def render(self) -> str:
        head = (f"determinism[{self.workload}]: "
                + ("PASS — tie-break perturbation is invisible"
                   if self.deterministic
                   else f"FAIL — {len(self.divergences)} divergence(s)"))
        lines = [head]
        lines.extend(f"  {path}" for path in self.divergences)
        return "\n".join(lines)


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, default=repr)


def state_hash(cluster) -> str:
    """A digest of the externally visible end state: the chunk store's
    refcounts, every pod's stored versions, and the simulation clock."""
    store = cluster.store
    state = {
        "refcounts": sorted(store.refcounts().items()),
        "versions": {pod_name: store.versions(pod_name)
                     for pod_name in sorted(store._latest)},
        "wal_epochs": store.rounds.epochs(),
        "sim_time": round(cluster.sim.now, 12),
    }
    return hashlib.sha256(_canonical(state).encode()).hexdigest()


def fingerprint(tiebreak: str, nodes: int = 2, rounds: int = 2,
                seed: int = 0) -> Dict[str, Any]:
    """Run the fig5-small workload under one tie-break policy and
    reduce it to a comparable fingerprint."""
    from repro.apps.slm import run_slm_rounds
    from repro.cruz.cluster import CruzCluster

    cluster = CruzCluster(nodes, tiebreak=tiebreak, seed=seed)
    _app, stats = run_slm_rounds(cluster, nodes, MEMORY_MB, rounds=rounds,
                                 interval_s=INTERVAL_S)
    return {
        "tiebreak": tiebreak,
        "rounds": [asdict(round_stats) for round_stats in stats],
        "state_hash": state_hash(cluster),
    }


def _diff(a: Any, b: Any, path: str, out: List[str]) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        # The tie-break axis itself is the one field allowed to differ.
        for key in sorted((set(a) | set(b)) - {"tiebreak"}):
            _diff(a.get(key), b.get(key), f"{path}.{key}", out)
        return
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for index, (left, right) in enumerate(zip(a, b)):
            _diff(left, right, f"{path}[{index}]", out)
        return
    if a != b:
        out.append(f"{path}: fifo={a!r} lifo={b!r}")


def tiebreak_diff(run: Callable[[str], Any], label: str,
                  project: Callable[[Any], Any] = lambda result: result
                  ) -> Tuple[Any, Any, List[str]]:
    """The schedule-race probe every harness shares: ``run("fifo")``,
    then ``run("lifo")``, then a structural diff of the two results.

    Returns ``(fifo, lifo, divergences)`` where each divergence names
    the path (rooted at ``label``) of one field of ``project(result)``
    on which the two runs disagree; empty means the tie-break
    perturbation was invisible. A ``tiebreak`` key is never compared.
    """
    fifo, lifo = run("fifo"), run("lifo")
    divergences: List[str] = []
    _diff(project(fifo), project(lifo), label, divergences)
    return fifo, lifo, divergences


def run_determinism_check(nodes: int = 2, rounds: int = 2,
                          seeds: int = 1) -> DeterminismReport:
    """The fig5-small workload, twice, with perturbed tie-breaking.

    ``seeds`` sweeps the check over that many RNG seeds (0..seeds-1):
    each seed shifts the workload's random streams, exposing races that
    only materialize under particular timings.  Seed 0 reproduces the
    single-seed check exactly; extra seeds add ``fifo@seed<N>`` /
    ``lifo@seed<N>`` fingerprints and ``seed<N> ``-prefixed divergences.
    """
    workload = (f"fig5-small[n={nodes}]" if seeds <= 1
                else f"fig5-small[n={nodes},seeds={seeds}]")
    report = DeterminismReport(workload=workload)
    for seed in range(max(1, seeds)):
        fifo, lifo, divergences = tiebreak_diff(
            lambda policy: fingerprint(
                policy, nodes=nodes, rounds=rounds, seed=seed),
            "rounds", project=lambda fp: fp["rounds"])
        suffix = f"@seed{seed}" if seed else ""
        prefix = f"seed{seed} " if seed else ""
        report.fingerprints[f"fifo{suffix}"] = fifo
        report.fingerprints[f"lifo{suffix}"] = lifo
        if fifo["state_hash"] != lifo["state_hash"]:
            divergences.append(
                f"state_hash: fifo={fifo['state_hash'][:16]} "
                f"lifo={lifo['state_hash'][:16]}")
        report.divergences.extend(prefix + d for d in divergences)
    return report

"""``repro bench migration``: pre-copy vs stop-and-copy pause windows.

Runs the fig5-sized slm workload (100 MB per rank) and migrates one pod
mid-run under both modes, on otherwise identical fresh clusters:

* ``stop_and_copy`` — the legacy baseline: the pod is isolated behind
  the netfilter drop rule for the whole migration, so the
  client-visible pause is the full image write plus the full image
  read (~1.7 s at fig5 scale);
* ``precopy`` — the live path: iterative incremental rounds stream the
  image (and the target prefetches it) while the pod keeps running;
  the pause covers only the final dirty delta plus the cold remainder.

Both runs must finish the application bit-exact against the analytic
reference — the migration is only "transparent" if the answer is the
answer. The pre-copy run is repeated under the LIFO event tie-break and
diffed field-for-field against FIFO, so the benchmark doubles as a
determinism probe for the whole migration path.

``--save`` records the run to ``benchmarks/BENCH_migration.json``;
``--compare`` re-runs and fails when the pause ratio exceeds the
explicit floor (pause < 25% of stop-and-copy), pre-copy needs more than
5 rounds to converge, the tie-break runs diverge, or — when the
workload matches the committed baseline — the measured ratio drifts
above the baseline's by more than the tolerance. All quantities are
simulated seconds, so they travel across machines.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench.harness import Suite, workload_matches

#: The headline floor: client-visible pause under pre-copy must be
#: below this fraction of the stop-and-copy pause on the same workload.
DEFAULT_MAX_PAUSE_RATIO = 0.25
#: Pre-copy must converge (dirty bytes under threshold) within this
#: many rounds on the fig5 workload.
DEFAULT_MAX_ROUNDS = 5
#: Allowed relative drift above the committed baseline's pause ratio.
DEFAULT_TOLERANCE = 0.25


def run_mode(live: bool,
             seed: int = 7,
             app_nodes: int = 3,
             ranks: int = 2,
             steps: int = 200,
             rows_per_rank: int = 4,
             cols: int = 16,
             total_work_s: float = 20.0,
             memory_mb_per_rank: float = 100.0,
             migrate_at: float = 1.0,
             target_node_index: Optional[int] = None,
             tiebreak: str = "fifo",
             limit_s: float = 120.0) -> Dict[str, object]:
    """One migration on a fresh cluster; returns its measurements.

    Launches the slm app, lets it reach steady state, migrates rank
    0's pod to ``target_node_index`` (default: the last
    application node, which the default placement leaves empty), then
    runs the app to completion and verifies the final field bit-exact.
    """
    import hashlib

    import numpy as np

    from repro.analysis.determinism import state_hash
    from repro.apps.slm import reference_solution, slm_factory
    from repro.cruz.cluster import CruzCluster

    rows = rows_per_rank * ranks
    cluster = CruzCluster(app_nodes, seed=seed, sanitize=True,
                          tiebreak=tiebreak)
    app = cluster.launch_app_factory(
        "slm", ranks,
        slm_factory(ranks, global_rows=rows, cols=cols, steps=steps,
                    total_work_s=total_work_s,
                    memory_mb_per_rank=memory_mb_per_rank))
    if target_node_index is None:
        target_node_index = app_nodes - 1
    cluster.run_for(migrate_at)
    pod = app.pods[0]
    source_node = pod.node.name
    cluster.migrate_pod(pod, target_node_index, live=live)
    report = cluster.last_migration

    def done() -> bool:
        programs = cluster.app_programs(app)
        return (len(programs) == ranks
                and all(p.step_count >= steps for p in programs))

    cluster.run_until(done, limit=limit_s)
    cluster.run_for(0.2)  # drain retransmits and trailing ACKs

    programs = sorted(cluster.app_programs(app), key=lambda p: p.rank)
    final = np.vstack([p.q for p in programs])
    expected = reference_solution(rows, cols, steps)
    sanitizer = cluster.trace.sanitizer
    sanitizer.check_store(cluster.store, time=cluster.sim.now,
                          context="final", deep=True)
    return {
        "mode": report.mode,
        "tiebreak": tiebreak,
        "source_node": source_node,
        "target_node": report.target_node,
        "pause_window_s": report.pause_window_s,
        "precopy_rounds": report.precopy_rounds,
        "converged": report.converged,
        "warm_bytes": report.warm_bytes,
        "total_bytes_moved": report.total_bytes_moved,
        "rounds": [dict(entry) for entry in report.to_dict()["rounds"]],
        "sim_time_s": round(cluster.sim.now, 9),
        "output_correct": bool(np.array_equal(final, expected)),
        "field_hash": hashlib.sha256(
            np.ascontiguousarray(final).tobytes()).hexdigest(),
        "state_hash": state_hash(cluster),
        "sanitizer_violations": len(sanitizer.violations),
    }


def run_suite(seed: int = 7,
              app_nodes: int = 3,
              ranks: int = 2,
              steps: int = 200,
              rows_per_rank: int = 4,
              cols: int = 16,
              total_work_s: float = 20.0,
              memory_mb_per_rank: float = 100.0,
              migrate_at: float = 1.0) -> Dict[str, object]:
    """Both modes on identical workloads, plus the tie-break probe."""
    from repro.analysis.determinism import tiebreak_diff

    workload = {
        "seed": seed, "app_nodes": app_nodes, "ranks": ranks,
        "steps": steps, "rows_per_rank": rows_per_rank, "cols": cols,
        "total_work_s": total_work_s,
        "memory_mb_per_rank": memory_mb_per_rank,
        "migrate_at": migrate_at,
    }

    def run(label: str, **mode) -> Dict[str, object]:
        print(f"migration: {label} "
              f"({memory_mb_per_rank:.0f} MB/rank, {ranks} ranks)...",
              flush=True)
        return run_mode(**workload, **mode)

    stop = run("stop_and_copy", live=False)
    pre, _lifo, divergences = tiebreak_diff(
        lambda tiebreak: run(f"precopy ({tiebreak})", live=True,
                             tiebreak=tiebreak),
        "migration")
    stop_pause = float(stop["pause_window_s"])
    pre_pause = float(pre["pause_window_s"])
    ratio = pre_pause / stop_pause if stop_pause > 0 else float("inf")
    return {
        "suite": "migration",
        "workload": workload,
        "stop_and_copy": stop,
        "precopy": pre,
        "pause_ratio": round(ratio, 6),
        "precopy_rounds": pre["precopy_rounds"],
        "divergences": divergences,
    }


def render(report: Dict[str, object]) -> List[str]:
    stop = report["stop_and_copy"]
    pre = report["precopy"]
    lines = [
        f"stop-and-copy: pause={stop['pause_window_s'] * 1e3:9.3f}ms  "
        f"moved={stop['total_bytes_moved'] / 1e6:7.2f}MB  "
        f"correct={stop['output_correct']}",
        f"pre-copy:      pause={pre['pause_window_s'] * 1e3:9.3f}ms  "
        f"moved={pre['total_bytes_moved'] / 1e6:7.2f}MB  "
        f"rounds={pre['precopy_rounds']} converged={pre['converged']} "
        f"warm={pre['warm_bytes'] / 1e6:.2f}MB "
        f"correct={pre['output_correct']}",
    ]
    for entry in pre["rounds"]:
        lines.append(
            f"  round {entry['index']}: "
            f"dirty={entry['dirty_bytes_before'] / 1e6:7.2f}MB "
            f"wrote={entry['written_bytes'] / 1e6:7.2f}MB "
            f"stop={entry['stop_s'] * 1e3:.3f}ms "
            f"took={entry['round_s'] * 1e3:.3f}ms")
    lines.append(
        f"pause ratio: {report['pause_ratio']:.4f} "
        f"(floor {DEFAULT_MAX_PAUSE_RATIO})")
    if report["divergences"]:
        lines.append(f"tie-break divergences: {report['divergences']}")
    else:
        lines.append("tie-break: fifo and lifo runs are bit-identical")
    return lines


def evaluate(report: Dict[str, object],
             baseline: Optional[Dict[str, object]],
             max_pause_ratio: float = DEFAULT_MAX_PAUSE_RATIO,
             max_rounds: int = DEFAULT_MAX_ROUNDS,
             tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """Pure comparison: list of failure messages (empty = pass)."""
    failures = []
    for label in ("stop_and_copy", "precopy"):
        row = report[label]
        if not row["output_correct"]:
            failures.append(f"{label}: final field is not bit-exact")
        if row["sanitizer_violations"]:
            failures.append(
                f"{label}: {row['sanitizer_violations']} sanitizer "
                f"violation(s)")
    ratio = float(report["pause_ratio"])
    if ratio >= max_pause_ratio:
        failures.append(
            f"pre-copy pause is {ratio:.2%} of stop-and-copy "
            f"(floor {max_pause_ratio:.0%})")
    if not report["precopy"]["converged"]:
        failures.append("pre-copy did not converge below the dirty "
                        "threshold")
    rounds = int(report["precopy_rounds"])
    if rounds > max_rounds:
        failures.append(
            f"pre-copy took {rounds} rounds (limit {max_rounds})")
    if report["divergences"]:
        failures.append(
            f"fifo/lifo divergence: {report['divergences'][:3]}")
    if workload_matches(report, baseline, "migration"):
        recorded = float(baseline.get("pause_ratio", 0.0))
        ceiling = recorded * (1.0 + tolerance)
        if recorded > 0 and ratio > ceiling:
            failures.append(
                f"pause ratio {ratio:.4f} drifted more than "
                f"{tolerance:.0%} above the committed baseline's "
                f"{recorded:.4f}")
    return failures


def _add_arguments(parser) -> None:
    parser.add_argument("--ranks", type=int, default=2,
                        help="slm ranks (default 2)")
    parser.add_argument("--memory-mb", dest="memory_mb_per_rank",
                        type=float, default=100.0,
                        help="per-rank state size in MB (default 100)")
    parser.add_argument("--max-pause-ratio", type=float,
                        default=DEFAULT_MAX_PAUSE_RATIO,
                        help="required pre-copy pause as a fraction of "
                             "stop-and-copy (default 0.25)")


SUITE = Suite(
    name="migration",
    help="pre-copy vs stop-and-copy pause windows",
    baseline="benchmarks/BENCH_migration.json",
    run=run_suite, evaluate=evaluate, render=render,
    add_arguments=_add_arguments,
    workload=("ranks", "memory_mb_per_rank"),
    floors=("max_pause_ratio",))

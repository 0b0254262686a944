"""``repro bench migration``: pre-copy vs stop-and-copy pause windows.

Runs the fig5-sized slm workload (100 MB per rank) and migrates one pod
mid-run in both modes of the one migration path, on otherwise identical
fresh clusters:

* ``stop_and_copy`` — the baseline: zero pre-copy rounds, so the
  cutover takes a full save and the pod is isolated behind the
  netfilter drop rule for the full image write plus the full image
  read (~1.9 s at fig5 scale);
* ``precopy`` — the live path: iterative incremental rounds stream the
  image (and the target prefetches it) while the pod keeps running;
  the pause covers only the final dirty delta plus the cold remainder.

In both, ``total_bytes_moved`` is what the target reads: the rounds'
prefetches plus the cold remainder of the final image.

Both runs must finish the application bit-exact against the analytic
reference — the migration is only "transparent" if the answer is the
answer. The pre-copy run is repeated under the LIFO event tie-break and
diffed field-for-field against FIFO, so the benchmark doubles as a
determinism probe for the whole migration path.

All quantities are simulated seconds, so ``--compare`` holds every field
of the run equal to ``benchmarks/BENCH_migration.json``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.harness import ShapeReport, Suite

#: The fig5-sized slm workload both modes run, on identical clusters.
WORKLOAD = {"seed": 7, "app_nodes": 3, "ranks": 2, "steps": 200,
            "rows_per_rank": 4, "cols": 16, "total_work_s": 20.0,
            "memory_mb_per_rank": 100.0, "migrate_at": 1.0}
#: The headline floor: client-visible pause under pre-copy must be
#: below this fraction of the stop-and-copy pause on the same workload.
MAX_PAUSE_RATIO = 0.25
#: Pre-copy must converge (dirty bytes under threshold) within this
#: many rounds on the fig5 workload.
MAX_ROUNDS = 5


def run_mode(live: bool, tiebreak: str, seed: int, app_nodes: int,
             ranks: int, steps: int, rows_per_rank: int, cols: int,
             total_work_s: float, memory_mb_per_rank: float,
             migrate_at: float) -> Dict[str, object]:
    """One migration on a fresh cluster; returns its measurements.

    Launches the slm app, lets it reach steady state, migrates rank
    0's pod to the last application node (which the default placement
    leaves empty), then runs the app to completion and verifies the
    final field bit-exact.
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
    cluster.run_for(migrate_at)
    pod = app.pods[0]
    source_node = pod.node.name
    cluster.migrate_pod(pod, app_nodes - 1, live=live)
    report = cluster.last_migration

    def done() -> bool:
        programs = cluster.app_programs(app)
        return (len(programs) == ranks
                and all(p.step_count >= steps for p in programs))

    cluster.run_until(done, limit=120.0)
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


def run_suite() -> Dict[str, object]:
    """Both modes on identical workloads, plus the tie-break probe."""
    from repro.analysis.determinism import tiebreak_diff

    def run(label: str, **mode) -> Dict[str, object]:
        print(f"migration: {label} "
              f"({WORKLOAD['memory_mb_per_rank']:.0f} MB/rank, "
              f"{WORKLOAD['ranks']} ranks)...", flush=True)
        return run_mode(**WORKLOAD, **mode)

    stop = run("stop_and_copy", live=False, tiebreak="fifo")
    pre, _lifo, divergences = tiebreak_diff(
        lambda tiebreak: run(f"precopy ({tiebreak})", live=True,
                             tiebreak=tiebreak),
        "migration")
    stop_pause = float(stop["pause_window_s"])
    pre_pause = float(pre["pause_window_s"])
    ratio = pre_pause / stop_pause if stop_pause > 0 else float("inf")
    return {
        "suite": "migration",
        "workload": dict(WORKLOAD),
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
    return lines


def shape(report: Dict[str, object]) -> ShapeReport:
    """Transparency and the pause-window claim as named checks."""
    checks = ShapeReport("bench migration: pre-copy vs stop-and-copy")
    modes = ("stop_and_copy", "precopy")
    checks.check("output_bit_exact",
                 all(report[mode]["output_correct"] for mode in modes),
                 [report[mode]["output_correct"] for mode in modes],
                 "both modes finish on the analytic field")
    checks.check("sanitizer_clean",
                 not any(report[mode]["sanitizer_violations"]
                         for mode in modes),
                 [report[mode]["sanitizer_violations"] for mode in modes],
                 "0 violations in both modes")
    checks.check("pause_ratio_under_floor",
                 report["pause_ratio"] < MAX_PAUSE_RATIO,
                 report["pause_ratio"],
                 f"pre-copy pause < {MAX_PAUSE_RATIO} x stop-and-copy")
    checks.check("precopy_converged", report["precopy"]["converged"],
                 report["precopy"]["converged"],
                 "dirty bytes under the threshold")
    checks.check("precopy_rounds_within_budget",
                 report["precopy_rounds"] <= MAX_ROUNDS,
                 report["precopy_rounds"], f"<= {MAX_ROUNDS}")
    checks.check("fifo_equals_lifo", not report["divergences"],
                 report["divergences"][:3], "no divergence")
    return checks


SUITE = Suite(
    name="migration",
    help="pre-copy vs stop-and-copy pause windows",
    run=run_suite, shape=shape, render=render,
    baseline="benchmarks/BENCH_migration.json")

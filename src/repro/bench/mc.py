"""CruzMC benchmark: explorer throughput and oracle-hook overhead.

Two measurements, recorded to ``benchmarks/BENCH_mc.json``:

* ``explorer`` — a full schedule-only exploration of the default
  2-node / 1-round protocol round plus a drop/dup fault exploration:
  states (runs) per second and the partial-order-reduction ratio
  (orderings pruned / orderings considered).  The reduction ratio is a
  pure function of the protocol and travels across machines; states/sec
  is recorded for context but never compared against the baseline.
* ``overhead`` — the guard that keeps model checking free for everyone
  who isn't using it.  The scheduler hook (`Simulator(oracle=...)`)
  must cost the normal no-oracle fast path under ``overhead_limit``
  (default 3%) on the timer storm (:func:`run_storm`), the workload
  that isolates the scheduler.  Both sides run the byte-identical
  storm in this process: the shipping ``Simulator.run`` (hook present,
  oracle ``None``) against a reference loop with the same dispatch and
  no hooks (direct ``queue.pop_due``, no oracle test, no batch
  bookkeeping).  Min-of-N wall clock on each side.

This module measures wall-clock by design, hence the CRZ001
suppressions below.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional

from repro.bench.harness import Suite, workload_matches

#: Reduced storm scale for the overhead A/B — big enough that the loop
#: dominates construction, small enough for CI.
OVERHEAD_NODES = 64
OVERHEAD_FLOWS = 1000
OVERHEAD_SEGMENTS = 100
# 17 reps because the estimator is a ratio of per-side minima: single
# 0.2s runs see ±10% preemption noise on shared runners, and the min
# only converges to the quiet-machine floor with enough samples
# (min-of-5 flaked at ±3%, right at the guard's limit; min-of-17
# holds within ±1.5%).
OVERHEAD_REPS = 17
DEFAULT_OVERHEAD_LIMIT = 0.03
DEFAULT_TOLERANCE = 0.2

#: Start-stagger window of the storm's flows (simulated seconds).
STORM_WINDOW_S = 1.0
#: TCP timer constants mirrored by the storm (see tcp/connection.py).
STORM_RTO_S = 1.0
STORM_DELACK_S = 0.2
STORM_ACK_GAP_S = 0.001
STORM_HEARTBEAT_S = 0.1


def run_storm(n_nodes: int = OVERHEAD_NODES,
              n_flows: int = OVERHEAD_FLOWS,
              segments_per_flow: int = OVERHEAD_SEGMENTS,
              driver=None) -> Dict[str, object]:
    """Replay the TCP stack's timer trace through the raw scheduler.

    Each of ``n_flows`` flows performs ``segments_per_flow`` segment
    exchanges 1 ms apart: every "ACK" restarts the 1 s RTO timer
    (exactly ``connection.py``'s ``_restart_rtx_timer``: a deadline bump
    while the wheel slot stays armed), every other segment arms a
    200 ms delayed-ACK timer that the next transmission cancels, and
    the pacing event itself is a scheduler op. Each of ``n_nodes``
    nodes additionally ticks a 100 ms heartbeat, like the failover
    detector. No modelled TCP or network work dilutes the event loop,
    so a per-event cost in ``Simulator.run`` shows here undiluted.

    ``driver(sim, until)`` times an alternative event loop over the
    byte-identical workload; the default is ``sim.run``.
    """
    from repro.sim.core import Simulator
    from repro.sim.timers import timers_for

    sim = Simulator()
    timers = timers_for(sim)
    counts = {"rto_fired": 0, "delack_fired": 0, "flows_done": 0,
              "heartbeats": 0}

    def on_delack() -> None:
        counts["delack_fired"] += 1

    def start_flow(k: int) -> None:
        rto = [None]
        rto_deadline = [0.0]
        delack = [None]
        sent = [0]

        def on_rto() -> None:
            remaining = rto_deadline[0] - sim.now
            if remaining > 1e-12:
                # Lazy restart: the deadline moved while the slot
                # stayed armed; re-arm for the remainder.
                rto[0] = timers.after(remaining, on_rto)
                return
            counts["rto_fired"] += 1

        def segment() -> None:
            sent[0] += 1
            handle = rto[0]
            rto_deadline[0] = sim.now + STORM_RTO_S
            if handle is None or not handle.active:
                rto[0] = timers.after(STORM_RTO_S, on_rto)
            if sent[0] % 2 == 0:
                pending = delack[0]
                if pending is not None and pending.active:
                    pending.cancel()
                delack[0] = timers.after(STORM_DELACK_S, on_delack)
            if sent[0] < segments_per_flow:
                sim.defer(STORM_ACK_GAP_S, segment)
            else:
                if rto[0].active:
                    rto[0].cancel()
                counts["flows_done"] += 1

        segment()

    active_until = STORM_WINDOW_S + segments_per_flow * STORM_ACK_GAP_S

    def heartbeat() -> None:
        counts["heartbeats"] += 1
        if sim.now < active_until:
            timers.after(STORM_HEARTBEAT_S, heartbeat)

    for node in range(n_nodes):
        sim.call_at(node * STORM_HEARTBEAT_S / n_nodes, heartbeat)
    for k in range(n_flows):
        sim.call_at(STORM_WINDOW_S * k / max(n_flows, 1), start_flow, k)

    # Past the last possible RTO/delayed-ACK deadline.
    horizon = active_until + STORM_RTO_S + STORM_DELACK_S + 0.05
    started = time.perf_counter()  # cruz: noqa[CRZ001] benchmark timing
    if driver is None:
        sim.run(until=horizon)
    else:
        driver(sim, horizon)
    wall_s = time.perf_counter() - started  # cruz: noqa[CRZ001] bench
    stats = sim.stats()
    popped = int(stats["popped"])
    return {
        "flows_completed": counts["flows_done"],
        "rto_fired": counts["rto_fired"],
        "delack_fired": counts["delack_fired"],
        "heartbeats": counts["heartbeats"],
        "wall_s": round(wall_s, 4),
        "events_popped": popped,
        "events_pushed": int(stats["pushed"]),
        "events_per_sec": round(popped / wall_s) if wall_s > 0 else 0,
    }


def _reference_run(sim, until: Optional[float]) -> None:
    """The hook-free event loop: ``Simulator.run`` without the oracle.

    The shipping drive loop's dispatch — a direct ``queue.pop_due``, a
    bare ``(fn, args)`` tuple called in place, an ``Event``'s callbacks
    run otherwise — with neither the per-event oracle test nor the
    timestamp-batch bookkeeping ``run_until`` needs.  Timing this
    against the shipping ``run()`` isolates what the hooks cost the
    plain no-oracle, no-predicate path.
    """
    from repro.sim.core import SimulationError

    queue = sim._queue
    limit = math.inf if until is None else until
    while True:
        entry = queue.pop_due(limit)
        if entry is None:
            break
        when = entry[0]
        target = entry[3]
        if when < sim.now:
            raise SimulationError("event queue went backwards")
        sim.now = when
        if target.__class__ is tuple:
            target[0](*target[1])
            continue
        target._qentry = None
        callbacks = target.callbacks
        target.callbacks = None
        target._processed = True
        for callback in callbacks:
            callback(target)
    if until is not None and until > sim.now:
        sim.now = until


def measure_overhead(reps: int = OVERHEAD_REPS,
                     n_nodes: int = OVERHEAD_NODES,
                     n_flows: int = OVERHEAD_FLOWS,
                     segments_per_flow: int = OVERHEAD_SEGMENTS
                     ) -> Dict[str, object]:
    """A/B the shipping run() against the pre-hook reference loop."""
    workload = {"n_nodes": n_nodes, "n_flows": n_flows,
                "segments_per_flow": segments_per_flow}
    hooked_walls: List[float] = []
    reference_walls: List[float] = []
    events = 0
    run_storm(**workload)  # warmup: allocator + code caches
    for rep in range(reps):
        # Alternate the A/B order so neither side systematically runs
        # on the other's warmed caches.
        if rep % 2 == 0:
            hooked = run_storm(**workload)
            reference = run_storm(driver=_reference_run, **workload)
        else:
            reference = run_storm(driver=_reference_run, **workload)
            hooked = run_storm(**workload)
        if hooked["events_popped"] != reference["events_popped"]:
            raise RuntimeError(
                "overhead A/B diverged: "
                f"{hooked['events_popped']} events under the hooked "
                f"loop, {reference['events_popped']} under the "
                "reference loop")
        events = int(hooked["events_popped"])
        hooked_walls.append(float(hooked["wall_s"]))
        reference_walls.append(float(reference["wall_s"]))
    hooked_best = min(hooked_walls)
    reference_best = min(reference_walls)
    overhead = (hooked_best / reference_best - 1.0
                if reference_best > 0 else 0.0)
    return {
        "workload": dict(workload, reps=reps),
        "events_popped": events,
        "hooked_wall_s": round(hooked_best, 4),
        "reference_wall_s": round(reference_best, 4),
        "overhead": round(overhead, 4),
    }


def measure_explorer() -> Dict[str, object]:
    """Time the two canonical explorations; derive states/sec."""
    from repro.analysis import mc

    components = {}
    for name, config in (
            ("schedule", mc.McConfig()),
            ("faults", mc.McConfig(fault_modes=("drop", "dup"),
                                   fault_budget=1))):
        started = time.perf_counter()  # cruz: noqa[CRZ001] bench timing
        report = mc.explore(config, stop_on_violation=False)
        wall_s = time.perf_counter() - started  # cruz: noqa[CRZ001]
        components[name] = {
            "runs": report.runs,
            "distinct_states": report.distinct_states,
            "exhausted": report.exhausted,
            "violations": len(report.violations),
            "harness_errors": len(report.harness_errors),
            "reduction_ratio": round(report.reduction_ratio, 4),
            "wall_s": round(wall_s, 4),
            "states_per_sec": (round(report.runs / wall_s, 1)
                               if wall_s > 0 else 0.0),
        }
    return components


def run_suite(**workload) -> Dict[str, object]:
    print("mc: exploring the 2-node round (schedule-only and "
          "drop/dup fault spaces)...", flush=True)
    explorer = measure_explorer()
    print("mc: measuring oracle-hook overhead on the storm "
          "benchmark...", flush=True)
    overhead = measure_overhead(**workload)
    return {
        "suite": "mc",
        "workload": {
            "explorer": {"nodes": 2, "rounds": 1},
            "overhead": overhead["workload"],
        },
        "explorer": explorer,
        "overhead": overhead,
        "reduction_ratio": explorer["faults"]["reduction_ratio"],
        "states_per_sec": explorer["faults"]["states_per_sec"],
    }


def render(report: Dict[str, object]) -> List[str]:
    lines = []
    for name in ("schedule", "faults"):
        row = report["explorer"][name]
        lines.append(
            f"{name:>8}: {row['runs']:>5} runs in {row['wall_s']:7.3f}s "
            f"= {row['states_per_sec']:>7.1f} states/s, reduction "
            f"{row['reduction_ratio']:.0%}, "
            f"{'exhausted' if row['exhausted'] else 'TRUNCATED'}, "
            f"{row['violations']} violation(s)")
    over = report["overhead"]
    lines.append(
        f"overhead: hooked {over['hooked_wall_s']:.3f}s vs reference "
        f"{over['reference_wall_s']:.3f}s over {over['events_popped']} "
        f"events = {over['overhead']:+.2%} oracle-hook tax")
    return lines


def evaluate(report: Dict[str, object],
             baseline: Optional[Dict[str, object]],
             tolerance: float = DEFAULT_TOLERANCE,
             overhead_limit: float = DEFAULT_OVERHEAD_LIMIT
             ) -> List[str]:
    """Floors on this run; ratio comparison against the baseline.

    The overhead guard and the exhaustion/zero-violation checks apply
    to the measured run unconditionally.  Only the reduction ratio is
    compared against the committed baseline (it is machine-independent);
    states/sec is wall-clock and never travels.
    """
    failures = []
    overhead = float(report["overhead"]["overhead"])
    if overhead > overhead_limit:
        failures.append(
            f"oracle hook costs the no-oracle fast path {overhead:.2%} "
            f"(limit {overhead_limit:.0%}) on the storm benchmark")
    for name in ("schedule", "faults"):
        row = report["explorer"][name]
        if not row["exhausted"]:
            failures.append(
                f"{name} exploration no longer exhausts its reduced "
                f"space within budget ({row['runs']} runs)")
        if row["violations"]:
            failures.append(
                f"{name} exploration found {row['violations']} "
                "violation(s) in the unmutated protocol")
        if row["harness_errors"]:
            failures.append(
                f"{name} exploration hit {row['harness_errors']} "
                "harness error(s)")
    if workload_matches(report, baseline, "mc"):
        recorded = float(baseline.get("reduction_ratio", 0.0))
        measured = float(report.get("reduction_ratio", 0.0))
        floor = recorded * (1.0 - tolerance)
        if measured < floor:
            failures.append(
                f"reduction ratio {measured:.2f} dropped more than "
                f"{tolerance:.0%} below the committed baseline's "
                f"{recorded:.2f}")
    return failures


def _add_arguments(parser) -> None:
    parser.add_argument("--overhead-limit", type=float,
                        default=DEFAULT_OVERHEAD_LIMIT,
                        help="max fractional slowdown the oracle hook "
                             "may add to the no-oracle scheduler fast "
                             "path (default 0.03)")


SUITE = Suite(
    name="mc",
    help="model-checker states/sec, reduction ratio and oracle-hook "
         "overhead",
    baseline="benchmarks/BENCH_mc.json",
    run=run_suite, evaluate=evaluate, render=render,
    add_arguments=_add_arguments,
    floors=("overhead_limit",))

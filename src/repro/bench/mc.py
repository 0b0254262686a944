"""CruzMC benchmark: explorer throughput and oracle-hook overhead.

Two measurements, recorded to ``benchmarks/BENCH_mc.json``:

* ``explorer`` — a full schedule-only exploration of the default
  2-node / 1-round protocol round plus a drop/dup fault exploration:
  states (runs) per second and the partial-order-reduction ratio
  (orderings pruned / orderings considered).  The reduction ratio is a
  pure function of the protocol and travels across machines; states/sec
  is recorded for context only.
* ``overhead`` — the guard that keeps model checking free for everyone
  who isn't using it.  The scheduler hook (`Simulator(oracle=...)`)
  must cost the normal no-oracle fast path under
  :data:`OVERHEAD_LIMIT` on the timer storm (:func:`run_storm`), the
  workload that isolates the scheduler.  Both sides run the
  byte-identical storm in this process: the shipping ``Simulator.run``
  (hooks present, oracle and predicate ``None``) against
  :func:`_reference_run`, the same drive loop with neither test.
  Min-of-N wall clock on each side.

This module measures wall-clock by design, hence the CRZ001
suppressions below and the :data:`HOST_CLOCK` fields ``--compare``
leaves out of its equality.
"""

from __future__ import annotations

import math
import time
from heapq import heappop
from typing import Dict, List, Optional

from repro.bench.harness import ShapeReport, Suite

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
#: Max fractional slowdown the oracle hook may add to the no-oracle
#: scheduler fast path.
OVERHEAD_LIMIT = 0.03
#: The report's wall-clock leaves: the host's speed, not the protocol's.
HOST_CLOCK = (
    "explorer.schedule.wall_s", "explorer.schedule.states_per_sec",
    "explorer.faults.wall_s", "explorer.faults.states_per_sec",
    "overhead.hooked_wall_s", "overhead.reference_wall_s",
    "overhead.overhead")

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
    """``Simulator.run`` without its hooks: the inner loop of
    ``Simulator._drive`` line for line — the heap popped in line,
    tombstones shed here, the queue's counters kept here — minus the
    per-event oracle and predicate tests and the batch flag only the
    predicate reads.  Timing this against the
    shipping ``run()`` isolates what those tests cost the plain
    no-oracle, no-predicate path.
    """
    from repro.sim.core import SimulationError

    queue = sim._queue
    heap = queue._heap
    bound = math.inf if until is None else until
    while heap:
        if heap[0][0] > bound:
            break
        entry = heappop(heap)
        when = entry[0]
        target = entry[3]
        if target is None:          # a tombstone: shed it
            queue._dead -= 1
            queue.dead_popped += 1
            continue
        queue.popped += 1
        if when < sim.now:
            raise SimulationError("event queue went backwards")
        sim.now = when
        if target.__class__ is tuple:
            target[0](*target[1])
        else:
            target._qentry = None
            callbacks = target.callbacks
            target.callbacks = None
            target._processed = True
            for callback in callbacks:
                callback(target)
    if until is not None and until > sim.now:
        sim.now = until


def measure_overhead() -> Dict[str, object]:
    """A/B the shipping run() against the hook-free reference loop."""
    workload = {"n_nodes": OVERHEAD_NODES, "n_flows": OVERHEAD_FLOWS,
                "segments_per_flow": OVERHEAD_SEGMENTS}
    hooked_walls: List[float] = []
    reference_walls: List[float] = []
    events = 0
    run_storm(**workload)  # warmup: allocator + code caches
    for rep in range(OVERHEAD_REPS):
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
        "workload": dict(workload, reps=OVERHEAD_REPS),
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


def run_suite() -> Dict[str, object]:
    print("mc: exploring the 2-node round (schedule-only and "
          "drop/dup fault spaces)...", flush=True)
    explorer = measure_explorer()
    print("mc: measuring oracle-hook overhead on the storm "
          "benchmark...", flush=True)
    overhead = measure_overhead()
    return {
        "suite": "mc",
        "workload": {
            "explorer": {"nodes": 2, "rounds": 1},
            "overhead": overhead["workload"],
        },
        "explorer": explorer,
        "overhead": overhead,
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


def shape(report: Dict[str, object]) -> ShapeReport:
    """The hook's tax and a clean, exhausted exploration as checks."""
    checks = ShapeReport("bench mc: explorer and oracle-hook overhead")
    overhead = report["overhead"]["overhead"]
    checks.check("oracle_hook_overhead", overhead <= OVERHEAD_LIMIT,
                 overhead, f"<= {OVERHEAD_LIMIT} on the storm benchmark")
    for name in ("schedule", "faults"):
        row = report["explorer"][name]
        checks.check(f"{name}_exhausted", row["exhausted"], row["runs"],
                     "frontier empty within budget")
        checks.check(f"{name}_no_violations", row["violations"] == 0,
                     row["violations"], "0 in the unmutated protocol")
        checks.check(f"{name}_no_harness_errors",
                     row["harness_errors"] == 0, row["harness_errors"],
                     "0")
    return checks


SUITE = Suite(
    name="mc",
    help="model-checker states/sec, reduction ratio and oracle-hook "
         "overhead",
    run=run_suite, shape=shape, render=render,
    baseline="benchmarks/BENCH_mc.json", host_clock=HOST_CLOCK)

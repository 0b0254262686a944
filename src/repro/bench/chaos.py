"""``repro chaos``: the self-healing smoke test.

Runs the slm benchmark on a supervised, sanitized cluster while a seeded
:class:`~repro.cruz.faults.ChaosInjector` crashes an application node in
the middle of a coordinated checkpoint round (and later flaps a survivor's
link just long enough to exercise the failure detector's false-alarm
path). The run must heal itself with no manual intervention: the
supervisor detects the death, the in-flight round aborts cleanly, the
dead node's pods restart on survivors from the last *committed* version,
and the application finishes with bit-exact output.

Everything is derived from the seed — the same ``--seed`` replays the
same crash instants, the same placement and the same final field hash —
so a chaos run doubles as a determinism probe: ``chaos_determinism``
runs it under both event tie-break policies and diffs the fingerprints.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import CoordinationError

#: The scenario: slm on ``RANKS`` pods of ``APP_NODES`` nodes, a round
#: every ``CHECKPOINT_INTERVAL_S``.
APP_NODES = 3
RANKS = 2
STEPS = 40
ROWS_PER_RANK = 4
COLS = 16
TOTAL_WORK_S = 4.0
MEMORY_MB_PER_RANK = 2.0
CHECKPOINT_INTERVAL_S = 0.6
#: The crash arms just before the second round and fires mid-save once
#: the round is actually in flight (round starts drift with the
#: workload, so a fixed-clock crash would miss the window): a seeded
#: ``[0, CRASH_JITTER_S)`` into the first round in flight.
CRASH_AT = 2 * CHECKPOINT_INTERVAL_S
CRASH_JITTER_S = 0.008
#: Simulated seconds the app gets to finish before the run reports it
#: incomplete.
LIMIT_S = 60.0

@dataclass
class ChaosResult:
    """Everything ``repro chaos`` reports (and the tests assert on)."""

    seed: int
    tiebreak: str
    sim_time_s: float = 0.0
    completed: bool = False
    output_correct: bool = False
    #: sha256 of the final global field — the bit-for-bit replay probe.
    field_hash: str = ""
    #: Store/clock digest (same scheme as ``repro analyze determinism``).
    state_hash: str = ""
    rounds_committed: int = 0
    rounds_aborted: int = 0
    deaths: List[str] = field(default_factory=list)
    false_alarms: int = 0
    #: One entry per automatic failover: MTTR and its phase breakdown.
    failovers: List[Dict[str, Any]] = field(default_factory=list)
    failover_failures: List[str] = field(default_factory=list)
    sanitizer_violations: int = 0
    sanitizer_report: str = ""
    frames_dropped: int = 0
    chaos_log: List[Dict[str, Any]] = field(default_factory=list)
    #: Suspect-state eviction mode (heartbeat mute, no real crash).
    evict_mode: bool = False
    #: One entry per suspect-state live eviction (``supervisor.evictions``).
    evictions: List[Dict[str, Any]] = field(default_factory=list)
    #: Storage-loss mode: the crashed node held chunk replicas, no pods.
    kill_replica_mode: bool = False
    #: Chunks the re-replication daemon repaired after the loss.
    rereplicated_chunks: int = 0
    #: Chunks still below target replication when the run ended.
    under_replicated_after: int = 0
    #: Every committed version still reconstructible from survivors.
    versions_reconstructible: bool = False

    @property
    def mttr_s(self) -> Optional[float]:
        """Detection-to-serving time of the first failover, seconds."""
        if not self.failovers:
            return None
        return self.failovers[0]["phases"]["total"]

    @property
    def ok(self) -> bool:
        base = (self.completed and self.output_correct
                and self.sanitizer_violations == 0
                and not self.failover_failures)
        if self.evict_mode:
            # The healthy-but-silent node's pods must have been live-
            # migrated away — every eviction succeeded, and did so while
            # the node was still merely *suspect* (bit-exact output then
            # proves no acknowledged data was lost across the move).
            return (base and bool(self.evictions)
                    and all(entry.get("ok")
                            and entry.get("before_declaration")
                            for entry in self.evictions))
        if self.kill_replica_mode:
            # Pure storage loss: the dead node hosted no pods, so no
            # failover may fire — but every committed version must stay
            # reconstructible and the re-replication daemon must have
            # repaired the chunk space back to full replication.
            return (base and not self.failovers
                    and self.versions_reconstructible
                    and self.rereplicated_chunks > 0
                    and self.under_replicated_after == 0)
        return base and bool(self.failovers)

    def render(self) -> str:
        head = "chaos: PASS" if self.ok else "chaos: FAIL"
        lines = [
            f"{head} (seed={self.seed}, tiebreak={self.tiebreak}, "
            f"t={self.sim_time_s:.3f}s)",
            f"  completed={self.completed} "
            f"output_correct={self.output_correct} "
            f"field_hash={self.field_hash[:16]}",
            f"  rounds: committed={self.rounds_committed} "
            f"aborted={self.rounds_aborted}",
            f"  deaths={self.deaths} false_alarms={self.false_alarms} "
            f"frames_dropped={self.frames_dropped}",
        ]
        for fo in self.failovers:
            phases = fo["phases"]
            lines.append(
                f"  failover[{fo['app']}]: {fo['dead_node']} -> "
                f"{fo['placement']} epoch {fo['epoch']} "
                f"attempts={fo['attempts']}")
            lines.append(
                "    mttr={total:.3f}s (detect={detect:.3f} "
                "verify={verify:.3f} place={place:.3f} "
                "restart={restart:.3f})".format(**phases))
        for entry in self.evictions:
            if entry.get("ok"):
                lines.append(
                    f"  evicted[{entry['pod']}]: {entry['from']} -> "
                    f"{entry['to']} rounds={entry['rounds']} "
                    f"pause={entry['pause_window_s'] * 1e3:.2f}ms "
                    f"before_declaration={entry['before_declaration']}")
            else:
                lines.append(
                    f"  eviction FAILED[{entry['pod']}]: "
                    f"{entry.get('reason', '?')}")
        for reason in self.failover_failures:
            lines.append(f"  failover FAILED: {reason}")
        if self.kill_replica_mode:
            lines.append(
                f"  replica loss: rereplicated="
                f"{self.rereplicated_chunks} "
                f"under_replicated={self.under_replicated_after} "
                f"reconstructible={self.versions_reconstructible}")
        lines.append(f"  {self.sanitizer_report.splitlines()[0]}")
        return "\n".join(lines)


def run_chaos(seed: int = 7,
              crash_node_index: int = 0,
              link_flap: bool = True,
              evict_on_suspect: bool = False,
              kill_replica: bool = False,
              tiebreak: str = "fifo") -> ChaosResult:
    """One seeded chaos run; see the module docstring for the scenario.

    The default crash lands ~10 ms into the second checkpoint round —
    mid-save, the worst moment: the round must abort (a dead node never
    writes another WAL record) and failover must fall back to the round
    that *committed*, not the one in flight.

    With ``evict_on_suspect`` the scenario changes: instead of a crash,
    the target node's *heartbeats* are muted while it stays fully alive
    (silence outlasting the death lease). The supervisor must live-
    migrate its pods to a healthy node while the node is still merely
    suspect — before the (false) death declaration — and the app must
    still finish bit-exact, proving no acknowledged data was lost.

    With ``kill_replica`` the crash targets *storage*, not compute: the
    cluster runs the sharded store at replication factor 2, and the
    victim is the last application node — which hosts chunk replicas
    but no pods under the default placement. Killing it mid-round must
    not trigger any failover; instead every committed version must stay
    reconstructible from the surviving replicas and the background
    re-replication daemon must repair the chunk space back to full
    replication before the run ends.
    """
    from repro.analysis.determinism import state_hash
    from repro.apps.slm import reference_solution, slm_factory
    from repro.cruz.cluster import CruzCluster
    from repro.cruz.faults import ChaosInjector
    from repro.cruz.supervisor import LEASE_MISSES, WORST_CASE_BEAT_S

    rows = ROWS_PER_RANK * RANKS
    result = ChaosResult(seed=seed, tiebreak=tiebreak,
                         evict_mode=evict_on_suspect,
                         kill_replica_mode=kill_replica)
    if kill_replica:
        # The victim must be a replica-only node: the default placement
        # packs the ranks onto the low-index nodes, so the last node
        # holds chunk copies (rf=2 ring successors) but no pods.
        crash_node_index = APP_NODES - 1
    cluster = CruzCluster(APP_NODES, seed=seed, supervise=True,
                          sanitize=True, tiebreak=tiebreak,
                          evict_on_suspect=evict_on_suspect,
                          replication_factor=2 if kill_replica else None)
    app = cluster.launch_app_factory(
        "slm", RANKS,
        slm_factory(RANKS, global_rows=rows, cols=COLS, steps=STEPS,
                    total_work_s=TOTAL_WORK_S,
                    memory_mb_per_rank=MEMORY_MB_PER_RANK))

    def done() -> bool:
        programs = cluster.app_programs(app)
        return (len(programs) == RANKS
                and all(p.step_count >= STEPS for p in programs))

    def members_alive() -> bool:
        return all(
            any(pod.name in agent.pods and not agent.crashed
                for agent in cluster.agents)
            for pod in app.pods)

    def checkpoint_daemon():
        while True:
            yield cluster.sim.timeout(CHECKPOINT_INTERVAL_S)
            if done():
                return
            if cluster.supervisor.failover_active(app.name) \
                    or cluster.supervisor.eviction_active(app.name) \
                    or not members_alive():
                continue
            try:
                yield from cluster.coordinator.checkpoint(app)
                result.rounds_committed += 1
            except CoordinationError:
                # A chaos-aborted round: the supervisor (or the
                # coordinator's own timeout) failed it under us. The
                # next tick retries against the healed membership.
                result.rounds_aborted += 1

    cluster.sim.process(checkpoint_daemon(), name="checkpoint-daemon")

    chaos = ChaosInjector(cluster)
    if evict_on_suspect:
        # Healthy node, silent liveness path: mute long past the death
        # lease so the eviction has to beat the declaration, not wait
        # it out.
        chaos.schedule_heartbeat_mute(
            crash_node_index, at=CRASH_AT,
            duration_s=(LEASE_MISSES + 3) * WORST_CASE_BEAT_S)
    else:
        chaos.schedule_node_crash_mid_round(
            crash_node_index, after=CRASH_AT, within_s=CRASH_JITTER_S)
    if link_flap and not evict_on_suspect and not kill_replica:
        # A survivor's link drops for less than the death threshold:
        # the detector must suspect and then stand down, not declare.
        # (Skipped for the storage-loss scenario: the flap probes the
        # failure detector, which the compute-crash scenario already
        # covers, and its dropped app frames would only add
        # retransmission noise to the healing measurement.)
        flap_node = (crash_node_index + 1) % APP_NODES
        flap_misses = max(1, LEASE_MISSES - 2)
        chaos.schedule_link_flap(
            flap_node, at=CRASH_AT + 1.0,
            duration_s=flap_misses * WORST_CASE_BEAT_S)

    try:
        cluster.run_until(done, limit=LIMIT_S)
        result.completed = True
    except TimeoutError:
        result.completed = False
    cluster.run_for(0.2)  # drain retransmits and trailing ACKs

    result.sim_time_s = cluster.sim.now
    if result.completed:
        programs = sorted(cluster.app_programs(app),
                          key=lambda p: p.rank)
        final = np.vstack([p.q for p in programs])
        expected = reference_solution(rows, COLS, STEPS)
        result.output_correct = bool(np.array_equal(final, expected))
        result.field_hash = hashlib.sha256(
            np.ascontiguousarray(final).tobytes()).hexdigest()

    # Deep final audit: every manifest re-read, refcounts re-derived.
    sanitizer = cluster.trace.sanitizer
    sanitizer.check_store(cluster.store, time=cluster.sim.now,
                          context="final", deep=True)
    result.sanitizer_violations = len(sanitizer.violations)
    result.sanitizer_report = sanitizer.report()

    supervisor = cluster.supervisor
    result.deaths = [death["node"] for death in supervisor.deaths]
    result.false_alarms = len(cluster.spans.query(
        "failover.detect", declared=False))
    for record in supervisor.failovers:
        entry = asdict(record)
        entry["phases"] = record.phases()
        result.failovers.append(entry)
    result.failover_failures = [str(error)
                                for error in supervisor.failures]
    result.evictions = [dict(entry) for entry in supervisor.evictions]
    dropped = cluster.metrics.counter("link.frames_dropped")
    result.frames_dropped = int(dropped.value)
    result.chaos_log = list(chaos.log)
    store = cluster.store
    result.rereplicated_chunks = int(
        store.stats.get("rereplicated_chunks", 0))
    result.under_replicated_after = len(store.under_replicated())
    result.versions_reconstructible = all(
        set(store.versions(pod.name))
        == set(store.reconstructible_versions(pod.name))
        for pod in app.pods)
    result.state_hash = state_hash(cluster)
    return result


def _fingerprint(r: ChaosResult) -> Dict[str, Any]:
    """The tiebreak-comparable projection of one chaos run."""
    return {
        "completed": r.completed,
        "output_correct": r.output_correct,
        "field_hash": r.field_hash,
        "state_hash": r.state_hash,
        "rounds": [r.rounds_committed, r.rounds_aborted],
        "deaths": r.deaths,
        "evictions": [
            {key: entry.get(key)
             for key in ("pod", "from", "to", "ok", "rounds",
                         "pause_window_s", "before_declaration")}
            for entry in r.evictions],
        "failovers": [
            {"dead_node": fo["dead_node"],
             "epoch": fo["epoch"],
             "attempts": fo["attempts"],
             "placement": fo["placement"],
             "phases": fo["phases"]}
            for fo in r.failovers],
        "chaos_log": r.chaos_log,
        "replica": [r.rereplicated_chunks,
                    r.under_replicated_after,
                    r.versions_reconstructible],
        "sim_time": round(r.sim_time_s, 12),
    }


def chaos_determinism(**kwargs):
    """Run the chaos scenario under FIFO and LIFO event tie-breaking.

    Returns ``(fifo_result, divergences)``: every fingerprint path where
    the two runs disagree (schedule races); empty means the healing
    pipeline is deterministic."""
    from repro.analysis.determinism import tiebreak_diff

    fifo, _lifo, divergences = tiebreak_diff(
        lambda tiebreak: run_chaos(tiebreak=tiebreak, **kwargs),
        "chaos", project=_fingerprint)
    return fifo, divergences

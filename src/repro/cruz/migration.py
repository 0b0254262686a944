"""Pod migration: pre-copy rounds, then one isolated cutover.

The paper's §4.2 moves a pod by isolating it behind a netfilter drop
rule, checkpointing it, and restoring it on another node. :func:`migrate`
is the one implementation of that move. It shortens the isolated window
with a convergence loop in the style of "A Generic Checkpoint-Restart
Mechanism for Virtual Machines" (PAPERS.md):

1. **Pre-copy rounds** — while the pod keeps running, take incremental
   checkpoints through the content-addressed chunk store
   (``concurrent=True``: the pod is stopped only for the capture/serialize
   window, the pipelined disk write overlaps its execution). The target
   node prefetches each round's chunks in parallel with the running pod,
   so the image is warm on arrival. Pages re-dirtied during a round stay
   dirty (``AddressSpace.clear_dirty_captured``) and form the next
   round's delta.
2. **Convergence** — stop when the remaining dirty bytes fall to
   ``DIRTY_THRESHOLD_BYTES`` or ``MAX_ROUNDS`` is hit.
3. **Cutover** — only now install the netfilter drop rule and pause the
   pod: capture the final image, kill the source pod, restore on the
   target charging disk reads only for the cold remainder
   (``warm_bytes``). Anything the old kernel half ACKed before the final
   capture is in the image; nothing is ACKed after it, so no
   acknowledged TCP data is ever lost.

Stop-and-copy (``live=False``, the §4.2 baseline the benchmark compares
against) is the same path with zero rounds: the cutover then takes a
full save, every chunk is cold, and the pause is the whole image write
plus the whole image read.

Every round is recorded as a ``migrate.precopy.round`` span (with a
``migrate.prefetch`` child on the target node) under a detached
``migrate`` root, and the client-visible pause is observed into the
``migrate.pause_window_s`` histogram. Round images are discarded
(refcount GC) once the migration settles, so the store's version
history looks exactly like a single-checkpoint migration.

Failure semantics. A round's image is taken while the pod keeps
running, so a source that dies during a round, or a round image that
surviving replicas cannot rebuild, aborts the move with
``source_destroyed=False`` and ``app.pods`` untouched; whatever killed
the pod owns the recovery, typically the supervisor's failover. The
cutover's image is captured behind the drop rule: once it is committed
and reconstructible it *is* the pod, and it is restored on the target
whatever happens to the source node after the capture (one that
surviving replicas cannot rebuild is discarded, and the pod resumes on
the source). If that restore
fails, the image is restored on the source node instead
(``MigrationError.rolled_back``). An aborted move's error names the
newest version the store still holds after its round images are gone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Generator, List, Optional, Tuple

from repro.errors import MigrationError, PodError
from repro.zap.pod import Pod

#: Cut over after at most this many pre-copy rounds even if the dirty
#: set never shrinks below the threshold (a write-hot pod would
#: otherwise pre-copy forever).
MAX_ROUNDS = 5
#: Cut over once the next delta is this small: below it the pause is
#: dominated by the fixed checkpoint/restart costs anyway.
DIRTY_THRESHOLD_BYTES = 64 * 1024


@dataclass
class PrecopyRound:
    """One completed pre-copy iteration."""

    index: int
    version: int
    #: Pod-wide dirty bytes when the round started (the delta it ships).
    dirty_bytes_before: int
    #: Bytes the round actually wrote to the store (new chunks).
    written_bytes: int
    #: Total chunk bytes the round's manifest references.
    total_chunk_bytes: int
    #: Bytes the target prefetched for this round while the pod ran.
    prefetch_bytes: int
    #: How long the pod was stopped for the capture/serialize window.
    stop_s: float
    #: Wall time of the whole round (write + prefetch, pod running).
    round_s: float


@dataclass
class MigrationReport:
    """What one migration did; ``cluster.last_migration`` after success."""

    pod_name: str
    source_node: str
    target_node: str
    mode: str                      # "precopy" | "stop_and_copy"
    started_at: float
    rounds: List[PrecopyRound] = field(default_factory=list)
    #: True when pre-copy hit the dirty threshold (False: MAX_ROUNDS,
    #: or no rounds at all).
    converged: bool = False
    #: Client-visible pause: netfilter install -> resume on the target.
    pause_window_s: float = 0.0
    #: Bytes staged on the target before the pause began.
    warm_bytes: int = 0
    #: Bytes the target reads: every round's prefetch plus the cold
    #: remainder of the final image. The source's writes are not moves.
    total_bytes_moved: int = 0
    final_version: int = 0
    completed_at: float = 0.0

    @property
    def precopy_rounds(self) -> int:
        return len(self.rounds)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["precopy_rounds"] = self.precopy_rounds
        return data


def pod_dirty_bytes(pod: Pod) -> int:
    """The pod-wide incremental delta a checkpoint would ship now."""
    return sum(proc.memory.dirty_bytes() for proc in pod.live_processes())


def owning_app(cluster, pod: Pod):
    """The app whose membership includes exactly this pod object.

    Matching is by identity, not name: two apps may both own a pod
    called ``kv``, and only the one holding *this* pod may ever have its
    membership rewritten by a migration.
    """
    for app in cluster.apps.values():
        if any(member is pod for member in app.pods):
            return app
    return None


def migration_preflight(cluster, pod: Pod, target_node_index: int):
    """Resolve and validate both agents; returns (source, target).

    Raises a typed :class:`MigrationError` (``source_destroyed=False``,
    ``version=None`` — nothing has happened yet) instead of letting a
    missing source agent surface as ``AttributeError``.
    """
    if not 0 <= target_node_index < cluster.n_app_nodes:
        raise PodError(
            f"node {target_node_index} is not an application node")
    target_name = cluster.nodes[target_node_index].name
    source_agent = cluster._agent_for(pod.node.name)
    if source_agent is None:
        raise MigrationError(
            pod.name, None, target_name,
            f"no checkpoint agent on source node {pod.node.name}",
            source_destroyed=False)
    if source_agent.crashed:
        raise MigrationError(
            pod.name, None, target_name,
            f"source node {pod.node.name} is dead (agent crashed)",
            source_destroyed=False)
    target_agent = cluster.agents[target_node_index]
    if target_agent.crashed or target_node_index in cluster.dead_nodes:
        raise MigrationError(
            pod.name, None, target_name,
            f"target node {target_name} is dead",
            source_destroyed=False)
    return source_agent, target_agent


def _fixup_app(app, pod: Pod, failure: Optional[MigrationError],
               replacement: Optional[Pod]) -> None:
    """Re-point the owning app's membership after a migration settles.

    Success: the migrated pod object is swapped for the restored one.
    Failure after the source was destroyed: the rolled-back pod takes
    its place, or (rollback failed too) the member is dropped rather
    than left dangling. Failure with the source left as found: no
    rewrite at all.
    """
    if app is None:
        return
    if failure is None:
        app.pods = [replacement if member is pod else member
                    for member in app.pods]
        return
    if not failure.source_destroyed:
        return
    fallback = getattr(failure, "pod", None)
    if fallback is not None:
        app.pods = [fallback if member is pod else member
                    for member in app.pods]
    else:
        app.pods = [member for member in app.pods if member is not pod]


def _source_died(source_agent, pod: Pod) -> bool:
    return (source_agent.crashed
            or pod.name not in source_agent.pods
            or not pod.live_processes())


def _left_on_source(cluster, pod: Pod, report: MigrationReport,
                    intermediates: List[Tuple[str, int]],
                    cause: str) -> MigrationError:
    """The error of a move aborted before the source pod was destroyed.

    Discards this move's images first, so the error names the newest
    version the store still holds (``None`` when it holds none)."""
    for pod_name, version in intermediates:
        cluster.store.discard(pod_name, version)
    intermediates.clear()
    held = cluster.store.versions(pod.name)
    return MigrationError(
        pod.name, held[-1] if held else None, report.target_node, cause,
        source_destroyed=False)


def migrate(cluster, pod: Pod, target_node_index: int,
            live: bool) -> Generator:
    """Simulation coroutine; value is ``(restored_pod, report)``.

    ``live`` runs up to ``MAX_ROUNDS`` pre-copy rounds before the
    cutover; without it the cutover comes first (stop-and-copy). Usable
    from any sim process: the supervisor's suspect-eviction runs it
    inline.
    """
    sim = cluster.sim
    spans = cluster.trace.spans
    source_agent, target_agent = migration_preflight(
        cluster, pod, target_node_index)
    source_node, target_node = pod.node, target_agent.node
    app = owning_app(cluster, pod)
    report = MigrationReport(
        pod_name=pod.name, source_node=source_node.name,
        target_node=target_node.name,
        mode="precopy" if live else "stop_and_copy", started_at=sim.now)
    root = spans.begin("migrate", node=source_node.name, pod=pod.name,
                       mode=report.mode, target=target_node.name,
                       attach=False, orphan=True)
    #: Round images superseded by the final one; discarded on the way
    #: out (success or failure) so the version history matches a
    #: single-checkpoint migration.
    intermediates: List[Tuple[str, int]] = []
    try:
        report.converged = yield from _precopy_rounds(
            cluster, pod, source_agent, target_node, report, root,
            intermediates, MAX_ROUNDS if live else 0)
        restored = yield from _cutover(
            cluster, pod, source_agent, target_node, report, root,
            intermediates)
    except MigrationError as failure:
        _fixup_app(app, pod, failure, None)
        raise
    else:
        _fixup_app(app, pod, None, restored)
        report.completed_at = sim.now
        cluster.trace.metrics.counter("migrate.completed").inc(
            label=report.mode)
        return restored, report
    finally:
        for pod_name, version in intermediates:
            cluster.store.discard(pod_name, version)
        spans.end(root, rounds=report.precopy_rounds,
                  pause_window_s=report.pause_window_s)


def _precopy_rounds(cluster, pod: Pod, source_agent, target_node,
                    report: MigrationReport, root,
                    intermediates: List[Tuple[str, int]],
                    rounds: int) -> Generator:
    """Up to ``rounds`` incremental rounds with the pod running; value
    is whether the dirty set fell under the threshold."""
    sim = cluster.sim
    spans = cluster.trace.spans
    engine = source_agent.checkpoint_engine
    for index in range(1, rounds + 1):
        if _source_died(source_agent, pod):
            raise _left_on_source(cluster, pod, report, intermediates,
                                  "source node died mid-pre-copy")
        round_started = sim.now
        dirty_before = pod_dirty_bytes(pod)
        round_span = spans.begin(
            "migrate.precopy.round", node=pod.node.name,
            pod=pod.name, parent=root, attach=False, round=index)
        resumed = {"at": round_started}
        image = yield from engine.checkpoint(
            pod, resume=True, incremental=True, concurrent=True,
            on_captured=lambda: resumed.__setitem__("at", sim.now))
        intermediates.append((pod.name, image.version))
        if _source_died(source_agent, pod):
            # The node died under the engine: whatever it "committed"
            # is a half image of a dead pod — discard it with the other
            # intermediates and let failover own the recovery.
            spans.end(round_span, aborted=True)
            raise _left_on_source(cluster, pod, report, intermediates,
                                  "source node died mid-pre-copy")
        # The target can only stage what surviving replicas still
        # hold: a shard lost between this round's commit and the
        # prefetch makes the version unreconstructible, so abort with
        # the pod still running on the source.
        if not cluster.store.version_reconstructible(
                pod.name, image.version):
            spans.end(round_span, aborted=True)
            raise _left_on_source(
                cluster, pod, report, intermediates,
                f"pre-copy round {index} (v{image.version}) is not "
                "reconstructible from surviving replicas")
        # The target stages this round's chunks while the pod runs:
        # round 1 pulls everything the manifest references (older
        # checkpoints' chunks included), later rounds only the delta.
        prefetch_bytes = (image.total_chunk_bytes if index == 1
                          else image.written_bytes)
        with spans.span("migrate.prefetch", node=target_node.name,
                        pod=pod.name, parent=round_span, attach=False,
                        nbytes=prefetch_bytes):
            yield sim.timeout(
                prefetch_bytes / target_node.costs.disk_read_bandwidth)
        report.total_bytes_moved += prefetch_bytes
        stop_s = resumed["at"] - round_started
        report.rounds.append(PrecopyRound(
            index=index, version=image.version,
            dirty_bytes_before=dirty_before,
            written_bytes=image.written_bytes,
            total_chunk_bytes=image.total_chunk_bytes,
            prefetch_bytes=prefetch_bytes,
            stop_s=stop_s, round_s=sim.now - round_started))
        spans.end(round_span, dirty_before=dirty_before,
                  written=image.written_bytes, stop_s=stop_s)
        if pod_dirty_bytes(pod) <= DIRTY_THRESHOLD_BYTES:
            return True
    return False


def _cutover(cluster, pod: Pod, source_agent, target_node,
             report: MigrationReport, root,
             intermediates: List[Tuple[str, int]]) -> Generator:
    """Isolate, capture the final image, and restore it on the target;
    value is the restored pod."""
    sim = cluster.sim
    spans = cluster.trace.spans
    source_node = pod.node
    if _source_died(source_agent, pod):
        raise _left_on_source(cluster, pod, report, intermediates,
                              "source node died mid-pre-copy")
    cutover_span = spans.begin("migrate.cutover",
                               node=source_node.name, pod=pod.name,
                               parent=root, attach=False)
    pause_started = sim.now
    # Isolation starts only now: everything the old kernel half ACKed
    # before the final capture lands in the image; nothing is ACKed
    # after it.
    rule_id = source_node.stack.netfilter.drop_all_for(pod.ip)
    yield sim.timeout(source_node.costs.netfilter_update)
    try:
        # After a round only the delta is new; with no round the save
        # is full and writes every chunk, so none of it is warm.
        final = yield from source_agent.checkpoint_engine.checkpoint(
            pod, resume=False, incremental=bool(report.rounds))
        # Captured behind the drop rule, so the image is the pod: once
        # surviving replicas can rebuild it, it is restored whatever
        # happens to the source node after the capture. Destroy the
        # source only past that check.
        if not cluster.store.version_reconstructible(
                pod.name, final.version):
            intermediates.append((pod.name, final.version))
            pod.continue_all()  # final capture left it stopped
            raise _left_on_source(
                cluster, pod, report, intermediates,
                f"final image v{final.version} is not reconstructible "
                "from surviving replicas; pod left on source")
        cluster.destroy_pod(pod)
    finally:
        source_node.stack.netfilter.remove_rule(rule_id)
    # Every chunk the final save did not write is already staged on
    # the target; the restore reads only the cold remainder.
    warm_bytes = final.total_chunk_bytes - final.written_bytes
    report.warm_bytes = warm_bytes
    report.total_bytes_moved += final.state_bytes - warm_bytes
    report.final_version = final.version
    restored = yield from _restore_or_roll_back(
        cluster, pod, final, source_node, target_node, warm_bytes)
    report.pause_window_s = sim.now - pause_started
    spans.end(cutover_span, pause_window_s=report.pause_window_s)
    cluster.trace.metrics.histogram("migrate.pause_window_s").observe(
        report.pause_window_s)
    return restored


def _restore_or_roll_back(cluster, pod: Pod, image, source_node,
                          target_node, warm_bytes: int) -> Generator:
    """Restore the committed image on the target; value is the pod.

    The source pod is already destroyed, so the image is the only copy:
    if the target restore fails, try to restore it where it came from,
    then raise :class:`MigrationError` either way."""
    try:
        return (yield from cluster.restore_pod(image, target_node,
                                               warm_bytes=warm_bytes))
    except Exception as error:  # noqa: BLE001 - engine failure
        try:
            fallback = yield from cluster.restore_pod(image, source_node)
        except Exception as rollback_error:  # noqa: BLE001
            failure = MigrationError(
                pod.name, image.version, target_node.name, error,
                rolled_back=False)
            failure.rollback_error = rollback_error
            raise failure from error
        failure = MigrationError(
            pod.name, image.version, target_node.name, error,
            rolled_back=True)
        failure.pod = fallback
        raise failure from error

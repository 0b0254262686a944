"""Node supervisor: heartbeat failure detector and automatic failover.

The paper's headline use case (§1, §4.2) is surviving node failure:
after a crash, pods restart from the last committed checkpoint on
*surviving* nodes. The protocol machinery (coordinated restart, WAL,
image versioning) has always been here; this module adds the part that
*notices* failures and decides to recover, in the shape DMTCP-style
user-level coordinators use:

* every agent sends periodic fire-and-forget ``HEARTBEAT`` beacons
  (seeded jitter, so beats never collide on a simulator instant);
* the :class:`NodeSupervisor` keeps a per-node lease on the simulator
  clock and declares a node **dead** after ``LEASE_MISSES`` worst-case
  beat intervals of silence;
* every ``up``/``down`` transition is written ahead to the shared-store
  :class:`~repro.cruz.storage.LivenessLog`, so a restarted supervisor
  inherits the cluster's liveness map instead of rediscovering it;
* a death declaration fails the coordinator's in-flight rounds (their
  normal abort path makes survivors discard half-round images), then
  drives per-app failover: walk the app's committed checkpoint rounds
  (``RoundLog.cuts``) newest first to the first whose images all load
  and ``verify_image`` green, place the dead node's pods on surviving
  nodes (least-loaded, lowest index wins ties), and restart that round
  — retrying with backoff if the chosen target dies mid-failover.

Every failover phase is recorded as spans (``failover`` with children
``failover.verify`` / ``failover.place`` / ``failover.restart``, plus
the detached ``failover.detect`` opened at first suspicion), so MTTR
and its breakdown are measured, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Set

from repro.cruz import protocol
from repro.cruz.protocol import (
    SUPERVISOR_PORT,
    ControlMessage,
    ReliableEndpoint,
)
from repro.cruz.migration import migrate, owning_app
from repro.cruz.storage import LivenessLog
from repro.errors import (
    CheckpointError,
    CoordinationError,
    FailoverError,
    MigrationError,
    RestartMismatchError,
    StoreError,
)
from repro.net.addresses import Ipv4Address
from repro.zap.verify import verify_image


#: Agent beacon period and its seeded uniform jitter (simulated
#: seconds), and the worst-case beats of silence that declare a node
#: dead. The detector's whole timing model; chaos schedules derive
#: their flap and mute windows from these.
HEARTBEAT_INTERVAL_S = 0.05
HEARTBEAT_JITTER_S = 0.01
WORST_CASE_BEAT_S = HEARTBEAT_INTERVAL_S + HEARTBEAT_JITTER_S
LEASE_MISSES = 3
#: Coordinated-restart attempts per failover before it fails typed, and
#: the linear backoff step between them (lets an aborted round's cleanup
#: land and the monitor declare further deaths).
MAX_RESTART_ATTEMPTS = 3
RETRY_BACKOFF_S = 0.25


@dataclass
class NodeLease:
    """Detector-side liveness state for one watched node."""

    index: int
    name: str
    #: Simulator time of the most recent beat (or of registration).
    last_beat: float = 0.0
    beats: int = 0
    alive: bool = True
    #: Set when the node first misses a worst-case beat interval.
    suspect_since: Optional[float] = None
    #: Open ``failover.detect`` span while suspect (detached).
    detect_span: object = None


@dataclass
class FailoverRecord:
    """One completed automatic failover, with its span-derived phases."""

    app: str
    dead_node: str
    #: The committed checkpoint round restored.
    epoch: int
    attempts: int
    #: pod name -> node name it was restarted on.
    placement: Dict[str, str] = field(default_factory=dict)
    #: First missed beat (detection starts the MTTR clock).
    suspected_at: float = 0.0
    #: Death declaration (detect phase ends here).
    declared_at: float = 0.0
    #: Restart round committed, pods serving again.
    completed_at: float = 0.0
    detect_s: float = 0.0
    verify_s: float = 0.0
    place_s: float = 0.0
    restart_s: float = 0.0

    @property
    def mttr_s(self) -> float:
        """Detection -> serving (§1's recovery-time story)."""
        return self.completed_at - self.suspected_at

    def phases(self) -> Dict[str, float]:
        return {"detect": self.detect_s, "verify": self.verify_s,
                "place": self.place_s, "restart": self.restart_s,
                "total": self.mttr_s}


class NodeSupervisor:
    """Watches agent heartbeats; declares deaths; drives failover.

    Runs on the coordinator node (its own ``ReliableEndpoint`` on
    ``SUPERVISOR_PORT``) so, like the coordinator, it survives any
    application-node failure.
    """

    def __init__(self, cluster, node,
                 evict_on_suspect: bool = False):
        self.cluster = cluster
        self.node = node
        self.evict_on_suspect = evict_on_suspect
        self.settle_s = 0.02
        self.liveness: LivenessLog = cluster.store.liveness
        self.leases: Dict[int, NodeLease] = {}
        self.heartbeats_received = 0
        self.deaths: List[Dict] = []
        self.failovers: List[FailoverRecord] = []
        self.failures: List[FailoverError] = []
        #: One entry per suspect-state eviction attempt (see ``_evict``).
        self.evictions: List[Dict] = []
        self._active_failovers: Set[str] = set()
        #: Node indices with an eviction sweep in flight.
        self._evicting_nodes: Set[int] = set()
        #: App names with a member currently being live-migrated away.
        self._evicting_apps: Set[str] = set()
        self._monitoring = False
        #: Last logged state per node, inherited from the liveness WAL —
        #: a replacement supervisor starts knowing who is already dead.
        self._inherited = self.liveness.last_states()
        self.endpoint = ReliableEndpoint(
            self.node, SUPERVISOR_PORT, self._on_message,
            faults=cluster.fault_injector,
            name=f"supervisor@{self.node.name}")

    # -- lease bookkeeping -------------------------------------------------

    @property
    def _sim(self):
        return self.node.sim

    @property
    def _spans(self):
        return self.node.trace.spans

    def watch(self, node_index: int) -> NodeLease:
        """Start tracking one application node's liveness."""
        name = self.cluster.nodes[node_index].name
        lease = NodeLease(index=node_index, name=name,
                          last_beat=self._sim.now)
        if self._inherited.get(name) == LivenessLog.DOWN:
            lease.alive = False
        self.leases[node_index] = lease
        return lease

    def start(self) -> None:
        """Launch the monitor loop (idempotent)."""
        if self._monitoring:
            return
        self._monitoring = True
        self._sim.process(self._monitor_loop(),
                          name=f"supervisor@{self.node.name}")

    def close(self) -> None:
        """Stop receiving (supervisor crash / replacement)."""
        self.endpoint.close()

    def _on_message(self, payload: ControlMessage,
                    _src_ip: Ipv4Address) -> None:
        if payload.kind != protocol.HEARTBEAT:
            return
        self.heartbeats_received += 1
        self.node.trace.metrics.counter("supervisor.heartbeats").inc(
            label=payload.node_name)
        for lease in self.leases.values():
            if lease.name == payload.node_name:
                self._renew(lease)
                return

    def _renew(self, lease: NodeLease) -> None:
        lease.last_beat = self._sim.now
        lease.beats += 1
        if lease.suspect_since is not None:
            # False alarm: the beat arrived before the lease expired.
            self._spans.end(lease.detect_span, declared=False)
            lease.suspect_since = None
            lease.detect_span = None
        if not lease.alive:
            lease.alive = True
            self.liveness.log(lease.name, LivenessLog.UP,
                              at=self._sim.now, reason="heartbeat resumed",
                              source=self.node.name)
            self._spans.instant("supervisor.rejoin", node=self.node.name,
                                subject=lease.name)

    def _monitor_loop(self) -> Generator:
        sim = self._sim
        while True:
            yield sim.timeout(HEARTBEAT_INTERVAL_S)
            for index in sorted(self.leases):
                lease = self.leases[index]
                if not lease.alive:
                    continue
                silence = sim.now - lease.last_beat
                if silence <= WORST_CASE_BEAT_S:
                    continue
                if lease.suspect_since is None:
                    lease.suspect_since = sim.now
                    # Detached: the suspicion overlaps normal coordinator
                    # work on this node; it must not adopt children.
                    lease.detect_span = self._spans.begin(
                        "failover.detect", node=self.node.name,
                        subject=lease.name, attach=False, orphan=True)
                    if self.evict_on_suspect and \
                            lease.index not in self._evicting_nodes:
                        self._evicting_nodes.add(lease.index)
                        sim.process(self._evict(lease),
                                    name=f"evict(node{lease.index})")
                if silence > LEASE_MISSES * WORST_CASE_BEAT_S:
                    self._declare_dead(lease)

    # -- suspect-state eviction --------------------------------------------

    def _evict(self, lease: NodeLease) -> Generator:
        """Proactively live-migrate every pod off a *suspect* node.

        A suspect lease (one missed worst-case beat) precedes a death
        declaration by ``LEASE_MISSES - 1`` further beats — enough time
        for converged pre-copy migrations to move the pods with a
        near-zero pause, turning reactive failover (restore from the
        last checkpoint, losing progress since it) into zero-loss
        preemption. If the node really is dead, the migration preflight
        or its mid-round death check fails fast and normal failover owns
        the recovery; if the suspicion was a false alarm, the migration
        was merely transparent.
        """
        cluster = self.cluster
        sim = self._sim
        agent = cluster.agents[lease.index]
        span = self._spans.begin("supervisor.evict", node=self.node.name,
                                 subject=lease.name, attach=False,
                                 orphan=True)
        moved = 0
        try:
            # Let any in-flight coordinated round settle first: its
            # agent-side handler may be holding the pod stopped under
            # the round's own drop rule.
            while cluster.store.rounds.in_flight():
                yield sim.timeout(self.settle_s)
            for pod_name in sorted(agent.pods):
                pod = agent.pods.get(pod_name)
                if pod is None:
                    continue
                entry = {"pod": pod_name, "from": lease.name,
                         "started_at": sim.now, "ok": False}
                placement = cluster.place([pod], self._node_alive,
                                          exclude={lease.index})
                if placement is None:
                    entry["reason"] = "no live target"
                    self.evictions.append(entry)
                    break
                app = owning_app(cluster, pod)
                app_name = app.name if app is not None else None
                if app_name is not None:
                    self._evicting_apps.add(app_name)
                try:
                    _restored, report = yield from migrate(
                        cluster, pod, placement[pod_name], live=True)
                except (MigrationError, CheckpointError,
                        CoordinationError) as error:
                    entry["reason"] = str(error)
                    self.evictions.append(entry)
                    self._spans.instant(
                        "supervisor.evict_failed", node=self.node.name,
                        subject=lease.name, pod=pod_name,
                        reason=str(error))
                    break
                finally:
                    if app_name is not None:
                        self._evicting_apps.discard(app_name)
                entry.update(
                    ok=True, to=report.target_node,
                    rounds=report.precopy_rounds,
                    converged=report.converged,
                    pause_window_s=report.pause_window_s,
                    completed_at=sim.now,
                    #: still merely suspect — eviction beat declaration.
                    before_declaration=lease.alive)
                moved += 1
                self.evictions.append(entry)
                self.node.trace.metrics.counter(
                    "supervisor.evictions").inc(label=lease.name)
        finally:
            self._evicting_nodes.discard(lease.index)
            self._spans.end(span, moved=moved)

    def eviction_active(self, app_name: str) -> bool:
        """True while a member of ``app_name`` is being migrated away
        from a suspect node."""
        return app_name in self._evicting_apps

    # -- death declaration -------------------------------------------------

    def _declare_dead(self, lease: NodeLease) -> None:
        sim = self._sim
        lease.alive = False
        suspected_at = (lease.suspect_since if lease.suspect_since
                        is not None else sim.now)
        if lease.detect_span is not None:
            self._spans.end(lease.detect_span, declared=True)
        lease.detect_span = None
        lease.suspect_since = None
        reason = (f"no heartbeat from {lease.name} for "
                  f"{sim.now - lease.last_beat:.3f}s")
        self.liveness.log(lease.name, LivenessLog.DOWN, at=sim.now,
                          reason=reason, source=self.node.name)
        self.node.trace.metrics.counter("supervisor.deaths").inc(
            label=lease.name)
        self._spans.instant("supervisor.death", node=self.node.name,
                            subject=lease.name, reason=reason)
        self.deaths.append({"node": lease.name, "at": sim.now,
                            "reason": reason})
        # Rounds waiting on the dead node's <done> must not burn their
        # full timeout: fail them now so survivors discard half-round
        # images before failover picks a version.
        self.cluster.coordinator.fail_in_flight(
            f"node {lease.name} declared dead")
        for app_name in sorted(self.cluster.apps):
            app = self.cluster.apps[app_name]
            if not any(pod.node.name == lease.name for pod in app.pods):
                continue
            if app.name in self._active_failovers:
                continue
            self._active_failovers.add(app.name)
            sim.process(
                self._failover(app, lease, suspected_at),
                name=f"failover({app.name})")

    # -- failover ----------------------------------------------------------

    def _failover(self, app, lease: NodeLease,
                  suspected_at: float) -> Generator:
        sim = self._sim
        declared_at = sim.now
        # orphan: a concurrent (aborting) round may have spans open on
        # this node; adopting one as parent would let its end() cascade-
        # close the failover spans and zero the phase durations.
        root = self._spans.begin("failover", node=self.node.name,
                                 app=app.name, dead=lease.name,
                                 attach=False, orphan=True)
        try:
            verify_span = self._spans.begin(
                "failover.verify", node=self.node.name, app=app.name,
                parent=root, attach=False)
            # Let the aborted rounds settle: an abort in flight may still
            # be discarding an uncommitted version from the store.
            while self.cluster.store.rounds.in_flight():
                yield sim.timeout(self.settle_s)
            yield sim.timeout(self.settle_s)
            epoch = yield from self._choose_round(app)
            self._spans.end(verify_span, restores=epoch)

            place_span = self._spans.begin(
                "failover.place", node=self.node.name, app=app.name,
                parent=root, attach=False)
            placement = self._placement(app)
            self._spans.end(place_span)

            restart_span = self._spans.begin(
                "failover.restart", node=self.node.name, app=app.name,
                parent=root, attach=False)
            attempts = 0
            while True:
                attempts += 1
                try:
                    yield from self.cluster.restart(
                        app, [placement[pod.name] for pod in app.pods],
                        epoch)
                    break
                except RestartMismatchError:
                    # The round committed: a member missing afterwards
                    # is reported below, not retried.
                    raise
                except CoordinationError as error:
                    if attempts >= MAX_RESTART_ATTEMPTS:
                        raise FailoverError(
                            app.name, f"restart of round {epoch} failed "
                                      f"after {attempts} attempt(s): {error}")
                    # Cascading failure: the chosen target may itself
                    # have died. Back off (lets the aborted round's
                    # cleanup land and the monitor declare new deaths),
                    # then re-place on whoever still holds a lease.
                    yield sim.timeout(RETRY_BACKOFF_S * attempts)
                    placement = self._placement(app)
            self._spans.end(restart_span, attempts=attempts)
            record = FailoverRecord(
                app=app.name, dead_node=lease.name, epoch=epoch,
                attempts=attempts,
                placement={pod_name: self.cluster.nodes[index].name
                           for pod_name, index in placement.items()},
                suspected_at=suspected_at, declared_at=declared_at,
                completed_at=sim.now,
                detect_s=declared_at - suspected_at,
                verify_s=verify_span.duration,
                place_s=place_span.duration,
                restart_s=restart_span.duration)
            self.failovers.append(record)
            self.node.trace.metrics.histogram("failover.mttr_s").observe(
                record.mttr_s)
        except (FailoverError, RestartMismatchError) as error:
            failure = error if isinstance(error, FailoverError) else \
                FailoverError(app.name, str(error))
            self.failures.append(failure)
            self.node.trace.metrics.counter("failover.failures").inc(
                label=app.name)
            self._spans.instant("failover.failed", node=self.node.name,
                                app=app.name, reason=str(failure))
        finally:
            self._spans.end(root)
            self._active_failovers.discard(app.name)

    def _choose_round(self, app) -> Generator:
        """Epoch of the newest of the members' ``RoundLog.cuts`` whose
        images all verify green; a round with an image gone or not
        reconstructible is skipped. Each image inspected charges its
        simulated disk read, so ``failover.verify`` measures real work.
        """
        store = self.cluster.store
        # A node whose lease is still warm but whose agent is already
        # gone contributes no capacity and no replicas: without this,
        # losing every node at once reads as a storage problem instead
        # of the total-capacity loss it is.
        if not any(self._node_alive(i)
                   and not self.cluster.agents[i].crashed
                   for i in range(self.cluster.n_app_nodes)):
            raise FailoverError(
                app.name, "no surviving capacity: every app node is dead")
        member_names = [pod.name for pod in app.pods]
        cuts = store.rounds.cuts(member_names)
        if not cuts:
            raise FailoverError(
                app.name, "no committed checkpoint version: no round "
                          f"saved members {member_names}")
        rejected = []
        for epoch in cuts:
            images = store.rounds.images(epoch)
            if not all(store.version_reconstructible(name, images[name])
                       for name in member_names):
                continue
            for name in member_names:
                try:
                    image = store.load(name, images[name])
                except StoreError as error:
                    # A replica died between the reconstructibility scan
                    # and the read: fall back to an older round.
                    rejected.append((epoch, name, [str(error)]))
                    break
                yield self._sim.timeout(
                    image.state_bytes / self.node.costs.disk_read_bandwidth)
                report = verify_image(image)
                if not report.ok:
                    rejected.append((epoch, name, report.problems))
                    break
            else:
                return epoch
        if not rejected:
            raise FailoverError(
                app.name, "no shared committed version is reconstructible "
                          f"from surviving replicas (rounds: {cuts})")
        raise FailoverError(
            app.name, f"no committed round passes verification "
                      f"(rejected: {rejected})")

    def _node_alive(self, index: int) -> bool:
        lease = self.leases.get(index)
        if lease is not None:
            return lease.alive
        return not self.cluster.agents[index].crashed

    def _placement(self, app) -> Dict[str, int]:
        """pod name -> node index among the nodes still holding a lease."""
        placement = self.cluster.place(app.pods, self._node_alive)
        if placement is None:
            raise FailoverError(
                app.name, "no surviving capacity: every app node is dead")
        return placement

    def failover_active(self, app_name: str) -> bool:
        """True while an automatic failover of ``app_name`` is running."""
        return app_name in self._active_failovers

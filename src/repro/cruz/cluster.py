"""CruzCluster: the high-level public API.

Wires a simulated cluster with pods, per-node Checkpoint Agents, a
Coordinator on a dedicated node (as in §6's evaluation setup), and the
shared checkpoint image store.

Typical use::

    cluster = CruzCluster(n_app_nodes=4)
    app = cluster.launch_app("slm", [make_rank(i) for i in range(4)])
    cluster.run_for(8.0)
    stats = cluster.checkpoint_app(app)       # coordinated checkpoint
    cluster.crash_app(app)                    # or a real failure
    cluster.restart_app(app)                  # coordinated restart
"""

from __future__ import annotations

from typing import (Callable, Collection, Dict, FrozenSet, Generator, List,
                    Optional, Sequence, Set)

from repro.cluster import Cluster
from repro.cruz.agent import CheckpointAgent
from repro.cruz.backend import ShardedBackend
from repro.cruz.coordinator import CheckpointCoordinator, DistributedApp
from repro.cruz.faults import ControlFaultInjector, FaultPlan
from repro.cruz.migration import MigrationReport, migrate
from repro.cruz.protocol import RetryPolicy, RoundStats
from repro.cruz.storage import ImageStore
from repro.cruz.supervisor import (HEARTBEAT_INTERVAL_S,
                                   HEARTBEAT_JITTER_S, NodeSupervisor)
from repro.errors import CoordinationError, PodError, RestartMismatchError
from repro.simos.kernel import Node
from repro.simos.program import Program
from repro.zap.checkpoint import scrub_pod_network
from repro.zap.image import CheckpointImage
from repro.zap.pod import Pod
from repro.zap.virtualization import install_pod, uninstall_pod


class CruzCluster(Cluster):
    """A cluster with Cruz installed on every node.

    Node layout: indices ``0 .. n_app_nodes-1`` host applications; the
    last node (index ``n_app_nodes``) hosts the Checkpoint Coordinator.
    """

    def __init__(self, n_app_nodes: int,
                 coordinator_timeout_s: float = 60.0,
                 control_retry: Optional[RetryPolicy] = None,
                 supervise: bool = False,
                 evict_on_suspect: bool = False,
                 replication_factor: Optional[int] = None,
                 mc_bugs: FrozenSet[str] = frozenset(),
                 page_memo: Optional[Dict] = None,
                 **kwargs):
        super().__init__(n_app_nodes + 1, **kwargs)
        self.n_app_nodes = n_app_nodes
        #: Seeded mutation flags for the CruzMC model checker's
        #: counterexample tests (``repro.analysis.mc.KNOWN_BUGS``) —
        #: each re-opens a fixed, historically real protocol hole.
        #: Always empty in production paths.
        self.mc_bugs = frozenset(mc_bugs)
        #: The chunk space is sharded across the app nodes' disks (RF
        #: copies per chunk, writer affinity for the primary).
        if replication_factor is None:
            replication_factor = min(2, n_app_nodes)
        self.replication_factor = replication_factor
        # ``page_memo``: the page-id memo a caller building many
        # clusters over the same pods (an exploration) shares among
        # their stores (see :class:`ImageStore`).
        self.store = ImageStore(
            self.fs, metrics=self.trace.metrics,
            sanitizer=self.trace.sanitizer,
            backend=ShardedBackend(
                self.fs,
                nodes=[node.name for node in self.nodes[:n_app_nodes]],
                replication_factor=replication_factor),
            page_memo=page_memo)
        self._rereplication_active = False
        self._rereplication_pending = False
        #: Every control datagram (agents and coordinator, ACKs included)
        #: passes through one seeded fault injector; with no plans added
        #: it is a transparent pass-through.
        self.fault_injector = ControlFaultInjector(
            self.sim, self.random.stream("control-faults"))
        self.control_retry = control_retry
        self.agents: List[CheckpointAgent] = [
            CheckpointAgent(node, self.store, self.destroy_pod,
                            retry=control_retry,
                            faults=self.fault_injector,
                            mc_bugs=self.mc_bugs)
            for node in self.nodes[:n_app_nodes]]
        self.coordinator_node = self.nodes[n_app_nodes]
        self.coordinator_timeout_s = coordinator_timeout_s
        self.coordinator = CheckpointCoordinator(
            self.coordinator_node, self.store,
            timeout_s=coordinator_timeout_s, retry=control_retry,
            faults=self.fault_injector)
        self.apps: Dict[str, DistributedApp] = {}
        #: Indices of nodes currently powered off (:meth:`crash_node`).
        self.dead_nodes: Set[int] = set()
        self.evict_on_suspect = evict_on_suspect
        #: Report of the most recent successful :meth:`migrate_pod`.
        self.last_migration: Optional[MigrationReport] = None
        self.supervisor: Optional[NodeSupervisor] = None
        if supervise:
            self._install_supervisor(start_heartbeats=True)

    # -- supervision ---------------------------------------------------------

    def _install_supervisor(self, start_heartbeats: bool) -> NodeSupervisor:
        self.supervisor = NodeSupervisor(
            self, node=self.coordinator_node,
            evict_on_suspect=self.evict_on_suspect)
        supervisor_ip = self.coordinator_node.stack.eth0.ip
        for index, agent in enumerate(self.agents):
            self.supervisor.watch(index)
            if start_heartbeats:
                # One named seeded stream per node: adding nodes (or
                # reordering startup) never perturbs another node's
                # jitter sequence.
                agent.start_heartbeats(
                    supervisor_ip, HEARTBEAT_INTERVAL_S,
                    HEARTBEAT_JITTER_S,
                    self.random.stream(f"heartbeat-{agent.node.name}"))
        self.supervisor.start()
        return self.supervisor

    def restart_supervisor(self) -> NodeSupervisor:
        """Replace the supervisor (crash recovery).

        The new instance inherits node liveness from the shared-store
        :class:`~repro.cruz.storage.LivenessLog` — nodes declared dead
        by the old supervisor stay dead without re-detection. The
        agents' heartbeat loops keep running; only the receiving
        endpoint is replaced.
        """
        if self.supervisor is None:
            raise PodError("cluster was built without supervise=True")
        self.supervisor.close()
        return self._install_supervisor(start_heartbeats=False)

    # -- node power model ----------------------------------------------------

    def crash_node(self, node_index: int) -> None:
        """Power-loss failure of one application node (§1's fail-stop).

        Takes the node's link down (every in-flight frame on it is
        dropped), silences its agent mid-operation (no ACKs, no
        heartbeats, interrupted saves — a dead node never writes another
        WAL record), destroys resident pods, and clears the node's
        volatile netfilter state. Distinct from :meth:`crash_app`, which
        kills pods but leaves the node (and its agent) healthy.
        """
        if not 0 <= node_index < self.n_app_nodes:
            raise PodError(f"node {node_index} is not an application node")
        if node_index in self.dead_nodes:
            return
        agent = self.agents[node_index]
        node = self.nodes[node_index]
        self.links[node_index].down = True
        agent.crash()
        for pod in list(agent.pods.values()):
            self.destroy_pod(pod)
        # Packet-filter rules are kernel state; power loss clears them.
        node.stack.netfilter.rules.clear()
        self.dead_nodes.add(node_index)
        self.spans.instant("node.crash", node=node.name)
        # The node's chunk shard went with it: mark it unavailable and
        # kick the re-replication daemon to restore RF elsewhere.
        self.store.backend.mark_down(node.name)
        self._schedule_rereplication()

    def revive_node(self, node_index: int) -> None:
        """Power the node back on: link up, agent accepting traffic.

        The revived node rejoins empty (its pods died with it); the
        supervisor marks it alive again at its next heartbeat and new
        placements can use it.
        """
        if node_index not in self.dead_nodes:
            return
        node = self.nodes[node_index]
        self.links[node_index].down = False
        self.agents[node_index].revive()
        self.dead_nodes.discard(node_index)
        self.spans.instant("node.revive", node=node.name)
        # The shard comes back with the node; drop copies of chunks
        # garbage-collected while it was out.
        self.store.backend.mark_up(node.name)
        self.store.reconcile_node(node.name)

    # -- re-replication ------------------------------------------------------

    def _schedule_rereplication(self) -> None:
        """Start the background repair pass unless one is running."""
        if self._rereplication_active:
            self._rereplication_pending = True
            return
        self._rereplication_active = True
        self.sim.process(self._rereplication_proc(), name="rereplicate")

    def _rereplication_proc(self):
        """Restore every chunk's replication factor after node loss.

        Event-driven, not polled: each availability change schedules one
        pass; a pass finds the chunks below the live RF target and
        copies them from surviving replicas to the next up ring
        successor, one group per (live holders, destination), charging
        each group's bytes on the destination disk's clock. A group's
        copies are visible from the start of its charge. A loss during
        the pass queues a follow-up pass, which also takes whatever a
        group left because its destination went down.
        """
        try:
            while True:
                deficits = self.store.under_replicated()
                span = self.spans.begin("store.rereplicate",
                                        node=self.coordinator_node.name,
                                        orphan=True,
                                        chunks=len(deficits))
                repaired = groups = 0
                for chunks, nbytes in self.store.rereplicate(
                        [cid for cid, _live in deficits]):
                    repaired += chunks
                    groups += 1
                    yield self.sim.timeout(
                        nbytes / self.coordinator_node
                        .costs.disk_write_bandwidth)
                self.spans.end(span, repaired=repaired, groups=groups)
                if not self._rereplication_pending:
                    break
                self._rereplication_pending = False
        finally:
            self._rereplication_active = False

    # -- control-plane faults and coordinator replacement -------------------

    def add_control_fault(self, plan: FaultPlan) -> FaultPlan:
        """Inject faults into the coordination control plane from now on."""
        return self.fault_injector.add_plan(plan)

    def crash_coordinator(self) -> None:
        """Silence the coordinator mid-flight (simulated process crash).

        In-flight rounds hang until agents' unilateral timeouts fire; the
        round WAL in the shared store keeps the recovery record.
        """
        self.coordinator.endpoint.close()

    def restart_coordinator(self) -> CheckpointCoordinator:
        """Replace the coordinator and run WAL crash recovery.

        The new coordinator, on the same node (the WAL and images live in
        the shared filesystem), aborts every round the old one left in
        flight and resumes epoch numbering after the highest logged epoch.
        """
        self.crash_coordinator()
        self.coordinator = CheckpointCoordinator(
            self.coordinator_node, self.store,
            timeout_s=self.coordinator_timeout_s,
            retry=self.control_retry,
            faults=self.fault_injector)
        self.coordinator.recover()
        return self.coordinator

    # -- pods and apps -----------------------------------------------------

    def create_pod(self, node_index: int, name: str) -> Pod:
        node = self.nodes[node_index]
        own_wire_mac = node.stack.nic.supports_multiple_macs
        if own_wire_mac:
            mac = self.allocate_vif_mac()
            fake = None
        else:
            mac = node.stack.nic.primary_mac
            fake = self.allocate_vif_mac()
        pod = Pod(node, name, ip=self.allocate_pod_ip(), mac=mac,
                  own_wire_mac=own_wire_mac, fake_mac=fake)
        install_pod(pod)
        self.agents[node_index].register_pod(pod)
        return pod

    def launch_app(self, name: str, programs: Sequence[Program],
                   node_indices: Optional[Sequence[int]] = None,
                   ) -> DistributedApp:
        """One pod per program, placed round-robin on the app nodes."""
        if node_indices is None:
            node_indices = [i % self.n_app_nodes
                            for i in range(len(programs))]
        if len(node_indices) != len(programs):
            raise PodError("one node index per program required")
        pods = []
        for rank, (program, node_index) in enumerate(
                zip(programs, node_indices)):
            pod = self.create_pod(node_index, f"{name}-r{rank}")
            pod.spawn(program, name=f"{name}[{rank}]")
            pods.append(pod)
        app = DistributedApp(name, pods)
        self.apps[name] = app
        return app

    def launch_app_factory(self, name: str, n_ranks: int, factory,
                           node_indices: Optional[Sequence[int]] = None,
                           ) -> DistributedApp:
        """Like :meth:`launch_app`, for programs that need the pod IPs.

        ``factory(rank, peer_ips)`` builds each rank's program after all
        pods (and hence their addresses) exist.
        """
        if node_indices is None:
            node_indices = [i % self.n_app_nodes for i in range(n_ranks)]
        pods = [self.create_pod(node_indices[rank], f"{name}-r{rank}")
                for rank in range(n_ranks)]
        peer_ips = [str(pod.ip) for pod in pods]
        for rank, pod in enumerate(pods):
            pod.spawn(factory(rank, peer_ips), name=f"{name}[{rank}]")
        app = DistributedApp(name, pods)
        self.apps[name] = app
        return app

    # -- coordinated operations -----------------------------------------------

    def checkpoint_app(self, app: DistributedApp, optimized: bool = False,
                       incremental: bool = False,
                       dedup: bool = False,
                       early_network: bool = False,
                       concurrent: bool = False,
                       limit: float = 1e6) -> RoundStats:
        """Run one coordinated checkpoint round to completion."""
        task = self.sim.process(self.coordinator.checkpoint(
            app, optimized=optimized, incremental=incremental,
            dedup=dedup,
            early_network=early_network, concurrent=concurrent))
        return self.run_until_complete(task, limit=limit)

    # -- recovery verbs: teardown, restore, placement ------------------------
    #
    # With :meth:`crash_node` / :meth:`revive_node` above, the one
    # implementation each of the four decisions every recovery path
    # (supervisor failover, suspect eviction, LSF drain/recover/resume,
    # canary restore, both migration modes) is a policy over.

    def destroy_pod(self, pod: Pod) -> None:
        """Destroy one pod in place, silently (no FIN/RST to peers)."""
        scrub_pod_network(pod)
        pod.kill_all()
        uninstall_pod(pod)
        agent = self._agent_for(pod.node.name)
        if agent is not None:
            agent.unregister_pod(pod.name)

    def crash_app(self, app: DistributedApp) -> None:
        """Destroy the app's pods in place (simulating node failures).

        State vanishes silently — no FIN/RST reaches the peers, exactly as
        when a machine loses power.
        """
        for pod in app.pods:
            self.destroy_pod(pod)

    def restore_pod(self, image: CheckpointImage, node: Node,
                    resume: bool = True, warm_bytes: int = 0) -> Generator:
        """Restore one image on one node; value is the recreated pod,
        registered with the node's agent.

        Restart engines are stateless, so a node with no agent of its
        own (the coordinator's) borrows one and registers nowhere.
        """
        agent = self._agent_for(node.name)
        engine = (agent or self.agents[0]).restart_engine
        pod = yield from engine.restart(image, node, resume=resume,
                                        warm_bytes=warm_bytes)
        if agent is not None:
            agent.register_pod(pod)
        return pod

    def place(self, pods: Sequence[Pod], alive: Callable[[int], bool],
              exclude: Collection[int] = ()) -> Optional[Dict[str, int]]:
        """pod name -> application node index, or ``None`` when no node
        is a candidate.

        Candidates are the application nodes outside ``exclude`` that
        the caller's liveness view ``alive`` (the supervisor's lease
        table, or ground truth for an operator-driven scheduler) holds
        up. A pod whose node is still a candidate stays; any other goes
        to the candidate hosting the fewest pods — not counting the ones
        being placed, which are about to be destroyed and recreated —
        lowest index winning ties, so placement is deterministic.
        """
        candidates = [index for index in range(self.n_app_nodes)
                      if index not in exclude and alive(index)]
        if not candidates:
            return None
        placing = {pod.name for pod in pods}
        load = {index: sum(1 for name in self.agents[index].pods
                           if name not in placing)
                for index in candidates}
        home = {agent.node.name: index
                for index, agent in enumerate(self.agents)}
        placement = {}
        for pod in pods:
            target = home.get(pod.node.name)
            if target not in candidates:
                target = min(candidates, key=lambda index: (load[index],
                                                            index))
            placement[pod.name] = target
            load[target] += 1
        return placement

    def repoint_app(self, app: DistributedApp,
                    members: Optional[Sequence] = None) -> List[Pod]:
        """Re-point ``app.pods`` at the recreated pods after a restart.

        Every member must have a live replacement registered with some
        healthy agent; otherwise :class:`RestartMismatchError` names the
        missing members and ``app.pods`` is left untouched — a partial
        membership must never be silently adopted.
        """
        if members is None:
            members = app.members
        new_pods, missing = [], []
        for _ip, pod_name in members:
            for agent in self.agents:
                if not agent.crashed and pod_name in agent.pods:
                    new_pods.append(agent.pods[pod_name])
                    break
            else:
                missing.append(pod_name)
        if missing:
            raise RestartMismatchError(app.name, missing)
        app.pods = new_pods
        return new_pods

    def restart(self, app: DistributedApp,
                node_indices: Optional[Sequence[int]],
                epoch: Optional[int]) -> Generator:
        """Coordinated restart of ``app`` from its committed checkpoint
        round ``epoch`` (``None``: the newest of ``store.rounds.cuts``);
        value is the round's RoundStats.

        Member ``i`` restores on ``node_indices[i]`` (``None``: its current
        node), so pods may move across the subnet (§4.2). Past the checks,
        every member still registered on a live agent is destroyed, by
        name, so a running app rolls back to the image and no straggler
        of an aborted attempt survives; then ``app.pods`` is re-pointed.
        """
        if node_indices is None:
            members = app.members
        elif len(node_indices) != len(app.pods):
            raise ValueError(
                f"restart({app.name!r}): {len(node_indices)} "
                f"node index(es) for {len(app.pods)} pod(s) — one "
                f"index per member required")
        else:
            members = [(self.nodes[index].stack.eth0.ip, pod.name)
                       for index, pod in zip(node_indices, app.pods)]
        cuts = self.store.rounds.cuts(pod.name for pod in app.pods)
        epoch = cuts[0] if epoch is None and cuts else epoch
        if epoch not in cuts:
            raise CoordinationError(
                f"restart({app.name!r}): no committed checkpoint round "
                f"of its members matches epoch={epoch} (rounds: {cuts})")
        for pod in app.pods:
            for agent in self.agents:
                registered = agent.pods.get(pod.name)
                if registered is not None and not agent.crashed:
                    self.destroy_pod(registered)
        stats = yield from self.coordinator.restart(members, epoch)
        self.repoint_app(app, members)
        return stats

    def restart_app(self, app: DistributedApp,
                    node_indices: Optional[Sequence[int]] = None,
                    epoch: Optional[int] = None,
                    limit: float = 1e6) -> RoundStats:
        """Run :meth:`restart` to completion."""
        task = self.sim.process(self.restart(app, node_indices, epoch))
        return self.run_until_complete(task, limit=limit)

    def migrate_pod(self, pod: Pod, target_node_index: int,
                    live: bool = True) -> Pod:
        """Migrate one pod to another node; live (pre-copy) by default.

        Runs :func:`~repro.cruz.migration.migrate`: incremental chunk
        rounds stream to the target while the pod keeps running, and the
        pod is isolated + paused only for the final delta. ``live=False``
        runs no round, which is stop-and-copy (the benchmark baseline).
        The resulting :class:`MigrationReport` lands in
        ``self.last_migration``.

        Failure semantics (both modes): a failed target restore after
        the source pod was destroyed rolls the pod back onto its source
        node and raises a typed :class:`MigrationError` naming the
        committed, restorable version; ``app.pods`` stays consistent —
        the fixup is scoped to the app actually owning this pod object
        (two apps with same-named pods never interfere). Failures that
        leave the source as found (missing/crashed source agent, dead
        target, source death mid-pre-copy) raise ``MigrationError`` with
        ``source_destroyed=False`` and rewrite nothing. A source node
        that dies after the cutover's isolated capture does not stop
        the move: that image is restored on the target.
        """
        task = self.sim.process(migrate(self, pod, target_node_index, live),
                                name=f"migrate({pod.name})")
        new_pod, report = self.run_until_complete(task, limit=1e6)
        self.last_migration = report
        return new_pod

    def _agent_for(self, node_name: str) -> Optional[CheckpointAgent]:
        for agent in self.agents:
            if agent.node.name == node_name:
                return agent
        return None

    # -- introspection -------------------------------------------------------

    def app_programs(self, app: DistributedApp) -> List[Program]:
        """The (live) program instances, rank-ordered."""
        programs = []
        for pod in app.pods:
            for proc in pod.processes():
                programs.append(proc.program)
        return programs

    def coordination_message_count(self) -> int:
        return int(self.metrics.counter("control.messages")
                   .labelled("cruz"))

    @property
    def spans(self):
        """The cluster-wide span recorder (``trace.spans``)."""
        return self.trace.spans

    @property
    def metrics(self):
        """The cluster-wide typed metrics registry (``trace.metrics``)."""
        return self.trace.metrics

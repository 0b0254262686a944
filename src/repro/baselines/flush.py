"""The channel-flushing coordinated checkpoint baseline.

MPVM, CoCheck and LAM-MPI "flush all the messages that are in flight
between the application's processes during checkpoint" by exchanging
markers on every pairwise channel — O(N²) messages — because they have no
way to capture in-kernel TCP state (§2, §5.2). This module implements that
protocol over the same substrate so the comparison benchmarks measure, not
assert, the difference:

* the coordinator notifies every agent (N messages);
* every agent stops its pod, then sends a flush *marker to every other
  agent* and waits for all N-1 inbound markers (N·(N-1) messages);
* every agent then waits for its pod's channels to drain — all sent data
  acknowledged, nothing in flight — which with a stopped peer can only
  happen through TCP's own delivery of what was already in the pipe;
* only then does it take the local checkpoint and report done.

With empty channels there is no TCP state worth saving, which is why these
systems could get away with closing and re-establishing connections at
restart. Restart re-establishment costs another O(N²) messages (modelled
in :data:`RESTART_RECONNECT_MESSAGES_PER_PAIR`).
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.cruz.netstate import CruzSocketCodec
from repro.cruz.protocol import ControlMessage, RoundStats
from repro.cruz.storage import ImageStore
from repro.errors import CoordinationError
from repro.net.addresses import Ipv4Address
from repro.simos.kernel import Node
from repro.simos.sockets import TcpSocket
from repro.zap.checkpoint import CheckpointEngine, pod_sockets
from repro.zap.pod import Pod

FLUSH_AGENT_PORT = 7611
FLUSH_COORDINATOR_PORT = 7612

FLUSH_CHECKPOINT = "FLUSH_CHECKPOINT"
FLUSH_MARKER = "FLUSH_MARKER"
FLUSH_DONE = "FLUSH_DONE"
FLUSH_CONTINUE = "FLUSH_CONTINUE"
FLUSH_CONTINUE_DONE = "FLUSH_CONTINUE_DONE"

#: How often an agent re-checks whether its channels have drained.
DRAIN_POLL_INTERVAL = 0.002
#: Connection re-establishment at restart: SYN/SYNACK/ACK plus the
#: library-level endpoint exchange, per direction of each pair.
RESTART_RECONNECT_MESSAGES_PER_PAIR = 4


class FlushAgent:
    """Per-node agent implementing the flush-based protocol."""

    def __init__(self, node: Node, store: ImageStore):
        self.node = node
        self.store = store
        # Same chunk-backed save path as the Cruz agents: the baselines
        # must differ only in coordination protocol, not storage cost.
        self.engine = CheckpointEngine(CruzSocketCodec(), store=store)
        self.pods: Dict[str, Pod] = {}
        self.peer_ips: List[Ipv4Address] = []
        self._markers: Dict[int, Dict] = {}
        self._continues: Dict[int, Dict] = {}
        self.messages_sent = 0
        node.stack.udp.bind(FLUSH_AGENT_PORT, self._on_datagram)

    def register_pod(self, pod: Pod) -> None:
        self.pods[pod.name] = pod

    def _send(self, ip: Ipv4Address, port: int,
              message: ControlMessage) -> None:
        self.messages_sent += 1
        self.node.trace.metrics.counter("control.messages").inc(
            label="flush")
        self.node.stack.udp.send(self.node.stack.eth0.ip, FLUSH_AGENT_PORT,
                                 ip, port, message,
                                 payload_size=message.size)

    def _on_datagram(self, payload, src_ip, _src_port, _dst_ip) -> None:
        if not isinstance(payload, ControlMessage):
            return
        if payload.kind == FLUSH_MARKER:
            # Ingesting a marker costs agent CPU, like any other message.
            self.node.sim.call_later(
                self.node.costs.agent_message_handling,
                self._ingest_marker, payload)
            return
        if payload.kind == FLUSH_CONTINUE:
            state = self._continues.get(payload.epoch)
            if state is not None and not state["event"].triggered:
                state["event"].succeed()
            return
        if payload.kind == FLUSH_CHECKPOINT:
            self.node.sim.process(
                self._do_checkpoint(payload, src_ip),
                name=f"flush-agent@{self.node.name}")

    def _ingest_marker(self, payload: ControlMessage) -> None:
        state = self._marker_state(payload.epoch)
        state["received"].add(payload.node_name)
        event = state.get("event")
        if event is not None and not event.triggered and \
                len(state["received"]) >= state["needed"]:
            event.succeed()

    def _marker_state(self, epoch: int) -> Dict:
        state = self._markers.get(epoch)
        if state is None:
            state = {"received": set(), "needed": 0, "event": None}
            self._markers[epoch] = state
        return state

    def _do_checkpoint(self, message: ControlMessage,
                       coordinator_ip: Ipv4Address) -> Generator:
        sim, costs = self.node.sim, self.node.costs
        pod = self.pods[message.pod_name]
        started = sim.now
        # Stop the pod so no *new* data enters the channels.
        pod.stop_all()
        yield sim.timeout(
            costs.signal_delivery * len(pod.live_processes()))
        # Exchange markers with every other participant: O(N^2) overall.
        others = [ip for ip in self.peer_ips
                  if ip != self.node.stack.eth0.ip]
        for ip in others:
            yield sim.timeout(costs.agent_message_handling)
            self._send(ip, FLUSH_AGENT_PORT, ControlMessage(
                kind=FLUSH_MARKER, epoch=message.epoch,
                node_name=self.node.name))
        state = self._marker_state(message.epoch)
        state["needed"] = len(others)
        if len(state["received"]) < state["needed"]:
            state["event"] = sim.event(f"markers({message.epoch})")
            yield state["event"]
        # Drain: wait until nothing is unacknowledged on any pod channel.
        yield from self._drain_channels(pod)
        drained_at = sim.now
        # Local checkpoint (channels are empty; socket state is trivial).
        image = yield from self.engine.checkpoint(pod, resume=False)
        self._send(coordinator_ip, FLUSH_COORDINATOR_PORT, ControlMessage(
            kind=FLUSH_DONE, epoch=message.epoch, pod_name=pod.name,
            node_name=self.node.name,
            local_checkpoint_s=sim.now - drained_at,
            local_continue_s=drained_at - started))
        cont = {"event": sim.event(f"flush-continue({message.epoch})")}
        self._continues[message.epoch] = cont
        yield cont["event"]
        resume_started = sim.now
        pod.continue_all()
        self._send(coordinator_ip, FLUSH_COORDINATOR_PORT, ControlMessage(
            kind=FLUSH_CONTINUE_DONE, epoch=message.epoch,
            pod_name=pod.name, node_name=self.node.name,
            local_continue_s=sim.now - resume_started))
        self._markers.pop(message.epoch, None)
        self._continues.pop(message.epoch, None)

    def _drain_channels(self, pod: Pod) -> Generator:
        sim = self.node.sim
        while True:
            busy = False
            for sock in pod_sockets(pod):
                if isinstance(sock, TcpSocket) and \
                        sock.connection is not None:
                    connection = sock.connection
                    if connection.tcb.flight_size > 0 or \
                            connection.send_buffer.pending:
                        busy = True
                        break
            if not busy:
                return
            yield sim.timeout(DRAIN_POLL_INTERVAL)


class FlushCoordinator:
    """Coordinator for the flush-based baseline."""

    def __init__(self, node: Node, agents: List[FlushAgent]):
        self.node = node
        self.agents = agents
        self.timeout_s = 120.0
        self._epoch = 1000  # distinct from Cruz epochs in shared traces
        self.rounds: List[RoundStats] = []
        self._collectors: Dict[int, Dict[str, Dict]] = {}
        node.stack.udp.bind(FLUSH_COORDINATOR_PORT, self._on_datagram)
        peer_ips = [agent.node.stack.eth0.ip for agent in agents]
        for agent in agents:
            agent.peer_ips = list(peer_ips)

    def _send(self, ip: Ipv4Address, message: ControlMessage) -> None:
        self.node.trace.metrics.counter("control.messages").inc(
            label="flush")
        self.node.stack.udp.send(
            self.node.stack.eth0.ip, FLUSH_COORDINATOR_PORT,
            ip, FLUSH_AGENT_PORT, message, payload_size=message.size)

    def _on_datagram(self, payload, _src_ip, _src_port, _dst_ip) -> None:
        if not isinstance(payload, ControlMessage):
            return
        collector = self._collectors.get(payload.epoch, {}).get(payload.kind)
        if collector is None:
            return
        collector["received"][payload.pod_name] = payload
        if set(collector["received"]) >= collector["expected"] and \
                not collector["event"].triggered:
            collector["event"].succeed(dict(collector["received"]))

    def checkpoint(self, app) -> Generator:
        """Coordinated flush-based checkpoint of a DistributedApp."""
        sim, costs = self.node.sim, self.node.costs
        self._epoch += 1
        epoch = self._epoch
        members = app.members
        expected = {pod_name for _ip, pod_name in members}
        stats = RoundStats(epoch=epoch, kind="FLUSH_CHECKPOINT",
                           n_nodes=len(members), started_at=sim.now)
        done = self._expect(epoch, FLUSH_DONE, expected)
        continue_done = self._expect(epoch, FLUSH_CONTINUE_DONE, expected)
        for ip, pod_name in members:
            yield sim.timeout(costs.coordinator_message_handling)
            self._send(ip, ControlMessage(
                kind=FLUSH_CHECKPOINT, epoch=epoch, pod_name=pod_name))
            stats.messages_sent += 1
        dones = yield from self._wait(done, stats)
        stats.latency_s = sim.now - stats.started_at
        stats.max_local_op_s = max(
            m.local_checkpoint_s for m in dones.values())
        for ip, _pod_name in members:
            yield sim.timeout(costs.coordinator_message_handling)
            self._send(ip, ControlMessage(kind=FLUSH_CONTINUE, epoch=epoch))
            stats.messages_sent += 1
        yield from self._wait(continue_done, stats)
        stats.total_s = sim.now - stats.started_at
        stats.committed = True
        self.rounds.append(stats)
        self._collectors.pop(epoch, None)
        return stats

    def _expect(self, epoch: int, kind: str, pod_names) -> object:
        event = self.node.sim.event(f"flush-collect({kind},{epoch})")
        self._collectors.setdefault(epoch, {})[kind] = {
            "expected": set(pod_names), "received": {}, "event": event}
        return event

    def _wait(self, event, stats: RoundStats) -> Generator:
        sim = self.node.sim
        timer = sim.timeout(self.timeout_s)
        outcome = yield sim.any_of([event, timer])
        if event not in outcome:
            raise CoordinationError(
                f"flush round {stats.epoch} timed out")
        stats.messages_received += len(event.value)
        return event.value


def install_flush_baseline(cluster) -> FlushCoordinator:
    """Attach the baseline protocol to an existing CruzCluster."""
    agents = [FlushAgent(node, cluster.store)
              for node in cluster.nodes[:cluster.n_app_nodes]]
    coordinator = FlushCoordinator(cluster.coordinator_node, agents)
    for app in cluster.apps.values():
        for pod in app.pods:
            for agent in agents:
                if agent.node is pod.node:
                    agent.register_pod(pod)
    cluster.flush_agents = agents
    cluster.flush_coordinator = coordinator
    return coordinator


def flush_checkpoint_app(cluster, app) -> RoundStats:
    """Convenience mirror of :meth:`CruzCluster.checkpoint_app`."""
    if not hasattr(cluster, "flush_coordinator"):
        install_flush_baseline(cluster)
    for pod in app.pods:
        for agent in cluster.flush_agents:
            if agent.node is pod.node:
                agent.register_pod(pod)
    task = cluster.sim.process(cluster.flush_coordinator.checkpoint(app))
    return cluster.sim.run_until_complete(task, limit=1e6)


def restart_message_estimate(n_nodes: int) -> int:
    """Messages a flush-based restart needs to rebuild all channels."""
    pairs = n_nodes * (n_nodes - 1) // 2
    return pairs * RESTART_RECONNECT_MESSAGES_PER_PAIR + 2 * n_nodes

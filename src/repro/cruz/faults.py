"""Fault injection: control-plane datagram faults and data-plane chaos.

The reliability machinery in :class:`repro.cruz.protocol.ReliableEndpoint`
only earns its keep if rounds *commit* under a lossy control plane, so the
torture tests drive every coordinator/agent datagram (protocol messages
and ACKs alike) through a :class:`ControlFaultInjector` seeded from the
cluster's :class:`repro.sim.rand.RandomStreams` — the same seed always
injects the same faults at the same instants.

Faults are described by :class:`FaultPlan` rules, matched in order against
each outgoing datagram by message kind and epoch. One uniform draw per
matching plan partitions the probability mass ``[drop | duplicate |
delay | pass]``, so the categories are mutually exclusive per datagram and
the expected loss rate equals ``drop`` exactly. Delayed (and the second
copy of duplicated) datagrams are re-injected after ``delay_s`` plus a
uniform jitter, which also reorders them relative to later traffic.

Beyond the control plane, :class:`ChaosInjector` schedules *data-plane*
faults against the whole cluster on the simulator clock: node crashes
(power loss), link flaps, and network partitions — all from one seeded
schedule, so a chaos run replays bit-for-bit from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, FrozenSet, List, Optional, Sequence

from repro.cruz.protocol import ControlMessage
from repro.net.packet import IpPacket
from repro.sim.core import Simulator


@dataclass
class FaultPlan:
    """One fault rule for matching control messages.

    Probabilities are per-datagram and mutually exclusive (a single draw
    decides drop vs duplicate vs delay vs clean delivery), so
    ``drop + duplicate + delay`` must not exceed 1.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    #: Base re-injection delay for delayed/duplicated copies.
    delay_s: float = 2e-3
    #: Extra uniform [0, jitter_s) delay — produces reordering.
    jitter_s: float = 3e-3
    #: Restrict to these message kinds (None = every kind, ACKs included).
    kinds: Optional[FrozenSet[str]] = None
    #: Restrict to these epochs (None = every epoch).
    epochs: Optional[FrozenSet[int]] = None
    #: Stop injecting after this many faults (None = unlimited).
    max_faults: Optional[int] = None
    #: Faults charged against ``max_faults`` so far.
    injected: int = field(default=0)

    def __post_init__(self) -> None:
        if self.drop + self.duplicate + self.delay > 1.0 + 1e-9:
            raise ValueError("fault probabilities must sum to <= 1")
        if self.kinds is not None:
            self.kinds = frozenset(self.kinds)
        if self.epochs is not None:
            self.epochs = frozenset(self.epochs)

    def matches(self, message: ControlMessage) -> bool:
        if self.kinds is not None and message.kind not in self.kinds:
            return False
        if self.epochs is not None and message.epoch not in self.epochs:
            return False
        return self.max_faults is None or self.injected < self.max_faults


class ControlFaultInjector:
    """Applies :class:`FaultPlan` rules to outgoing control datagrams.

    Wired between :class:`~repro.cruz.protocol.ReliableEndpoint` and the
    UDP stack: ``apply(message, transmit)`` either returns ``False`` (the
    endpoint delivers normally) or takes ownership of delivery — dropping
    the datagram, sending it twice, or scheduling it late.
    """

    def __init__(self, sim: Simulator, rng):
        self.sim = sim
        self.rng = rng
        self.plans: List[FaultPlan] = []
        #: Model-checker hook (``repro.analysis.oracle``): when set, the
        #: oracle *decides* each datagram's fate (a branchable choice
        #: point) instead of the seeded probability draw; plans are
        #: bypassed entirely for the run.
        self.oracle = None
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.passed = 0

    def add_plan(self, plan: FaultPlan) -> FaultPlan:
        self.plans.append(plan)
        return plan

    def clear(self) -> None:
        self.plans.clear()

    def _reinject_delay(self, plan: FaultPlan) -> float:
        return plan.delay_s + self.rng.random() * plan.jitter_s

    def apply(self, message: ControlMessage,
              transmit: Callable[[], None]) -> bool:
        """Returns True when the injector handled (or ate) the datagram."""
        if self.oracle is not None:
            if self.oracle.fault(message, transmit, self):
                return True
            self.passed += 1
            return False
        for plan in self.plans:
            if not plan.matches(message):
                continue
            draw = self.rng.random()
            if draw < plan.drop:
                plan.injected += 1
                self.dropped += 1
                return True
            if draw < plan.drop + plan.duplicate:
                plan.injected += 1
                self.duplicated += 1
                transmit()
                self.sim.call_later(self._reinject_delay(plan), transmit)
                return True
            if draw < plan.drop + plan.duplicate + plan.delay:
                plan.injected += 1
                self.delayed += 1
                self.sim.call_later(self._reinject_delay(plan), transmit)
                return True
            break  # matched, drew "clean": first matching plan decides
        self.passed += 1
        return False


class Partition:
    """A two-sided network partition, enforced at the links.

    Frames whose IP source and destination fall on opposite sides are
    dropped by the member nodes' links (counted in
    ``Link.frames_dropped`` like any data-plane loss). Membership is
    captured at install time from each side's node addresses plus the
    pods currently registered there; ARP and other non-IP traffic is
    left alone (reachability leaks nothing — data does not cross).
    """

    def __init__(self, cluster, group_a: Sequence[int],
                 group_b: Sequence[int]):
        self.cluster = cluster
        self.group_a = tuple(group_a)
        self.group_b = tuple(group_b)
        self._ips_a = set()
        self._ips_b = set()
        #: link -> the drop_fn it had before the partition.
        self._previous: List = []
        self.healed = False

    def _side_ips(self, indices: Sequence[int]):
        ips = set()
        for index in indices:
            node = self.cluster.nodes[index]
            ips.add(node.stack.eth0.ip)
            agents = getattr(self.cluster, "agents", ())
            if index < len(agents):
                for pod in agents[index].pods.values():
                    ips.add(pod.ip)
        return ips

    def _crosses(self, frame) -> bool:
        packet = frame.payload
        if not isinstance(packet, IpPacket):
            return False
        return ((packet.src in self._ips_a and packet.dst in self._ips_b)
                or (packet.src in self._ips_b
                    and packet.dst in self._ips_a))

    def install(self) -> None:
        # Membership is captured now (not at schedule time) so pods
        # created in the meantime are partitioned with their nodes.
        self._ips_a = self._side_ips(self.group_a)
        self._ips_b = self._side_ips(self.group_b)
        for index in self.group_a + self.group_b:
            link = self.cluster.links[index]
            previous = link.drop_fn
            self._previous.append((link, previous))

            def drop(frame, _previous=previous):
                if self._crosses(frame):
                    return True
                return _previous(frame) if _previous is not None \
                    else False

            link.drop_fn = drop

    def heal(self) -> None:
        if self.healed:
            return
        self.healed = True
        for link, previous in self._previous:
            link.drop_fn = previous


class ChaosInjector:
    """Seeded data-plane fault schedules: crashes, flaps, partitions.

    All randomness comes from one named stream of the cluster's seeded
    :class:`~repro.sim.rand.RandomStreams`, and every draw happens at
    *schedule* time (fixed program order), so a chaos run replays
    bit-for-bit from its seed. Executed events are recorded in ``log``
    with their simulated timestamps.
    """

    def __init__(self, cluster, rng=None):
        self.cluster = cluster
        self.sim: Simulator = cluster.sim
        self.rng = rng if rng is not None \
            else cluster.random.stream("chaos")
        self.log: List[dict] = []
        self.node_crashes = 0
        self.link_flaps = 0
        self.partitions = 0
        self.pod_kills = 0

    def _record(self, kind: str, **details) -> None:
        self.log.append({"at": self.sim.now, "kind": kind, **details})

    # -- node power ---------------------------------------------------------

    def schedule_node_crash(self, node_index: int, at: float,
                            jitter_s: float = 0.0) -> float:
        """Crash a node at ``at`` (+ seeded jitter).

        Returns the actual crash time so callers can line further chaos
        up against it.
        """
        crash_at = at + (self.rng.random() * jitter_s if jitter_s else 0.0)

        def crash() -> None:
            self.node_crashes += 1
            self._record("crash_node", node=node_index)
            self.cluster.crash_node(node_index)

        self.sim.call_at(crash_at, crash)
        return crash_at

    def schedule_node_crash_mid_round(self, node_index: int, after: float,
                                      within_s: float = 0.006,
                                      revive_after: Optional[float] = None,
                                      ) -> None:
        """Crash a node *during* a checkpoint round — the worst moment.

        Arms at ``after``; once the coordinator has a round in flight,
        crashes ``node_index`` a seeded ``[0, within_s)`` into it. Round
        start times drift with workload timing, so a fixed-clock crash
        cannot reliably land mid-save; polling the coordinator's
        in-flight set (every millisecond, event-driven and deterministic)
        can. The offset is drawn at schedule time like every other
        chaos draw.
        """
        offset = self.rng.random() * within_s

        def trigger():
            if self.sim.now < after:
                yield self.sim.timeout(after - self.sim.now)
            coordinator = self.cluster.coordinator
            while not coordinator.in_flight_epochs():
                yield self.sim.timeout(0.001)
            epochs = coordinator.in_flight_epochs()
            yield self.sim.timeout(offset)
            self.node_crashes += 1
            self._record("crash_node", node=node_index, mid_round=epochs)
            self.cluster.crash_node(node_index)
            if revive_after is not None:
                yield self.sim.timeout(revive_after)
                self._record("revive_node", node=node_index)
                self.cluster.revive_node(node_index)

        self.sim.process(trigger(), name=f"chaos-crash-node{node_index}")

    # -- pods ---------------------------------------------------------------

    def schedule_pod_kill(self, pod_name: str, at: float) -> float:
        """Destroy one named pod at ``at``, silently.

        The pod dies without FIN/RST to its peers and without taking the
        node down — the proxy-backend-kill chaos mode: a serving backend
        vanishes mid-request and the proxy must detect it by probe
        timeout, shed or re-dispatch its in-flight work, and re-admit the
        backend after an external restore. Returns the kill time.
        """

        def kill() -> None:
            for agent in self.cluster.agents:
                pod = agent.pods.get(pod_name)
                if pod is not None:
                    self.pod_kills += 1
                    self._record("kill_pod", pod=pod_name,
                                 node=agent.node.name)
                    self.cluster.destroy_pod(pod)
                    return
            self._record("kill_pod_miss", pod=pod_name)

        self.sim.call_at(at, kill)
        return at

    def canary_divergence(self, key: str):
        """A canary-verify-failure hook for ``serve.rollout``.

        Returns a callable that silently flips ``key`` in every kv store
        of the pod it is given — applied to a freshly restored canary
        *before* the read-back probe, it makes the restored replica
        diverge from the fleet so the rollout's verification must catch
        it and roll back. The corruption is recorded in ``log`` like any
        other injected fault.
        """

        def corrupt(pod) -> None:
            self._record("canary_corrupt", pod=pod.name, key=key)
            for proc in pod.processes():
                store = getattr(proc.program, "store", None)
                if isinstance(store, dict):
                    store[key] = "corrupted"

        return corrupt

    def schedule_heartbeat_mute(self, node_index: int, at: float,
                                duration_s: float) -> float:
        """Silence one agent's liveness beacons for ``duration_s``.

        The node stays fully alive — pods keep running, the data plane
        and control plane keep answering — only the heartbeat path goes
        quiet, so the supervisor *suspects* (and, if silence outlasts its
        lease, wrongly declares) a healthy node. This is the eviction
        scenario: with ``evict_on_suspect`` the suspect node's pods must
        be live-migrated away before the declaration, with zero lost
        acknowledged data. Returns the mute time.
        """

        def mute() -> None:
            self._record("mute_heartbeats", node=node_index)
            self.cluster.agents[node_index].mute_heartbeats = True

        def unmute() -> None:
            self._record("unmute_heartbeats", node=node_index)
            self.cluster.agents[node_index].mute_heartbeats = False

        self.sim.call_at(at, mute)
        self.sim.call_at(at + duration_s, unmute)
        return at

    # -- links --------------------------------------------------------------

    def schedule_link_flap(self, node_index: int, at: float,
                           duration_s: float) -> float:
        """Take one node's link down for ``duration_s``; returns ``at``."""

        def down() -> None:
            self.link_flaps += 1
            self._record("link_down", node=node_index)
            self.cluster.links[node_index].down = True

        def up() -> None:
            self._record("link_up", node=node_index)
            self.cluster.links[node_index].down = False

        self.sim.call_at(at, down)
        self.sim.call_at(at + duration_s, up)
        return at

    # -- partitions ---------------------------------------------------------

    def schedule_partition(self, group_a: Sequence[int],
                           group_b: Sequence[int], at: float,
                           duration_s: float) -> Partition:
        """Partition two node groups for ``duration_s`` seconds."""
        partition = Partition(self.cluster, group_a, group_b)

        def install() -> None:
            self.partitions += 1
            self._record("partition", group_a=list(partition.group_a),
                         group_b=list(partition.group_b))
            partition.install()

        def heal() -> None:
            self._record("heal", group_a=list(partition.group_a),
                         group_b=list(partition.group_b))
            partition.heal()

        self.sim.call_at(at, install)
        self.sim.call_at(at + duration_s, heal)
        return partition

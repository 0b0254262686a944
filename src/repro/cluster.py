"""Cluster assembly: nodes, switch, shared filesystem, DHCP.

This is the generic substrate layer; :class:`repro.cruz.cluster.CruzCluster`
wraps it with pods, agents and a coordinator.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.net.addresses import Ipv4Address, MacAddress, Subnet
from repro.net.dhcp import (
    DHCP_CLIENT_PORT,
    DHCP_SERVER_PORT,
    DhcpMessage,
    DhcpServer,
)
from repro.net.link import Link
from repro.net.nic import Nic
from repro.net.switch import Switch
from repro.sim.core import Simulator
from repro.sim.rand import RandomStreams
from repro.sim.trace import Trace
from repro.simos.costs import CostModel, DEFAULT_COSTS
from repro.simos.filesystem import SharedFileSystem
from repro.simos.kernel import Node
from repro.simos.netstack import BROADCAST_IP


class Cluster:
    """A switched Ethernet cluster of simulated nodes.

    Node ``i`` is named ``node<i>`` with eth0 at ``10.1.0.<i+1>``. Pod
    (VIF) addresses are allocated from ``10.1.1.*`` by default, mirroring
    the paper's single-subnet requirement for migration (§4.2).
    """

    def __init__(self, n_nodes: int, seed: int = 0,
                 costs: CostModel = DEFAULT_COSTS,
                 trace_enabled: bool = True,
                 time_wait_s: float = 60.0,
                 bandwidth_bps: float = 1e9,
                 latency_s: float = 5e-6,
                 cpus_per_node: int = 2,
                 nic_supports_multiple_macs: bool = True,
                 tiebreak: str = "fifo",
                 sanitize: Optional[bool] = None,
                 oracle=None):
        self.sim = Simulator(tiebreak=tiebreak, oracle=oracle)
        self.random = RandomStreams(seed)
        self.trace = Trace(enabled=trace_enabled)
        self.trace.attach_clock(lambda: self.sim.now)
        # Runtime invariant sanitizer: explicit opt-in via the kwarg, or
        # ambient opt-in via CRUZ_SANITIZE=1 (only the latter registers
        # in sanitize.ACTIVE, which the --cruz-sanitize pytest fixture
        # inspects — explicitly sanitized clusters are the negative
        # tests' own business).
        from repro.analysis import sanitize as _sanitize
        if sanitize or (sanitize is None and _sanitize.env_enabled()):
            _sanitize.install(self.trace, register=sanitize is None)
        self.fs = SharedFileSystem()
        self.costs = costs
        self.subnet = Subnet(Ipv4Address.parse("10.1.0.0"), 16)
        self.switch = Switch(self.sim, "switch0")
        self.nodes: List[Node] = []
        self.links: List[Link] = []
        self.dhcp_server: Optional[DhcpServer] = None
        self._next_pod_host = 256  # 10.1.1.0 onwards
        self._next_vif_mac = 0x4000
        for index in range(n_nodes):
            nic = Nic(self.sim, f"node{index}.eth0",
                      MacAddress.ordinal(index + 1),
                      supports_multiple_macs=nic_supports_multiple_macs)
            node = Node(self.sim, f"node{index}", nic, self.fs,
                        costs=costs, trace=self.trace, cpus=cpus_per_node,
                        time_wait_s=time_wait_s, iss_seed=index + 1)
            node.stack.configure_eth0(self.subnet.host(index + 1))
            self.links.append(Link(
                self.sim, nic.port, self.switch.new_port(),
                bandwidth_bps=bandwidth_bps, latency_s=latency_s,
                name=f"node{index}<->switch", trace=self.trace))
            self.nodes.append(node)

    # -- address allocation -------------------------------------------------

    def allocate_pod_ip(self) -> Ipv4Address:
        ip = self.subnet.host(self._next_pod_host)
        self._next_pod_host += 1
        return ip

    def allocate_vif_mac(self) -> MacAddress:
        mac = MacAddress.ordinal(self._next_vif_mac)
        self._next_vif_mac += 1
        return mac

    # -- infrastructure services ---------------------------------------------

    def add_dhcp_server(self, node_index: int = 0,
                        pool_start: int = 512,
                        default_lease_s: float = 3600.0) -> DhcpServer:
        """Run a DHCP server on a node, answering broadcasts on the subnet."""
        node = self.nodes[node_index]
        pool = self.subnet.hosts(start=pool_start)

        def send(message: DhcpMessage,
                 dst: Optional[Ipv4Address]) -> None:
            # DHCP replies to clients without an address are broadcast.
            node.stack.udp.send(
                node.stack.eth0.ip, DHCP_SERVER_PORT,
                dst if dst is not None else BROADCAST_IP,
                DHCP_CLIENT_PORT, message, payload_size=message.size)

        server = DhcpServer(f"dhcp@{node.name}", pool, send,
                            clock=lambda: self.sim.now,
                            default_lease_s=default_lease_s)

        def handler(payload, src_ip, src_port, dst_ip) -> None:
            if isinstance(payload, DhcpMessage):
                server.handle(payload)

        node.stack.udp.bind(DHCP_SERVER_PORT, handler)
        self.dhcp_server = server
        return server

    # -- running ---------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def run_for(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    def run_until(self, predicate: Callable[[], bool],
                  limit: float = 1e6, step: float = 0.01) -> None:
        """Advance time until ``predicate()`` holds.

        Event-aware: the predicate is re-checked after each simulator
        event batch (all events sharing a timestamp — with batched link
        delivery, a whole burst of frames delivered by one arrival event
        counts as one batch), so the wait returns at the exact event
        time that made it true instead of at the next fixed-step
        boundary, without paying a predicate call per frame. ``step`` is
        only the fallback stride when the event queue is empty and only
        the passage of time (pure time predicates) can change the
        answer. The loop itself is :meth:`Simulator.run_until` — the
        simulator's one drive loop, shared with :meth:`run`.
        """
        self.sim.run_until(predicate, limit=limit, step=step)

    def run_until_complete(self, process, limit: float = 1e6):
        """Drive one simulation process to completion; returns its value."""
        return self.sim.run_until_complete(process, limit=limit)

    def stats(self) -> Dict[str, int]:
        return {
            "frames_forwarded": self.switch.frames_forwarded,
            "frames_flooded": self.switch.frames_flooded,
            "fs_bytes_written": self.fs.bytes_written,
        }

    def scheduler_stats(self) -> Dict[str, object]:
        """Event-queue and timer-wheel counters (``Simulator.stats()``)."""
        return self.sim.stats()

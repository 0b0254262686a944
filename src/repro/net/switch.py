"""A learning Ethernet switch.

Implements source-address learning with flooding for unknown/broadcast
destinations — all that is needed for the paper's single-subnet cluster and
for gratuitous-ARP-driven re-learning after a pod migrates to another port.

Forwarding is batched: ingress frames wait in one FIFO of (due, frame,
ingress) and a single armed drain event forwards every frame that is due
— a burst delivered to the switch at one instant (e.g. by a batched link
direction) is forwarded by one event instead of one per frame.

Frames from *different* ingress ports can arrive at the same simulated
instant (symmetric paths, equal frame sizes), and the order their
delivery callbacks run is the event queue's tie-break — a policy correct
code must be indifferent to. The drain therefore forwards same-due
frames in (due, ingress port) order rather than callback order: per
ingress the link direction is already FIFO, so this canonical order is
the same under every tie-break, and two tied frames crossing the same
egress link serialise identically in a fifo and a lifo run.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.net.addresses import BROADCAST_MAC, MacAddress
from repro.net.link import Port
from repro.net.packet import EthernetFrame
from repro.sim.core import Simulator

#: Store-and-forward delay of one frame through the switch.
FORWARDING_LATENCY_S = 3e-6


class Switch:
    """A store-and-forward learning switch."""

    def __init__(self, sim: Simulator, name: str = "switch"):
        self.sim = sim
        self.name = name
        self.ports: List[Port] = []
        self._port_index: Dict[Port, int] = {}
        self.table: Dict[MacAddress, Port] = {}
        self.frames_forwarded = 0
        self.frames_flooded = 0
        self.drain_batches = 0
        self._pending: Deque[Tuple[float, EthernetFrame, Port]] = deque()
        self._armed = False

    def new_port(self) -> Port:
        port = Port(f"{self.name}.p{len(self.ports)}", self._on_frame)
        self._port_index[port] = len(self.ports)
        self.ports.append(port)
        return port

    def _on_frame(self, frame: EthernetFrame, ingress: Port) -> None:
        self.table[frame.src] = ingress
        sim = self.sim
        due = sim.now + FORWARDING_LATENCY_S
        self._pending.append((due, frame, ingress))
        if not self._armed:
            self._armed = True
            sim.defer_at(due, self._drain)

    def _drain(self) -> None:
        """Forward every due frame; keep one event armed for the rest."""
        self._armed = False
        now = self.sim.now
        pending = self._pending
        batch = []
        while pending and pending[0][0] <= now:
            batch.append(pending.popleft())
        if batch:
            if len(batch) > 1:
                # Same-due frames from different ingress ports were
                # appended in delivery-callback order — the tie-break's
                # choice, not ours. Sort into the canonical (due,
                # ingress) order; the stable sort keeps each ingress
                # port's own FIFO order intact.
                index = self._port_index
                batch.sort(key=lambda entry: (entry[0], index[entry[2]]))
            for _due, frame, ingress in batch:
                self._forward(frame, ingress)
            self.drain_batches += 1
        if pending and not self._armed:
            self._armed = True
            due = pending[0][0]
            self.sim.defer_at(due if due > now else now, self._drain)

    def _forward(self, frame: EthernetFrame, ingress: Port) -> None:
        dst = frame.dst
        egress = None if dst == BROADCAST_MAC else self.table.get(dst)
        if egress is not None and egress is not ingress:
            self.frames_forwarded += 1
            egress.transmit(frame)
            return
        if egress is ingress:
            # Destination hangs off the port the frame came from; a real
            # switch filters this, it never re-floods.
            return
        self.frames_flooded += 1
        for port in self.ports:
            if port is not ingress and port.link is not None:
                port.transmit(frame)

    def forget(self, mac: MacAddress) -> None:
        self.table.pop(mac, None)

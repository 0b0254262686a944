"""A learning Ethernet switch.

Implements source-address learning with flooding for unknown/broadcast
destinations — all that is needed for the paper's single-subnet cluster and
for gratuitous-ARP-driven re-learning after a pod migrates to another port.

A frame is forwarded **at arrival**: the switch learns its source, looks
up the egress and hands it to that link direction with a ready instant
of arrival plus :data:`FORWARDING_LATENCY_S`, the store-and-forward delay
folded into when the egress may start serialising it. A flooded frame
is handed to every other cabled port at once (:func:`repro.net.link.
forward_copies`: one arrival entry for all the idle ones).

Frames from *different* ingress ports can arrive at the same simulated
instant (symmetric paths, equal frame sizes), and the order their
delivery callbacks run is the event queue's tie-break — a policy correct
code must be indifferent to. Each egress therefore serialises the frames
handed over for one ready instant in (ready, ingress port) order rather
than callback order (:meth:`repro.net.link._Direction.forward` re-slots a
late lower-numbered one): per ingress the link direction is already
FIFO, so this canonical order is the same under every tie-break, and two
tied frames crossing the same egress link serialise identically in a
fifo and a lifo run.

Deciding at arrival rather than 3 µs later is the one modelled
difference from a switch that drains a buffer: the egress's down flag
and ``drop_fn``, and the table entry for the destination, are read at
arrival — a link going down, a partition starting, or a MAC learned or
moved inside a frame's 3 µs window does not affect that frame — and
``frames_forwarded``/``frames_flooded`` count it then.
"""

from __future__ import annotations

from typing import Dict, List

from repro.net.addresses import BROADCAST_MAC, MacAddress
from repro.net.link import Port, forward_copies
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

    def new_port(self) -> Port:
        port = Port(f"{self.name}.p{len(self.ports)}", self._on_frame)
        self._port_index[port] = len(self.ports)
        self.ports.append(port)
        return port

    def _on_frame(self, frame: EthernetFrame, ingress: Port) -> None:
        table = self.table
        table[frame.src] = ingress
        dst = frame.dst
        egress = None if dst == BROADCAST_MAC else table.get(dst)
        if egress is ingress:
            # Destination hangs off the port the frame came from; a real
            # switch filters this, it never re-floods.
            return
        ready = self.sim.now + FORWARDING_LATENCY_S
        rank = self._port_index[ingress]
        if egress is not None:
            self.frames_forwarded += 1
            egress.direction.forward(frame, ready, rank)
            return
        self.frames_flooded += 1
        forward_copies([port.direction for port in self.ports
                        if port is not ingress and port.link is not None],
                       frame, ready, rank)

    def forget(self, mac: MacAddress) -> None:
        self.table.pop(mac, None)

"""The reference fabric: batched link directions and a draining switch.

``_Direction`` and ``Switch`` as they stood before a frame hop became one
queue entry — verbatim, except that the two calls into ``Link`` pass the
instant the link now reports to its observers (``link.sim.now``, which
is what an observer read for itself then). A direction keeps its frames
in flight in a deque behind one armed arrival event; the switch buffers
every arriving frame for ``FORWARDING_LATENCY_S`` behind one armed drain
event, looks its egress up when it drains, and drains same-instant
frames in (due, ingress port) order. The fabric the product ships must
deliver the same frames down every link direction at the same instants,
so this stays the plain two-event switch and is not to be optimised.

Build a cluster (or wire links and a switch) inside ``with
reference_fabric():`` to get this fabric instead of the product's.
"""

from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, List, Tuple

import repro.cluster
import repro.net.link
from repro.net.addresses import BROADCAST_MAC, MacAddress
from repro.net.link import Port
from repro.net.packet import EthernetFrame
from repro.net.switch import FORWARDING_LATENCY_S
from repro.sim.core import Simulator


class _Direction:
    """One direction of a full-duplex link: its serialisation horizon,
    the frames in flight, and the single armed arrival event.

    State is held as plain attributes on a per-direction object — keyed
    by identity of the *direction*, not by ``id(port)`` in a shared dict
    (allocation addresses are the CRZ006 hazard class: not stable, not
    checkpointable, and silently aliasing after a free/realloc).
    """

    __slots__ = ("link", "name", "source", "destination", "busy_until",
                 "pending", "armed", "batches", "frames")

    def __init__(self, link, source: Port, destination: Port):
        self.link = link
        #: The link's name: what a schedule oracle labels this
        #: direction's arrival events with.
        self.name = link.name
        self.source = source
        self.destination = destination
        self.busy_until = 0.0
        #: (arrival_time, frame) in FIFO order.
        self.pending: Deque[Tuple[float, EthernetFrame]] = deque()
        self.armed = False
        self.batches = 0
        self.frames = 0
        # Cable the source port: its transmit is this direction's send.
        source.link = link
        source.transmit = self.send

    def send(self, frame: EthernetFrame) -> None:
        """Queue ``frame`` for transmission (``source.transmit``)."""
        self.source.frames_out += 1
        link = self.link
        if link._down or (link.drop_fn is not None
                          and link.drop_fn(frame)):
            link._drop(frame, link.sim.now)
            return
        if link._observers:
            link._notify(frame, False, link.sim.now)
        sim = link.sim
        now = sim.now
        start = self.busy_until
        if start < now:
            start = now
        finish = start + frame.size * 8.0 / link.bandwidth_bps
        self.busy_until = finish
        pending = self.pending
        pending.append((finish + link.latency_s, frame))
        if not self.armed:
            # Arm for the *head* pending arrival: during a re-entrant
            # send (a deliver callback transmitting back-to-back) older
            # frames may still be queued ahead of this one.
            self.armed = True
            due = pending[0][0]
            sim.defer_at(due if due > now else now, self._deliver)

    def _deliver(self) -> None:
        """Deliver every pending frame that is due, as one ordered batch."""
        self.armed = False
        link = self.link
        sim = link.sim
        now = sim.now
        pending = self.pending
        destination = self.destination
        receive = destination._receive
        delivered = 0
        while pending and pending[0][0] <= now:
            frame = pending.popleft()[1]
            delivered += 1
            if link._down:
                link._drop(frame, link.sim.now)
            else:
                destination.frames_in += 1
                receive(frame, destination)
        if delivered:
            self.batches += 1
            self.frames += delivered
        if pending and not self.armed:
            # Frames queued behind the batch (or armed by a re-entrant
            # send during delivery): keep exactly one event in flight.
            self.armed = True
            sim.defer_at(pending[0][0], self._deliver)


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


@contextmanager
def reference_fabric(switch=Switch):
    """Links built inside get the reference directions, clusters the
    reference switch (or ``switch``, a subclass of it)."""
    saved = repro.net.link._Direction, repro.cluster.Switch
    repro.net.link._Direction, repro.cluster.Switch = _Direction, switch
    try:
        yield
    finally:
        repro.net.link._Direction, repro.cluster.Switch = saved

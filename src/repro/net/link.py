"""Point-to-point links with bandwidth, latency, and fault injection.

A link connects two :class:`Port` endpoints. Each direction is an independent
FIFO: frames serialise at the link bandwidth and then propagate after the
fixed latency, matching store-and-forward Ethernet behaviour closely enough
for the paper's timing results.

Delivery is **batched** per direction: in-flight frames wait in the
direction's pending deque and a single armed arrival event walks it,
delivering every frame that is due as one ordered batch — so a
back-to-back burst on a busy direction occupies one slot in the
simulator queue instead of one per frame. Every frame is still
delivered at its own arrival instant, never early and never late.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.errors import NetworkError
from repro.net.packet import EthernetFrame
from repro.sim.core import Simulator

GIGABIT = 1_000_000_000.0


class Port:
    """One attachment point: something that can emit and accept frames."""

    def __init__(self, name: str,
                 receive: Callable[[EthernetFrame, "Port"], None]):
        self.name = name
        self._receive = receive
        self.link: Optional["Link"] = None
        self.frames_in = 0
        self.frames_out = 0

    def deliver(self, frame: EthernetFrame) -> None:
        self.frames_in += 1
        self._receive(frame, self)

    def transmit(self, frame: EthernetFrame) -> None:
        if self.link is None:
            raise NetworkError(f"port {self.name} is not cabled")
        self.frames_out += 1
        self.link.send(frame, self)

    def __repr__(self) -> str:
        return f"<Port {self.name}>"


class _Direction:
    """One direction of a full-duplex link: its serialisation horizon,
    the frames in flight, and the single armed arrival event.

    State is held as plain attributes on a per-direction object — keyed
    by identity of the *direction*, not by ``id(port)`` in a shared dict
    (allocation addresses are the CRZ006 hazard class: not stable, not
    checkpointable, and silently aliasing after a free/realloc).
    """

    __slots__ = ("source", "destination", "busy_until", "pending", "armed",
                 "batches", "frames")

    def __init__(self, source: Port, destination: Port):
        self.source = source
        self.destination = destination
        self.busy_until = 0.0
        #: (arrival_time, frame) in FIFO order.
        self.pending: Deque[Tuple[float, EthernetFrame]] = deque()
        self.armed = False
        self.batches = 0
        self.frames = 0


class Link:
    """A full-duplex cable between two ports.

    With a telemetry hub attached (``trace=``), dropped frames feed the
    ``link.frames_dropped`` counter (labelled per link) and up/down
    transitions are recorded as ``link.down``/``link.up`` span instants
    plus the ``link.links_down`` gauge — so chaos runs show data-plane
    loss in ``repro trace`` output. ``link.down = True`` keeps working as
    a plain attribute assignment.
    """

    def __init__(self, sim: Simulator, a: Port, b: Port,
                 bandwidth_bps: float = GIGABIT,
                 latency_s: float = 5e-6,
                 drop_fn: Optional[Callable[[EthernetFrame], bool]] = None,
                 name: str = "", trace=None):
        if a.link is not None or b.link is not None:
            raise NetworkError("port already cabled")
        self.sim = sim
        self.a = a
        self.b = b
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self.drop_fn = drop_fn
        self.name = name or f"{a.name}<->{b.name}"
        self.trace = trace
        self._down = False
        self.frames_dropped = 0
        self.a_to_b = _Direction(a, b)
        self.b_to_a = _Direction(b, a)
        a.link = self
        b.link = self

    @property
    def down(self) -> bool:
        return self._down

    @down.setter
    def down(self, value: bool) -> None:
        value = bool(value)
        if value == self._down:
            return
        self._down = value
        if self.trace is not None:
            self.trace.metrics.gauge("link.links_down").add(
                1 if value else -1)
            self.trace.spans.instant(
                "link.down" if value else "link.up", link=self.name)

    def _drop(self, frame: EthernetFrame) -> None:
        self.frames_dropped += 1
        if self.trace is not None:
            self.trace.metrics.counter("link.frames_dropped").inc(
                label=self.name)

    def send(self, frame: EthernetFrame, source: Port) -> None:
        """Queue ``frame`` for transmission from ``source``'s side."""
        if source is self.a:
            direction = self.a_to_b
        elif source is self.b:
            direction = self.b_to_a
        else:
            raise NetworkError(f"{source!r} is not on link {self.name}")
        if self._down or (self.drop_fn is not None
                          and self.drop_fn(frame)):
            self._drop(frame)
            return
        now = self.sim.now
        start = direction.busy_until
        if start < now:
            start = now
        finish = start + frame.size * 8.0 / self.bandwidth_bps
        direction.busy_until = finish
        arrival = finish + self.latency_s
        direction.pending.append((arrival, frame))
        if not direction.armed:
            # Arm for the *head* pending arrival: during a re-entrant
            # send (a deliver callback transmitting back-to-back) older
            # frames may still be queued ahead of this one.
            direction.armed = True
            due = direction.pending[0][0]
            self.sim.defer_at(due if due > now else now,
                              self._deliver, direction)

    def _deliver(self, direction: _Direction) -> None:
        """Deliver every pending frame that is due, as one ordered batch."""
        direction.armed = False
        now = self.sim.now
        pending = direction.pending
        destination = direction.destination
        delivered = 0
        while pending and pending[0][0] <= now:
            _arrival, frame = pending.popleft()
            delivered += 1
            if self._down:
                self._drop(frame)
            else:
                destination.deliver(frame)
        if delivered:
            direction.batches += 1
            direction.frames += delivered
        if pending and not direction.armed:
            # Frames queued behind the batch (or armed by a re-entrant
            # send during delivery): keep exactly one event in flight.
            direction.armed = True
            self.sim.defer_at(pending[0][0], self._deliver, direction)

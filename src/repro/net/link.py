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

Wiring binds what the frame path needs: cabling a port hands it the
:class:`_Direction` it transmits into, so ``port.transmit(frame)`` *is*
that direction's send (no lookup of which side of the link the port is
on), and delivery calls the far port's receive callable directly.

A link can be **observed**: :meth:`Link.observe` registers a callable
that sees every frame the link accepts for transmission and every frame
it drops — at send (link down, ``drop_fn``) or at its arrival instant
(link went down while the frame was in flight). With no observer the
cost is one falsy test per frame. :class:`repro.net.capture.
PacketCapture` is built on it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.packet import EthernetFrame
from repro.sim.core import Simulator

GIGABIT = 1_000_000_000.0


#: ``observer(link, frame, dropped)`` — see :meth:`Link.observe`.
LinkObserver = Callable[["Link", EthernetFrame, bool], None]


class Port:
    """One attachment point: something that can emit and accept frames."""

    def __init__(self, name: str,
                 receive: Callable[[EthernetFrame, "Port"], None]):
        self.name = name
        self._receive = receive
        self.link: Optional["Link"] = None
        self.frames_in = 0
        self.frames_out = 0

    def transmit(self, frame: EthernetFrame) -> None:
        """Send ``frame`` down the cable. Cabling the port (``Link``)
        rebinds this name on the instance to its direction's send."""
        raise NetworkError(f"port {self.name} is not cabled")

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

    __slots__ = ("link", "name", "source", "destination", "busy_until",
                 "pending", "armed", "batches", "frames")

    def __init__(self, link: "Link", source: Port, destination: Port):
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
            link._drop(frame)
            return
        if link._observers:
            link._notify(frame, False)
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
                link._drop(frame)
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
        self._observers: List[LinkObserver] = []
        self.a_to_b = _Direction(self, a, b)
        self.b_to_a = _Direction(self, b, a)

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

    def observe(self, observer: LinkObserver) -> None:
        """Call ``observer(link, frame, dropped)`` for every frame this
        link accepts for transmission (``dropped=False``, at the send
        instant) and every frame it drops (``dropped=True``: at the send
        instant when the link is down or ``drop_fn`` says so, at the
        arrival instant when the link went down mid-flight — such a
        frame is reported twice, accepted and then dropped)."""
        self._observers.append(observer)

    def unobserve(self, observer: LinkObserver) -> None:
        self._observers.remove(observer)

    def _notify(self, frame: EthernetFrame, dropped: bool) -> None:
        for observer in list(self._observers):
            observer(self, frame, dropped)

    def _drop(self, frame: EthernetFrame) -> None:
        self.frames_dropped += 1
        if self.trace is not None:
            self.trace.metrics.counter("link.frames_dropped").inc(
                label=self.name)
        if self._observers:
            self._notify(frame, True)

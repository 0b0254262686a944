"""Point-to-point links with bandwidth, latency, and fault injection.

A link connects two :class:`Port` endpoints. Each direction is an independent
FIFO: frames serialise at the link bandwidth and then propagate after the
fixed latency, matching store-and-forward Ethernet behaviour closely enough
for the paper's timing results.

A frame is **one queue entry** per hop: sending it computes when it
finishes serialising and schedules its own arrival there, a bare
``(fn, args)`` entry pushed onto the simulator's queue directly (an
arrival is never in the past, so ``defer_at``'s check and call are
spared). Frames arriving at one instant (infinite bandwidth) share that
instant's entry. Every frame is delivered at its own arrival instant,
never early and never late.

A switch hands a frame over with :meth:`_Direction.forward` at a
*ready* instant (arrival plus the forwarding delay), and a flood with
:func:`forward_copies` (see :mod:`repro.net.switch`).

Wiring binds what the frame path needs: cabling a port hands it the
:class:`_Direction` it transmits into, so ``port.transmit(frame)`` *is*
that direction's send (no lookup of which side of the link the port is
on), and delivery calls the far port's receive callable directly.

A link can be **observed**: :meth:`Link.observe` registers a callable
that sees every frame the link accepts for transmission and every frame
it drops — at hand-off (link down, ``drop_fn``) or at its arrival
instant (link went down while the frame was in flight). With no
observer the cost is one falsy test per frame. :class:`repro.net.capture.
PacketCapture` is built on it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.errors import NetworkError
from repro.net.packet import EthernetFrame
from repro.sim.core import NORMAL, Simulator

GIGABIT = 1_000_000_000.0


#: ``observer(link, frame, dropped, at)`` — see :meth:`Link.observe`.
LinkObserver = Callable[["Link", EthernetFrame, bool, float], None]


class Port:
    """One attachment point: something that can emit and accept frames."""

    def __init__(self, name: str,
                 receive: Callable[[EthernetFrame, "Port"], None]):
        self.name = name
        self._receive = receive
        self.link: Optional["Link"] = None
        #: The direction this port transmits into, once cabled.
        self.direction: Optional["_Direction"] = None
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
    its latest arrival entry, and the latest switch hand-off group.

    State is held as plain attributes on a per-direction object — keyed
    by identity of the *direction*, not by ``id(port)`` in a shared dict
    (allocation addresses are the CRZ006 hazard class: not stable, not
    checkpointable, and silently aliasing after a free/realloc).
    """

    __slots__ = ("link", "name", "source", "destination", "busy_until",
                 "tail_at", "tail", "tail_entry", "held_ready",
                 "held_rank", "held_start", "held")

    def __init__(self, link: "Link", source: Port, destination: Port):
        self.link = link
        #: The link's name: what a schedule oracle labels this
        #: direction's arrival entries with.
        self.name = link.name
        self.source = source
        self.destination = destination
        self.busy_until = 0.0
        #: The latest arrival entry: its instant, the frames it will
        #: deliver (a frame due at the same instant joins them) and the
        #: queue entry itself.
        self.tail_at = -1.0
        self.tail: List[EthernetFrame] = []
        self.tail_entry = None
        #: The latest switch hand-off group — the frames handed over
        #: for one ready instant — so that a member from a lower-numbered
        #: ingress port can still be slotted ahead: its highest rank,
        #: where its first member started serialising, and its members
        #: as (rank, frame, container, entry), where ``None`` stands for
        #: one member, the frame this direction carried last.
        self.held_ready = -1.0
        self.held_rank = 0
        self.held_start = 0.0
        self.held: Optional[list] = None
        # Cable the source port: its transmit is this direction's send.
        source.link = link
        source.direction = self
        source.transmit = self.send

    def send(self, frame: EthernetFrame) -> None:
        """Queue ``frame`` for transmission now (``source.transmit``)."""
        self.source.frames_out += 1
        link = self.link
        now = link.sim.now
        if link._down or (link.drop_fn is not None
                          and link.drop_fn(frame)):
            link._drop(frame, now)
            return
        if link._observers:
            link._notify(frame, False, now)
        self.held_ready = -1.0
        # _carry(frame, now), inlined: every frame's first hop.
        start = self.busy_until
        if start < now:
            start = now
        finish = start + frame.size * 8.0 / link.bandwidth_bps
        self.busy_until = finish
        at = finish + link.latency_s
        if at == self.tail_at:
            self.tail.append(frame)
            return
        tail = self.tail = [frame]
        self.tail_at = at
        self.tail_entry = link.sim._queue.push(
            at, NORMAL, (self._deliver, (tail,)))

    def forward(self, frame: EthernetFrame, ready: float, rank: int) -> None:
        """Take ``frame`` from a switch that received it on its port
        number ``rank``; it may start serialising at ``ready``.

        Frames handed over for one ready instant serialise in rank
        order (each port's own frames in the order handed over): one
        that comes after a member of a higher rank re-slots the group.
        None of the group has started serialising — that happens at
        ``ready`` at the earliest, and hand-offs come before it.
        """
        self.source.frames_out += 1
        link = self.link
        if link._down or (link.drop_fn is not None
                          and link.drop_fn(frame)):
            link._drop(frame, ready)
            return
        if link._observers:
            link._notify(frame, False, ready)
        if ready != self.held_ready:
            busy = self.busy_until
            self.held_ready = ready
            self.held_rank = rank
            self.held_start = busy if busy > ready else ready
            self.held = None
            self._carry(frame, ready)
        elif rank < self.held_rank:
            self._reslot(frame, ready, rank)
        else:
            held = self._members()
            self._carry(frame, ready)
            held.append((rank, frame, self.tail, self.tail_entry))
            self.held = held
            self.held_rank = rank

    def _carry(self, frame: EthernetFrame, ready: float) -> None:
        """Serialise ``frame`` after everything queued, starting no
        earlier than ``ready``, and schedule its arrival (``send`` runs
        this body inlined)."""
        link = self.link
        start = self.busy_until
        if start < ready:
            start = ready
        finish = start + frame.size * 8.0 / link.bandwidth_bps
        self.busy_until = finish
        at = finish + link.latency_s
        if at == self.tail_at:
            self.tail.append(frame)
            return
        tail = self.tail = [frame]
        self.tail_at = at
        self.tail_entry = link.sim._queue.push(
            at, NORMAL, (self._deliver, (tail,)))

    def _members(self) -> list:
        """The held group's members, as a list of this direction's own."""
        if self.held is None:
            return [(self.held_rank, self.tail[-1], self.tail,
                     self.tail_entry)]
        return list(self.held)

    def _reslot(self, frame: EthernetFrame, ready: float,
                rank: int) -> None:
        """Take the held group back and serialise it again with
        ``frame`` in its rank place. Serialising restarts where the
        group's first member started; no frame of the group can share
        an arrival instant with one before it, so the arrival entries
        start afresh."""
        cancel = self.link.sim._queue.cancel
        order = []
        for held_rank, held_frame, container, entry in self._members():
            # A tail lists frames, a flood's idle copies list directions:
            # take out whichever of the two this member is there.
            for index, member in enumerate(container):
                if member is held_frame or member is self:
                    del container[index]
                    break
            if not container:
                cancel(entry)
            order.append((held_rank, held_frame))
        order.insert(next(index for index, (held_rank, _frame)
                          in enumerate(order) if held_rank > rank),
                     (rank, frame))
        self.busy_until = self.held_start
        self.tail_at = -1.0
        held = self.held = []
        for held_rank, held_frame in order:
            self._carry(held_frame, ready)
            held.append((held_rank, held_frame, self.tail, self.tail_entry))

    def _deliver(self, frames: Sequence[EthernetFrame]) -> None:
        """An arrival entry: deliver ``frames``, due now, in order."""
        if frames is self.tail:
            self.tail_at = -1.0
        link = self.link
        destination = self.destination
        for frame in frames:
            if link._down:
                link._drop(frame, link.sim.now)
            else:
                destination.frames_in += 1
                destination._receive(frame, destination)


def forward_copies(directions: Sequence[_Direction], frame: EthernetFrame,
                   ready: float, rank: int) -> None:
    """Hand a flooded ``frame`` to each of ``directions`` (in port order)
    as :meth:`_Direction.forward` would, with one arrival entry per
    distinct arrival instant for all the *idle* ones: nothing queued at
    ``ready``, finite bandwidth, not down, no ``drop_fn``, unobserved.
    The rest take the ordinary path. The entry checks each link's down
    flag at arrival; each copy stays a member of its direction's
    hand-off group, so a later frame may still re-slot ahead of it."""
    arrivals = {}
    bits = frame.size * 8.0
    for direction in directions:
        link = direction.link
        if (direction.busy_until <= ready and not link._down
                and link.drop_fn is None and not link._observers):
            finish = ready + bits / link.bandwidth_bps
            if finish > ready:
                direction.source.frames_out += 1
                direction.busy_until = finish
                direction.held_ready = ready
                direction.held_rank = rank
                direction.held_start = ready
                at = finish + link.latency_s
                copies = arrivals.get(at)
                if copies is None:
                    arrivals[at] = [direction]
                else:
                    copies.append(direction)
                continue
        direction.forward(frame, ready, rank)
    for at, copies in arrivals.items():
        # One members list for the whole flood: a direction copies it
        # before it adds to it (_members).
        held = [(rank, frame, copies, copies[0].link.sim._queue.push(
            at, NORMAL, (_deliver_copies, (copies, frame))))]
        for direction in copies:
            direction.held = held


def _deliver_copies(directions: Sequence[_Direction],
                    frame: EthernetFrame) -> None:
    """The arrival entry of a flood's idle copies: deliver ``frame``
    down each direction, in port order (``_Direction._deliver``'s body:
    one call per copy would be one per bystander of every flood)."""
    for direction in directions:
        link = direction.link
        if link._down:
            link._drop(frame, link.sim.now)
        else:
            destination = direction.destination
            destination.frames_in += 1
            destination._receive(frame, destination)


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
        """Call ``observer(link, frame, dropped, at)`` for every frame
        this link accepts for transmission (``dropped=False``) and every
        frame it drops (``dropped=True``), where ``at`` is the instant
        the link took the frame: the send instant, or for a frame handed
        over by a switch the instant the switch lets it go (its arrival
        there plus the forwarding delay, although the switch hands it
        over on arrival). A drop is judged at that same hand-off when
        the link is down or ``drop_fn`` says so, and at the arrival
        instant when the link went down mid-flight — such a frame is
        reported twice, accepted and then dropped."""
        self._observers.append(observer)

    def unobserve(self, observer: LinkObserver) -> None:
        self._observers.remove(observer)

    def _notify(self, frame: EthernetFrame, dropped: bool,
                at: float) -> None:
        for observer in list(self._observers):
            observer(self, frame, dropped, at)

    def _drop(self, frame: EthernetFrame, at: float) -> None:
        self.frames_dropped += 1
        if self.trace is not None:
            self.trace.metrics.counter("link.frames_dropped").inc(
                label=self.name)
        if self._observers:
            self._notify(frame, True, at)

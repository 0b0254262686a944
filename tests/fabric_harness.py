"""Observational equivalence of two fabrics: what crossed every wire.

A :class:`Wire` watches every link built while it is installed and
records, per link direction (named by the port it delivers to), the
sequence of (instant, frame) it delivered, and per link the frames it
dropped with the instant the link reported. Frames are compared by
content (:func:`frame_key`), not identity: two runs build their own
frames and number them from one process-wide counter.

Running a scenario under the reference fabric also installs
:class:`WindowWatch`, the reference switch plus a check of the one
modelled difference: the product's switch reads the egress's down flag
and ``drop_fn`` and its table entry for the destination when a frame
*arrives*, the reference 3 µs later when it drains. A frame whose
destination was learned or moved, or whose egress link changed state,
at or after its arrival and by its drain is a *window hit*; a committed
scenario must have none.

``python -m tests.fabric_harness`` runs the five ledger workloads at
smoke scale this way, both fabrics under fifo and lifo.
"""

import math
import sys
from collections import defaultdict, deque
from contextlib import contextmanager, nullcontext
from pathlib import Path

import repro.net.link
import repro.sim.core
from repro.net.link import Link
from repro.net.packet import ArpPacket, IpPacket, TcpSegment

from tests.reference_fabric import Switch as ReferenceSwitch
from tests.reference_fabric import reference_fabric


def frame_key(frame) -> tuple:
    """A frame's content: addresses, headers and TCP payload bytes."""
    packet = frame.payload
    if isinstance(packet, ArpPacket):
        body = ("arp", packet.operation, packet.sender_mac,
                packet.sender_ip, packet.target_mac, packet.target_ip)
    elif isinstance(packet, IpPacket):
        inner = packet.payload
        if isinstance(inner, TcpSegment):
            body = ("tcp", packet.src, packet.dst, inner.src_port,
                    inner.dst_port, inner.seq, inner.ack, int(inner.flags),
                    inner.window, bytes(inner.payload))
        else:
            body = ("udp", packet.src, packet.dst, inner.src_port,
                    inner.dst_port, inner.size,
                    type(inner.payload).__name__)
    else:
        body = (type(packet).__name__, repr(packet))
    return (frame.src, frame.dst, frame.ethertype, frame.size, body)


class Wire:
    """Per-direction deliveries and per-link drops of every link cabled
    while :meth:`installed` is active."""

    def __init__(self):
        self.deliveries = defaultdict(list)
        self.drops = defaultdict(list)

    def _tap(self, link, destination) -> None:
        sim = link.sim
        log = self.deliveries[destination.name]
        receive = destination._receive

        def delivered(frame, port):
            log.append((sim.now, frame_key(frame)))
            receive(frame, port)

        destination._receive = delivered
        if "_drop" not in vars(link):
            drops = self.drops[link.name]
            drop = link._drop

            def dropped(frame, at):
                drops.append((at, frame_key(frame)))
                drop(frame, at)

            link._drop = dropped

    @contextmanager
    def installed(self):
        """Tap every direction built inside: both fabrics construct them
        through ``repro.net.link._Direction``."""
        cls = repro.net.link._Direction

        def direction(link, source, destination):
            built = cls(link, source, destination)
            self._tap(link, destination)
            return built

        repro.net.link._Direction = direction
        try:
            yield self
        finally:
            repro.net.link._Direction = cls

    def record(self) -> dict:
        """Deliveries in order per direction; drops per link in
        (instant, frame) order, since two directions' drops at one
        instant are ordered by the tie-break."""
        return {"deliveries": dict(self.deliveries),
                "drops": {name: sorted(drops)
                          for name, drops in self.drops.items()}}


class WindowWatch(ReferenceSwitch):
    """The reference switch, counting frames that land in the window
    between arrival and drain (see the module docstring)."""

    hits: list = []

    def __init__(self, sim, name="switch"):
        super().__init__(sim, name)
        self.arrivals = defaultdict(deque)
        self.learned_at = {}

    def _on_frame(self, frame, ingress):
        now = self.sim.now
        if self.table.get(frame.src) is not ingress:
            self.learned_at[frame.src] = now
        self.arrivals[frame].append(now)
        super()._on_frame(frame, ingress)

    def forget(self, mac):
        self.learned_at[mac] = self.sim.now
        super().forget(mac)

    def _forward(self, frame, ingress):
        arrived = self.arrivals[frame].popleft()
        egress = self.table.get(frame.dst)
        links = [egress.link] if egress is not None else [
            port.link for port in self.ports if port is not ingress]
        # (A frame to its own source is filtered either way.)
        if (frame.dst != frame.src
                and self.learned_at.get(frame.dst, -math.inf) >= arrived
                or any(getattr(link, "changed_at", -math.inf) >= arrived
                       for link in links if link is not None)):
            WindowWatch.hits.append((arrived, frame_key(frame)))
        super()._forward(frame, ingress)


_DOWN = Link.__dict__["down"]


def _set_down(link, value):
    if bool(value) != link._down:
        link.changed_at = link.sim.now
    _DOWN.fset(link, value)


def _set_drop_fn(link, value):
    if value is not link.__dict__.get("_watched_drop_fn"):
        link.changed_at = link.sim.now
    link.__dict__["_watched_drop_fn"] = value


@contextmanager
def watched_window():
    """The reference fabric, with :class:`WindowWatch` as its switch and
    each link's ``down`` and ``drop_fn`` stamping when they change."""
    Link.down = property(_DOWN.fget, _set_down)
    Link.drop_fn = property(lambda link: link.__dict__["_watched_drop_fn"],
                            _set_drop_fn)
    try:
        with reference_fabric(WindowWatch):
            yield
    finally:
        Link.down = _DOWN
        del Link.drop_fn


@contextmanager
def tiebreak(policy):
    """Every simulator built inside breaks ties by ``policy``."""
    init = repro.sim.core.Simulator.__init__

    def patched(self, tiebreak="fifo", oracle=None):
        init(self, policy, oracle)

    repro.sim.core.Simulator.__init__ = patched
    try:
        yield
    finally:
        repro.sim.core.Simulator.__init__ = init


def observe(scenario, reference, policy):
    """Run ``scenario()`` on one fabric under one tie-break; return what
    it reported and what crossed the wires."""
    wire = Wire()
    fabric = watched_window() if reference else nullcontext()
    with tiebreak(policy), fabric, wire.installed():
        result = scenario()
    return result, wire.record()


def compare(scenario, policies=("fifo", "lifo")):
    """Both fabrics under each policy: the product's observations must
    equal the reference's. Returns the window hits seen."""
    WindowWatch.hits = []
    for policy in policies:
        expected = observe(scenario, True, policy)
        got = observe(scenario, False, policy)
        assert got[0] == expected[0], (policy, "scenario result differs")
        for part in ("deliveries", "drops"):
            want, have = expected[1][part], got[1][part]
            assert have.keys() == want.keys(), (policy, part)
            for name in want:
                assert have[name] == want[name], (policy, part, name)
    return list(WindowWatch.hits)


def _ledger(names):
    """The ledger's workloads at smoke scale, outcome minus the two
    event counts (the only numbers this fabric may move)."""
    perf = Path(__file__).resolve().parent.parent / "benchmarks" / "perf"
    sys.path.insert(0, str(perf))
    import workloads

    def scenario_for(name):
        def scenario():
            outcome = workloads.WORKLOADS[name](workloads.Rep(None), 7,
                                                0.125)
            counts = {key: value for key, value in outcome.counts.items()
                      if key not in ("sim.events_popped",
                                     "sim.events_pushed")}
            return outcome.sim, counts, outcome.failures
        return scenario

    for name in names:
        hits = compare(scenario_for(name))
        assert not hits, (name, hits[:5])
        print(f"{name}: both fabrics, fifo and lifo: same wires, "
              f"same results, no frame in the forwarding window")


if __name__ == "__main__":
    _ledger(sys.argv[1:] or ["ckpt_sweep", "restore_churn", "tcp_mesh",
                             "serve_fleet", "mc_explore"])

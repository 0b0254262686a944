"""Hashed timer wheel, lazy RTO restart, and batched link delivery."""

from repro.errors import SimulationError
import pytest

from repro.net.link import Link, Port
from repro.net.packet import EthernetFrame
from repro.net.addresses import MacAddress
from repro.sim.core import Simulator
from repro.sim.timers import DEFAULT_GRANULARITY, TimerWheel, timers_for

from tests.helpers import make_pair
from tests.test_tcp_connection import SinkApp, SourceApp, establish


# ---------------------------------------------------------------------------
# Wheel semantics
# ---------------------------------------------------------------------------

def test_wheel_fires_rounded_up_to_slot():
    sim = Simulator()
    wheel = timers_for(sim)
    assert isinstance(wheel, TimerWheel)
    fired = []
    wheel.after(0.0101, lambda: fired.append(sim.now))
    sim.run()
    assert len(fired) == 1
    # At most one slot late, never early.
    assert 0.0101 <= fired[0] <= 0.0101 + DEFAULT_GRANULARITY


def test_wheel_slot_sharing_one_event_many_timers():
    sim = Simulator()
    wheel = timers_for(sim)
    fired = []
    for k in range(100):
        # All within one granularity window: they share a slot.
        wheel.after(0.010, fired.append, k)
    sim.run()
    assert fired == list(range(100))          # arming order within a slot
    assert wheel.stats()["slot_events"] <= 2  # not one event per timer


def test_wheel_cancel_prevents_fire_and_counts():
    sim = Simulator()
    wheel = timers_for(sim)
    fired = []
    keep = wheel.after(0.01, fired.append, "keep")
    drop = wheel.after(0.01, fired.append, "drop")
    drop.cancel()
    assert keep.active and not drop.active
    sim.run()
    assert fired == ["keep"]
    stats = wheel.stats()
    assert stats["fired"] == 1
    assert stats["cancelled"] == 1


def test_wheel_rearm_into_same_slot_during_fire():
    sim = Simulator()
    wheel = timers_for(sim)
    fired = []

    def again():
        fired.append(sim.now)
        if len(fired) < 3:
            wheel.after(0.0, again)           # re-arms into the live slot

    wheel.after(0.01, again)
    sim.run()
    assert len(fired) == 3


def test_wheel_rejects_negative_delay():
    sim = Simulator()
    wheel = timers_for(sim)
    with pytest.raises(SimulationError):
        wheel.after(-0.1, lambda: None)


# ---------------------------------------------------------------------------
# Lazy RTO restart (mod_timer discipline) at the TCP layer
# ---------------------------------------------------------------------------

def test_rtx_restart_is_lazy_under_the_wheel():
    """Per-ACK RTO restarts are deadline bumps, not fresh wheel arms."""
    sim, wire, a, b = make_pair()
    client, server = establish(sim, a, b)
    SinkApp(sim, server)
    restarts = []
    restart = client._restart_rtx_timer

    def observed_restart():
        armed = client._rtx_timer
        deadline = client._rtx_deadline
        restart()
        # True when the armed handle survived and only the logical
        # deadline moved.
        restarts.append(armed is not None and client._rtx_timer is armed
                        and client._rtx_deadline >= deadline)

    client._restart_rtx_timer = observed_restart
    SourceApp(sim, client, b"x" * 40000)
    sim.run(until=sim.now + 2.0)
    assert client.tcb.snd_una - client.tcb.iss > 40000
    assert len(restarts) >= 10
    assert all(restarts), restarts


def test_lazy_restart_still_retransmits_at_the_bumped_deadline():
    sim, wire, a, b = make_pair()
    client, server = establish(sim, a, b)
    SinkApp(sim, server)
    # Drop every data segment from the client after the bump window so
    # the (lazily maintained) RTO is the only recovery path.
    state = {"drops": 0}

    def drop_data(packet):
        if packet.src == a[0] and len(packet.payload.payload) > 0:
            state["drops"] += 1
            return True
        return False

    client.send(b"y" * 500)
    sim.run(until=sim.now + 0.05)              # segment + ACK exchange
    wire.drop_fn = drop_data
    client.send(b"z" * 500)
    deadline = client._rtx_deadline
    sim.run(until=deadline + 1.0)
    wire.drop_fn = None
    sim.run(until=sim.now + 10.0)
    assert state["drops"] >= 1
    assert client.tcb.snd_una == client.tcb.snd_nxt  # recovered via RTO


# ---------------------------------------------------------------------------
# Batched link delivery
# ---------------------------------------------------------------------------

class _Payload:
    """Minimal frame payload: a size and an identifying note."""

    __slots__ = ("size", "note")

    def __init__(self, note, size=1486):
        self.note = note
        self.size = size


def _frame(k, size=1486):
    return EthernetFrame(src=MacAddress.ordinal(1),
                         dst=MacAddress.ordinal(2), ethertype=0x0800,
                         payload=_Payload(str(k), size))


def test_link_burst_delivers_in_order_as_batches():
    """A frame's arrival is its own queue entry, and the frames that
    arrive at one instant are one batch: they share that entry."""
    for bandwidth, entries in ((float("inf"), 1), (1e9, 50)):
        sim = Simulator()
        got = []
        a = Port("a", lambda frame, port: None)
        b = Port("b", lambda frame, port: got.append(
            (sim.now, frame.payload.note)))
        Link(sim, a, b, bandwidth_bps=bandwidth, latency_s=5e-6)
        for k in range(50):
            a.transmit(_frame(k))
        sim.run()
        assert [note for _now, note in got] == [str(k) for k in range(50)]
        assert len({now for now, _note in got}) == entries
        assert sim.stats()["pushed"] == entries


def test_link_batched_delivery_times_match_the_arithmetic_schedule():
    """Batching changes how many events carry a burst, never when a
    frame arrives: frame k of a back-to-back burst is delivered at
    exactly ``(k+1) * size * 8 / bandwidth + latency``."""
    sim = Simulator()
    got = []
    a = Port("a", lambda frame, port: None)
    b = Port("b",
             lambda frame, port: got.append((sim.now, frame.payload.note)))
    bandwidth, latency = 1e9, 5e-6
    Link(sim, a, b, bandwidth_bps=bandwidth, latency_s=latency)
    size = _frame(0).size
    for k in range(20):
        a.transmit(_frame(k))
    sim.run()
    finish = 0.0
    expected = []
    for k in range(20):
        # The link's own accumulation: serialisation back to back.
        finish = finish + size * 8.0 / bandwidth
        expected.append((finish + latency, str(k)))
    assert got == expected
    for k, (when, _note) in enumerate(got):
        assert when == pytest.approx((k + 1) * size * 8 / bandwidth
                                     + latency, rel=1e-12)


def test_link_down_drops_pending_frames():
    sim = Simulator()
    got = []
    a = Port("a", lambda frame, port: None)
    b = Port("b", lambda frame, port: got.append(frame.payload.note))
    link = Link(sim, a, b)
    a.transmit(_frame(0))
    link.down = True
    sim.run()
    assert got == []
    assert link.frames_dropped == 1

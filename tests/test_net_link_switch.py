"""Tests for links, NICs and the learning switch."""

import itertools

import pytest

from repro.errors import NetworkError
from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.net.link import GIGABIT, Link, Port
from repro.net.nic import Nic
from repro.net.packet import (
    ETHERTYPE_IP,
    EthernetFrame,
    IpPacket,
    PROTO_TCP,
    TcpFlags,
    TcpSegment,
)
from repro.net.switch import Switch
from repro.sim.core import Simulator


def _frame(src: MacAddress, dst: MacAddress, payload_len: int = 100):
    segment = TcpSegment(src_port=1, dst_port=2, seq=0, ack=0,
                         flags=TcpFlags.ACK, window=0,
                         payload=b"x" * payload_len)
    packet = IpPacket(src=Ipv4Address(1), dst=Ipv4Address(2),
                      protocol=PROTO_TCP, payload=segment)
    return EthernetFrame(src=src, dst=dst, ethertype=ETHERTYPE_IP,
                         payload=packet)


def _capture_port(name, sink):
    return Port(name, lambda frame, port: sink.append(frame))


def test_link_delivers_with_latency_and_serialisation():
    sim = Simulator()
    received = []
    a = _capture_port("a", [])
    b = _capture_port("b", received)
    Link(sim, a, b, bandwidth_bps=GIGABIT, latency_s=10e-6)
    frame = _frame(MacAddress.ordinal(1), MacAddress.ordinal(2))
    a.transmit(frame)
    sim.run()
    assert received == [frame]
    expected = frame.size * 8 / GIGABIT + 10e-6
    assert sim.now == pytest.approx(expected)


def test_link_fifo_serialisation_queues_frames():
    sim = Simulator()
    received = []
    a = _capture_port("a", [])
    b = _capture_port("b", received)
    Link(sim, a, b, bandwidth_bps=GIGABIT, latency_s=0.0)
    f1 = _frame(MacAddress.ordinal(1), MacAddress.ordinal(2), 1000)
    f2 = _frame(MacAddress.ordinal(1), MacAddress.ordinal(2), 1000)
    a.transmit(f1)
    a.transmit(f2)
    sim.run()
    # Second frame finishes at 2x the serialisation time of one frame.
    assert sim.now == pytest.approx(2 * f1.size * 8 / GIGABIT)
    assert received == [f1, f2]


def test_link_down_drops():
    sim = Simulator()
    received = []
    a = _capture_port("a", [])
    b = _capture_port("b", received)
    link = Link(sim, a, b)
    link.down = True
    a.transmit(_frame(MacAddress.ordinal(1), MacAddress.ordinal(2)))
    sim.run()
    assert received == []
    assert link.frames_dropped == 1


def test_link_drop_fn():
    sim = Simulator()
    received = []
    a = _capture_port("a", [])
    b = _capture_port("b", received)
    Link(sim, a, b, drop_fn=lambda frame: True)
    a.transmit(_frame(MacAddress.ordinal(1), MacAddress.ordinal(2)))
    sim.run()
    assert received == []


def test_port_requires_cable():
    port = Port("lonely", lambda f, p: None)
    with pytest.raises(NetworkError):
        port.transmit(_frame(MacAddress.ordinal(1), MacAddress.ordinal(2)))


def test_nic_filters_by_mac():
    sim = Simulator()
    nic = Nic(sim, "eth0", MacAddress.ordinal(1))
    got = []
    nic.rx_handler = lambda frame, n: got.append(frame)
    nic._on_frame(_frame(MacAddress.ordinal(9), MacAddress.ordinal(2)), None)
    assert got == []
    assert nic.rx_filtered == 1
    nic._on_frame(_frame(MacAddress.ordinal(9), MacAddress.ordinal(1)), None)
    assert len(got) == 1


def test_nic_accepts_broadcast_and_promiscuous():
    sim = Simulator()
    nic = Nic(sim, "eth0", MacAddress.ordinal(1))
    assert nic.accepts(_frame(MacAddress.ordinal(9), BROADCAST_MAC))
    other = _frame(MacAddress.ordinal(9), MacAddress.ordinal(3))
    assert not nic.accepts(other)
    nic.promiscuous = True
    assert nic.accepts(other)


def test_nic_multi_mac_vif_support():
    sim = Simulator()
    nic = Nic(sim, "eth0", MacAddress.ordinal(1))
    vif_mac = MacAddress.ordinal(42)
    nic.add_mac(vif_mac)
    assert nic.accepts(_frame(MacAddress.ordinal(9), vif_mac))
    nic.remove_mac(vif_mac)
    assert not nic.accepts(_frame(MacAddress.ordinal(9), vif_mac))


def test_nic_without_multi_mac_rejects_extra():
    sim = Simulator()
    nic = Nic(sim, "eth0", MacAddress.ordinal(1),
              supports_multiple_macs=False)
    with pytest.raises(NetworkError):
        nic.add_mac(MacAddress.ordinal(2))


def test_nic_cannot_drop_primary_mac():
    sim = Simulator()
    nic = Nic(sim, "eth0", MacAddress.ordinal(1))
    with pytest.raises(NetworkError):
        nic.remove_mac(nic.primary_mac)


def _wire_nic_to_switch(sim, switch, mac):
    nic = Nic(sim, f"eth-{mac}", mac)
    Link(sim, nic.port, switch.new_port(), latency_s=1e-6)
    return nic


def test_switch_floods_unknown_then_learns():
    sim = Simulator()
    switch = Switch(sim)
    macs = [MacAddress.ordinal(i) for i in (1, 2, 3)]
    nics = [_wire_nic_to_switch(sim, switch, mac) for mac in macs]
    inboxes = {i: [] for i in range(3)}
    for i, nic in enumerate(nics):
        nic.rx_handler = (lambda idx: lambda frame, n:
                          inboxes[idx].append(frame))(i)

    nics[0].send(_frame(macs[0], macs[1]))
    sim.run()
    # Unknown destination: flooded; only NIC 1 accepts it.
    assert len(inboxes[1]) == 1 and not inboxes[2]
    assert switch.frames_flooded == 1

    nics[1].send(_frame(macs[1], macs[0]))
    sim.run()
    # Switch learned mac0's port from the first frame: unicast forward.
    assert len(inboxes[0]) == 1
    assert switch.frames_forwarded == 1


def test_switch_broadcast_reaches_all_but_sender():
    sim = Simulator()
    switch = Switch(sim)
    macs = [MacAddress.ordinal(i) for i in (1, 2, 3)]
    nics = [_wire_nic_to_switch(sim, switch, mac) for mac in macs]
    counts = [0, 0, 0]
    for i, nic in enumerate(nics):
        nic.rx_handler = (lambda idx: lambda frame, n:
                          counts.__setitem__(idx, counts[idx] + 1))(i)
    nics[0].send(_frame(macs[0], BROADCAST_MAC))
    sim.run()
    assert counts == [0, 1, 1]


def test_switch_forget_forces_reflood():
    sim = Simulator()
    switch = Switch(sim)
    macs = [MacAddress.ordinal(i) for i in (1, 2)]
    nics = [_wire_nic_to_switch(sim, switch, mac) for mac in macs]
    for nic in nics:
        nic.rx_handler = lambda frame, n: None
    nics[0].send(_frame(macs[0], macs[1]))
    sim.run()
    assert macs[0] in switch.table
    switch.forget(macs[0])
    assert macs[0] not in switch.table


# -- a frame hop is one queue entry ------------------------------------------

def _hosts(sim, switch, n):
    """``n`` plain ports cabled to ``switch``; returns them, their MACs
    and what each received, as (instant, frame)."""
    inboxes = [[] for _ in range(n)]
    ports = []
    for index in range(n):
        port = Port(f"h{index}", lambda frame, port, box=inboxes[index]:
                    box.append((sim.now, frame)))
        Link(sim, port, switch.new_port(), latency_s=1e-6)
        ports.append(port)
    return ports, [MacAddress.ordinal(i + 1) for i in range(n)], inboxes


def _pushes(sim):
    return sim.stats()["pushed"]


def test_a_flood_to_idle_ports_is_one_queue_entry():
    sim = Simulator()
    switch = Switch(sim)
    ports, macs, inboxes = _hosts(sim, switch, 9)
    ports[0].transmit(_frame(macs[0], BROADCAST_MAC))
    sim.run()
    # Its arrival at the switch, then one entry for all eight copies.
    assert _pushes(sim) == 2
    assert [len(box) for box in inboxes] == [0] + [1] * 8
    assert len({when for box in inboxes[1:] for when, _f in box}) == 1


def test_a_unicast_frame_through_the_switch_is_two_queue_entries():
    sim = Simulator()
    switch = Switch(sim)
    ports, macs, inboxes = _hosts(sim, switch, 3)
    ports[1].transmit(_frame(macs[1], BROADCAST_MAC))      # teach mac 1
    sim.run()
    before = _pushes(sim)
    frame = _frame(macs[0], macs[1])
    ports[0].transmit(frame)
    sim.run()
    assert _pushes(sim) - before == 2      # arrival at switch, at host 1
    assert inboxes[1][-1][1] is frame and len(inboxes[2]) == 1


@pytest.mark.parametrize("tiebreak", ["fifo", "lifo"])
@pytest.mark.parametrize("order", list(itertools.permutations((1, 2, 3))),
                         ids=lambda order: "".join(map(str, order)))
def test_same_instant_frames_for_one_egress_leave_in_port_order(
        tiebreak, order):
    sim = Simulator(tiebreak=tiebreak)
    switch = Switch(sim)
    ports, macs, inboxes = _hosts(sim, switch, 4)
    ports[0].transmit(_frame(macs[0], BROADCAST_MAC))      # teach mac 0
    sim.run()
    popped = sim.stats()["popped"]
    frames = {index: _frame(macs[index], macs[0], 1000)
              for index in (1, 2, 3)}
    # Equal paths, equal sizes: all reach the switch at one instant,
    # their callbacks in whichever order the sends and the tie-break
    # give — every order of the three, some handed over after a higher
    # port's frame.
    for index in order:
        ports[index].transmit(frames[index])
    sim.run()
    assert [frame for _when, frame in inboxes[0]] == [
        frames[1], frames[2], frames[3]]
    # Three arrivals at the switch, three at host 0. A re-slot takes
    # the group's entries back and pushes them anew.
    assert sim.stats()["popped"] - popped == 6


def test_capture_reports_the_switch_hand_off_instant():
    from repro.net.capture import PacketCapture
    from repro.net.switch import FORWARDING_LATENCY_S

    sim = Simulator()
    switch = Switch(sim)
    ports, macs, inboxes = _hosts(sim, switch, 2)
    ports[1].transmit(_frame(macs[1], BROADCAST_MAC))      # teach mac 1
    sim.run()
    capture = PacketCapture()
    capture.attach(ports[1].link)
    arrived = []
    switch_port = ports[0].link.b
    receive = switch_port._receive
    switch_port._receive = lambda frame, port: (arrived.append(sim.now),
                                                receive(frame, port))
    before = _pushes(sim)
    frame = _frame(macs[0], macs[1])
    ports[0].transmit(frame)
    sim.run()
    (record,) = capture.frames
    assert record.frame is frame and not record.dropped
    # Handed over on arrival; reported at arrival + 3 µs, when the
    # egress may start it.
    assert record.time == arrived[0] + FORWARDING_LATENCY_S
    assert _pushes(sim) - before == 2


def test_a_frame_due_at_an_instant_already_delivered_gets_its_own_entry():
    sim = Simulator()
    got = []
    a = _capture_port("a", [])
    b = _capture_port("b", got)
    Link(sim, a, b, bandwidth_bps=float("inf"), latency_s=0.0)
    first, second = (_frame(MacAddress.ordinal(1), MacAddress.ordinal(2))
                     for _ in range(2))
    a.transmit(first)
    sim.run()
    a.transmit(second)          # arrives at the same instant, t = 0
    sim.run()
    assert got == [first, second] and sim.now == 0.0

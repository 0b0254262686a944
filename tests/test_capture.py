"""Packet capture tap."""

import pytest

from repro.cruz.cluster import CruzCluster
from repro.net.capture import PacketCapture
from repro.net.packet import ETHERTYPE_ARP

from tests.programs import EchoClient, EchoServer


def test_capture_records_handshake_and_data():
    cluster = CruzCluster(2, time_wait_s=0.5)
    capture = PacketCapture()
    for link in cluster.links:
        capture.attach(link)
    pod = cluster.create_pod(0, "svc")
    pod.spawn(EchoServer(port=8300))
    client = cluster.nodes[1].spawn(
        EchoClient(str(pod.ip), 8300, [b"captured"]))
    cluster.run_for(2.0)
    assert client.program.replies == [b"captured"]
    segments = list(capture.tcp_segments())
    assert segments
    from repro.net.packet import TcpFlags
    assert any(seg.flags & TcpFlags.SYN for _r, _p, seg in segments)
    assert any(seg.payload == b"captured" for _r, _p, seg in segments)
    # Gratuitous ARP from the pod attach was also seen.
    assert any(r.frame.ethertype == ETHERTYPE_ARP for r in capture.frames)
    assert "TCP" in capture.dump()


def test_capture_marks_dropped_frames():
    cluster = CruzCluster(2, time_wait_s=0.5)
    capture = PacketCapture()
    capture.attach(cluster.links[0])
    pod = cluster.create_pod(0, "svc")
    pod.spawn(EchoServer(port=8400))
    cluster.links[0].down = True
    cluster.nodes[1].spawn(EchoClient(str(pod.ip), 8400, [b"x"]))
    cluster.run_for(1.0)
    assert capture.dropped_count() >= 1
    assert "[DROPPED]" in capture.dump()


def test_capture_predicate_filters():
    cluster = CruzCluster(2, time_wait_s=0.5)
    capture = PacketCapture(
        predicate=lambda frame: frame.ethertype == ETHERTYPE_ARP)
    for link in cluster.links:
        capture.attach(link)
    pod = cluster.create_pod(0, "svc")
    pod.spawn(EchoServer(port=8500))
    client = cluster.nodes[1].spawn(
        EchoClient(str(pod.ip), 8500, [b"y"]))
    cluster.run_for(2.0)
    assert client.program.replies == [b"y"]
    assert capture.frames
    assert all(r.frame.ethertype == ETHERTYPE_ARP
               for r in capture.frames)


def _one_link():
    from repro.net.addresses import MacAddress
    from repro.net.link import Link, Port
    from repro.net.packet import ArpPacket, ARP_REPLY, EthernetFrame
    from repro.sim.core import Simulator

    sim = Simulator()
    received = []
    a = Port("a", lambda frame, port: None)
    b = Port("b", lambda frame, port: received.append(frame))
    link = Link(sim, a, b, latency_s=1e-3, name="a<->b")
    mac = MacAddress.ordinal(1)

    def frame():
        return EthernetFrame(mac, MacAddress.ordinal(2), ETHERTYPE_ARP,
                             ArpPacket(ARP_REPLY, mac, None, None, None))

    return sim, link, a, received, frame


def test_capture_marks_a_frame_dropped_in_flight():
    """The link going down while a frame is on the wire drops it at its
    arrival instant; the tap must say so, not only for drops at send."""
    sim, link, port, received, frame = _one_link()
    capture = PacketCapture()
    capture.attach(link)
    lost = frame()
    port.transmit(lost)
    sim.run(until=0.5e-3)              # still in flight
    link.down = True
    sim.run()
    assert received == [] and link.frames_dropped == 1
    assert [(r.frame, r.dropped) for r in capture.frames] == [
        (lost, False), (lost, True)]
    assert capture.frames[1].time == pytest.approx(1e-3, rel=0.01)
    assert capture.dropped_count() == 1
    assert "[DROPPED]" in capture.dump()


def test_capture_detach_stops_recording_and_keeps_the_frames():
    sim, link, port, received, frame = _one_link()
    capture = PacketCapture()
    capture.attach(link)
    port.transmit(frame())
    sim.run()
    capture.detach(link)
    port.transmit(frame())
    link.down = True
    port.transmit(frame())             # not even a drop is seen now
    sim.run()
    assert len(received) == 1 and link.frames_dropped == 2
    assert len(capture.frames) == 1 and not capture.frames[0].dropped

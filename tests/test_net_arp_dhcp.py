"""Tests for ARP resolution and the DHCP server."""

import pytest

from repro.net.addresses import Ipv4Address, MacAddress, Subnet
from repro.net.arp import ArpService
from repro.net.dhcp import (
    ACK,
    DISCOVER,
    DhcpMessage,
    DhcpServer,
    NAK,
    OFFER,
    RELEASE,
    REQUEST,
)
from repro.net.packet import ARP_REPLY, ARP_REQUEST
from repro.sim.core import Simulator

IP_A = Ipv4Address.parse("10.0.0.1")
IP_B = Ipv4Address.parse("10.0.0.2")
MAC_A = MacAddress.ordinal(1)
MAC_B = MacAddress.ordinal(2)


def _linked_arp_pair(sim):
    """Two ArpServices whose frames are delivered to each other."""
    services = {}

    def sender_for(name, other):
        def send(frame):
            sim.call_later(1e-5, lambda: services[other].handle(
                frame.payload))
        return send

    services["a"] = ArpService(sim, sender_for("a", "b"),
                               lambda: {IP_A: MAC_A})
    services["b"] = ArpService(sim, sender_for("b", "a"),
                               lambda: {IP_B: MAC_B})
    return services["a"], services["b"]


def test_arp_resolves_remote_ip():
    sim = Simulator()
    arp_a, _arp_b = _linked_arp_pair(sim)
    event = arp_a.resolve(IP_B, MAC_A, IP_A)
    sim.run()
    assert event.ok and event.value == MAC_B
    assert arp_a.lookup(IP_B) == MAC_B


def test_arp_cached_resolution_is_immediate():
    sim = Simulator()
    arp_a, _ = _linked_arp_pair(sim)
    arp_a.cache[IP_B] = MAC_B
    event = arp_a.resolve(IP_B, MAC_A, IP_A)
    assert event.triggered and event.value == MAC_B


def test_arp_timeout_without_answer():
    sim = Simulator()
    dropped = []
    arp = ArpService(sim, dropped.append, lambda: {IP_A: MAC_A},
                     request_timeout_s=0.1)
    event = arp.resolve(IP_B, MAC_A, IP_A)
    sim.run()
    assert event.triggered and not event.ok
    assert isinstance(event.value, TimeoutError)


def test_arp_single_request_for_concurrent_resolvers():
    sim = Simulator()
    sent = []
    arp = ArpService(sim, sent.append, lambda: {IP_A: MAC_A})
    e1 = arp.resolve(IP_B, MAC_A, IP_A)
    e2 = arp.resolve(IP_B, MAC_A, IP_A)
    assert len(sent) == 1
    from repro.net.packet import ArpPacket
    arp.handle(ArpPacket(ARP_REPLY, MAC_B, IP_B, MAC_A, IP_A))
    assert e1.value == MAC_B and e2.value == MAC_B


def test_arp_answers_requests_for_owned_ips():
    sim = Simulator()
    sent = []
    arp = ArpService(sim, sent.append, lambda: {IP_A: MAC_A})
    from repro.net.packet import ArpPacket
    arp.handle(ArpPacket(ARP_REQUEST, MAC_B, IP_B, None, IP_A))
    assert len(sent) == 1
    reply = sent[0].payload
    assert reply.operation == ARP_REPLY
    assert reply.sender_mac == MAC_A and reply.sender_ip == IP_A


def test_gratuitous_arp_updates_peer_cache():
    sim = Simulator()
    arp_a, arp_b = _linked_arp_pair(sim)
    arp_b.cache[IP_A] = MAC_A
    new_mac = MacAddress.ordinal(77)
    # Simulate migration: A announces its IP at a new MAC.
    arp_a.announce(IP_A, new_mac)
    sim.run()
    assert arp_b.cache[IP_A] == new_mac


def test_overhearing_a_known_mapping_again_flushes_no_routes():
    """A flooded ARP request reaches every node on the subnet. Hearing
    a mapping the cache already holds changes nothing, so it must not
    bump ``arp.version`` — the stack's whole route cache hangs on it."""
    from repro.cluster import Cluster
    from repro.net.packet import ArpPacket

    cluster = Cluster(3, trace_enabled=False)
    listener, asker, target = (node.stack for node in cluster.nodes)
    # The bystander has resolved a route of its own (to the target).
    listener.udp.send(listener.eth0.ip, 9, target.eth0.ip, 9, b"warm")
    cluster.run_for(0.01)
    listener.udp.send(listener.eth0.ip, 9, target.eth0.ip, 9, b"cached")
    assert listener._routes
    request = ArpPacket(ARP_REQUEST, asker.eth0.mac, asker.eth0.ip,
                        None, target.eth0.ip)
    listener.arp.handle(request)        # first time: learns the asker
    listener.udp.send(listener.eth0.ip, 9, target.eth0.ip, 9, b"refill")
    # A flush-and-refill would rebuild the live route but not this one.
    canary = (listener.eth0.ip, Ipv4Address.parse("10.1.9.9"))
    listener._routes[canary] = (listener.eth0.mac, MAC_B)
    version = listener.arp.version
    listener.arp.handle(request)        # overheard again
    listener.udp.send(listener.eth0.ip, 9, target.eth0.ip, 9, b"again")
    assert listener.arp.version == version
    assert canary in listener._routes
    # The same IP at a new MAC (gratuitous ARP after a migration) is a
    # change and still invalidates.
    moved = ArpPacket(ARP_REPLY, MacAddress.ordinal(77), asker.eth0.ip,
                      asker.eth0.mac, asker.eth0.ip)
    listener.arp.handle(moved)
    assert listener.arp.version == version + 1
    listener.udp.send(listener.eth0.ip, 9, target.eth0.ip, 9, b"after")
    assert listener.arp.lookup(asker.eth0.ip) == MacAddress.ordinal(77)
    assert canary not in listener._routes


def _make_server(replies, now=lambda: 0.0, lease=10.0):
    pool = Subnet(Ipv4Address.parse("10.0.0.0"), 24).hosts(start=100)
    return DhcpServer("srv", pool,
                      lambda msg, dst: replies.append(msg), now,
                      default_lease_s=lease)


def test_dhcp_discover_offer_request_ack():
    replies = []
    server = _make_server(replies)
    server.handle(DhcpMessage(kind=DISCOVER, xid=1, chaddr=MAC_A))
    assert replies[-1].kind == OFFER
    offered = replies[-1].yiaddr
    server.handle(DhcpMessage(kind=REQUEST, xid=1, chaddr=MAC_A,
                              requested_ip=offered))
    assert replies[-1].kind == ACK
    assert replies[-1].yiaddr == offered
    assert server.active_lease(MAC_A).ip == offered


def test_dhcp_identifies_clients_by_chaddr_not_frame():
    """The property Cruz's fake-MAC trick relies on (§4.2)."""
    replies = []
    server = _make_server(replies)
    server.handle(DhcpMessage(kind=DISCOVER, xid=1, chaddr=MAC_A))
    first = replies[-1].yiaddr
    server.handle(DhcpMessage(kind=REQUEST, xid=1, chaddr=MAC_A,
                              requested_ip=first))
    # Renewal with the same chaddr (even from different hardware) keeps IP.
    server.handle(DhcpMessage(kind=REQUEST, xid=2, chaddr=MAC_A,
                              requested_ip=first))
    assert replies[-1].kind == ACK and replies[-1].yiaddr == first
    # A different chaddr gets a different IP.
    server.handle(DhcpMessage(kind=DISCOVER, xid=3, chaddr=MAC_B))
    assert replies[-1].yiaddr != first


def test_dhcp_nak_on_wrong_request():
    replies = []
    server = _make_server(replies)
    server.handle(DhcpMessage(kind=REQUEST, xid=1, chaddr=MAC_A,
                              requested_ip=Ipv4Address.parse("10.0.0.200")))
    # Never offered 10.0.0.200 to MAC_A; allocation starts at .100.
    assert replies[-1].kind == NAK


def test_dhcp_static_reservation():
    replies = []
    server = _make_server(replies)
    wanted = Ipv4Address.parse("10.0.0.7")
    server.reserve(MAC_A, wanted)
    server.handle(DhcpMessage(kind=DISCOVER, xid=1, chaddr=MAC_A))
    assert replies[-1].yiaddr == wanted


def test_dhcp_release_and_lease_expiry():
    replies = []
    clock = [0.0]
    server = _make_server(replies, now=lambda: clock[0], lease=5.0)
    server.handle(DhcpMessage(kind=DISCOVER, xid=1, chaddr=MAC_A))
    ip = replies[-1].yiaddr
    server.handle(DhcpMessage(kind=REQUEST, xid=1, chaddr=MAC_A,
                              requested_ip=ip))
    assert server.active_lease(MAC_A) is not None
    clock[0] = 6.0
    assert server.active_lease(MAC_A) is None
    server.expire_stale()
    assert MAC_A not in server.leases
    server.handle(DhcpMessage(kind=RELEASE, xid=1, chaddr=MAC_A))


def test_dhcp_pool_exhaustion():
    replies = []
    pool = Subnet(Ipv4Address.parse("10.0.0.0"), 30).hosts()  # 2 hosts
    server = DhcpServer("srv", pool, lambda m, d: replies.append(m),
                        lambda: 0.0)
    for i in range(2):
        mac = MacAddress.ordinal(10 + i)
        server.handle(DhcpMessage(kind=DISCOVER, xid=i, chaddr=mac))
        server.handle(DhcpMessage(kind=REQUEST, xid=i, chaddr=mac,
                                  requested_ip=replies[-1].yiaddr))
    from repro.errors import NetworkError
    with pytest.raises(NetworkError):
        server.handle(DhcpMessage(kind=DISCOVER, xid=9,
                                  chaddr=MacAddress.ordinal(99)))

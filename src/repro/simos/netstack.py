"""Per-node IP stack: ties the NIC, ARP, netfilter, TCP and UDP together."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.addresses import (
    BROADCAST_MAC,
    Ipv4Address,
    MacAddress,
)
from repro.net.arp import ArpService
from repro.net.nic import Nic
from repro.net.packet import (
    ArpPacket,
    ETHERTYPE_ARP,
    ETHERTYPE_IP,
    EthernetFrame,
    IpPacket,
    PROTO_TCP,
    PROTO_UDP,
)
from repro.net.switch import Switch
from repro.net.link import Link
from repro.sim.core import Simulator
from repro.simos.netdev import Interface, InterfaceTable
from repro.simos.netfilter import INPUT, Netfilter, OUTPUT
from repro.tcp.stack import TcpStack
from repro.tcp.udp import UdpStack

BROADCAST_IP = Ipv4Address((1 << 32) - 1)

#: Loopback latency for node-local traffic.
LOOPBACK_DELAY = 2e-6

#: Route-cache sentinel for node-local (loopback) destinations.
_LOCAL_ROUTE = object()


class NetworkStack:
    """The L2/L3 glue for one node."""

    def __init__(self, sim: Simulator, node_name: str, nic: Nic,
                 time_wait_s: float = 60.0, iss_seed: int = 1):
        self.sim = sim
        self.node_name = node_name
        self.nic = nic
        nic.rx_handler = self._on_frame
        self.interfaces = InterfaceTable()
        self.netfilter = Netfilter()
        #: Frame output is the NIC's own send: no hop in between.
        self._send_frame = nic.send
        self.arp = ArpService(sim, self._send_frame,
                              self.interfaces.owned_ips)
        self.tcp = TcpStack(sim, self.send_packet, name=node_name,
                            time_wait_s=time_wait_s, iss_seed=iss_seed)
        self.udp = UdpStack(sim, self.send_packet, name=node_name)
        self._arp_pending: Dict[Ipv4Address, List[IpPacket]] = {}
        self.packets_sent = 0
        self.packets_received = 0
        self.packets_dropped_no_route = 0
        # Route/flow cache: (src_ip, dst_ip) -> (src_mac, dst_mac), or
        # the LOCAL sentinel for node-local destinations. Valid only
        # while the interface and ARP versions it was filled under are
        # current — a migration's gratuitous ARP or a VIF add/remove
        # flushes it wholesale (netfilter is consulted before the cache,
        # per packet). Mirrors the kernel's per-flow dst-entry cache:
        # the full resolution walk (interface scan, ARP lookup) runs
        # once per flow, not once per packet.
        self._routes: Dict = {}
        self._routes_if_version = -1
        self._routes_arp_version = -1

        # The physical interface.
        self.eth0 = self.interfaces.add(
            Interface(name="eth0", mac=nic.primary_mac))

    # -- interface management ------------------------------------------

    def configure_eth0(self, ip: Ipv4Address) -> None:
        self.eth0.ip = ip
        # Mutating the interface in place bypasses InterfaceTable's
        # add/remove hooks, so invalidate dependent caches by hand.
        self.interfaces.version += 1

    def add_vif(self, name: str, ip: Ipv4Address, mac: MacAddress,
                pod_id: int, own_wire_mac: bool = True,
                fake_mac: Optional[MacAddress] = None) -> Interface:
        """Create a pod VIF. With ``own_wire_mac`` the NIC must filter the
        extra MAC (multi-MAC hardware); otherwise the VIF shares the
        physical MAC and keeps ``fake_mac`` as its identity."""
        if own_wire_mac:
            self.nic.add_mac(mac)
            wire_mac = mac
        else:
            wire_mac = self.nic.primary_mac
            if fake_mac is None:
                fake_mac = mac
        interface = self.interfaces.add(Interface(
            name=name, mac=wire_mac, ip=ip, pod_id=pod_id,
            fake_mac=fake_mac, owns_wire_mac=own_wire_mac))
        return interface

    def remove_vif(self, name: str) -> Interface:
        interface = self.interfaces.remove(name)
        if interface.owns_wire_mac and \
                interface.mac != self.nic.primary_mac:
            self.nic.remove_mac(interface.mac)
        return interface

    def announce(self, interface: Interface) -> None:
        """Gratuitous ARP for a (re)attached interface."""
        if interface.ip is not None:
            self.arp.announce(interface.ip, interface.mac)

    def owns_ip(self, ip: Ipv4Address) -> bool:
        return ip in self.interfaces.owned_ips()

    # -- output path -----------------------------------------------------

    def send_packet(self, packet: IpPacket) -> None:
        """IP output: netfilter, loopback, ARP resolution, framing."""
        netfilter = self.netfilter
        if netfilter.rules:
            if not netfilter.allows(packet, OUTPUT):
                return
        else:
            # No rules installed: allows() is a guaranteed pass, so skip
            # the scan but keep the hook counter exact.
            netfilter.passed[OUTPUT] += 1
        self.packets_sent += 1
        if_version = self.interfaces.version
        arp_version = self.arp.version
        if if_version != self._routes_if_version \
                or arp_version != self._routes_arp_version:
            self._routes.clear()
            self._routes_if_version = if_version
            self._routes_arp_version = arp_version
        route = self._routes.get((packet.src, packet.dst))
        if route is None:
            self._route_and_send(packet)
        elif route is _LOCAL_ROUTE:
            self.sim.defer(LOOPBACK_DELAY, self._input, packet)
        else:
            self._send_frame(EthernetFrame(
                route[0], route[1], ETHERTYPE_IP, packet))

    def _route_and_send(self, packet: IpPacket) -> None:
        """Route-cache miss: the full resolution walk, caching the result."""
        if self.owns_ip(packet.dst):
            # Node-local delivery still traverses the input hook so pod
            # isolation works between pods on one machine.
            self._routes[(packet.src, packet.dst)] = _LOCAL_ROUTE
            self.sim.defer(LOOPBACK_DELAY, self._input, packet)
            return
        source_iface = self.interfaces.by_ip(packet.src)
        src_mac = source_iface.mac if source_iface is not None \
            else self.nic.primary_mac
        if packet.dst == BROADCAST_IP:
            # Broadcasts are rare control traffic; never cached.
            self._send_frame(EthernetFrame(
                src=src_mac, dst=BROADCAST_MAC,
                ethertype=ETHERTYPE_IP, payload=packet))
            return
        dst_mac = self.arp.lookup(packet.dst)
        if dst_mac is not None:
            self._routes[(packet.src, packet.dst)] = (src_mac, dst_mac)
            self._send_frame(EthernetFrame(
                src=src_mac, dst=dst_mac,
                ethertype=ETHERTYPE_IP, payload=packet))
            return
        self._resolve_and_send(packet, src_mac)

    def _resolve_and_send(self, packet: IpPacket,
                          src_mac: MacAddress) -> None:
        pending = self._arp_pending.setdefault(packet.dst, [])
        pending.append(packet)
        if len(pending) > 1:
            return  # resolution already in flight
        src_ip = packet.src
        event = self.arp.resolve(packet.dst, src_mac, src_ip)

        def finish(ev):
            queued = self._arp_pending.pop(packet.dst, [])
            if not ev.ok:
                self.packets_dropped_no_route += len(queued)
                return
            mac = ev.value
            for queued_packet in queued:
                iface = self.interfaces.by_ip(queued_packet.src)
                mac_src = iface.mac if iface is not None \
                    else self.nic.primary_mac
                self._send_frame(EthernetFrame(
                    src=mac_src, dst=mac,
                    ethertype=ETHERTYPE_IP, payload=queued_packet))

        if event.callbacks is not None:
            event.callbacks.append(finish)
        else:
            finish(event)

    # -- input path --------------------------------------------------------

    def _on_frame(self, frame: EthernetFrame, _nic: Nic) -> None:
        if frame.ethertype == ETHERTYPE_ARP:
            payload = frame.payload
            if isinstance(payload, ArpPacket):
                self.arp.handle(payload)
            return
        if frame.ethertype == ETHERTYPE_IP and isinstance(
                frame.payload, IpPacket):
            self._input(frame.payload)

    def _input(self, packet: IpPacket) -> None:
        netfilter = self.netfilter
        if netfilter.rules:
            if not netfilter.allows(packet, INPUT):
                return
        else:
            # As on output: no rules, a guaranteed pass, counter exact.
            netfilter.passed[INPUT] += 1
        dst = packet.dst
        if dst not in self.interfaces.owned_ips() and dst != BROADCAST_IP:
            return  # not a router
        self.packets_received += 1
        if packet.protocol == PROTO_TCP:
            self.tcp.on_packet(packet)
        elif packet.protocol == PROTO_UDP:
            self.udp.on_packet(packet)


def cable(sim: Simulator, stack_nic: Nic, switch: Switch,
          bandwidth_bps: float = 1e9, latency_s: float = 5e-6) -> Link:
    """Wire a NIC to a switch port."""
    return Link(sim, stack_nic.port, switch.new_port(),
                bandwidth_bps=bandwidth_bps, latency_s=latency_s)

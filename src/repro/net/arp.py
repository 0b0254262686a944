"""Address Resolution Protocol.

One :class:`ArpService` per host network stack. It answers requests for any
IP the host currently owns (including pod VIF addresses) and supports
gratuitous announcements, which Cruz uses after migration to repoint the
subnet at the pod's new MAC/port (§4.2).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.net.packet import (
    ARP_REPLY,
    ARP_REQUEST,
    ArpPacket,
    ETHERTYPE_ARP,
    EthernetFrame,
)
from repro.sim.core import Event, Simulator


class ArpService:
    """ARP cache + request/reply handling for one host."""

    def __init__(self, sim: Simulator,
                 send_frame: Callable[[EthernetFrame], None],
                 owned_addresses: Callable[[], Dict[Ipv4Address, MacAddress]],
                 request_timeout_s: float = 0.5):
        self.sim = sim
        self._send_frame = send_frame
        self._owned_addresses = owned_addresses
        self.request_timeout_s = request_timeout_s
        self.cache: Dict[Ipv4Address, MacAddress] = {}
        self._pending: Dict[Ipv4Address, List[Event]] = {}
        #: Bumped whenever a mapping *changes* (learned, re-pointed,
        #: evicted); the network stack's route cache keys its validity
        #: on this (plus the interface version), so gratuitous ARP after
        #: a migration invalidates stale cached routes immediately.
        #: Re-hearing a mapping the cache already holds is not a change:
        #: every bystander of a flooded request would otherwise drop its
        #: whole route cache although nothing it cached moved.
        self.version = 0

    def lookup(self, ip: Ipv4Address) -> Optional[MacAddress]:
        return self.cache.get(ip)

    def resolve(self, ip: Ipv4Address,
                source_mac: MacAddress,
                source_ip: Ipv4Address) -> Event:
        """Return an event that succeeds with the MAC for ``ip``.

        Fails with :class:`TimeoutError` if no reply arrives in time.
        """
        event = self.sim.event(name=f"arp({ip})")
        cached = self.cache.get(ip)
        if cached is not None:
            event.succeed(cached)
            return event
        waiters = self._pending.setdefault(ip, [])
        waiters.append(event)
        if len(waiters) == 1:
            request = ArpPacket(
                operation=ARP_REQUEST, sender_mac=source_mac,
                sender_ip=source_ip, target_mac=None, target_ip=ip)
            self._send_frame(EthernetFrame(
                src=source_mac, dst=BROADCAST_MAC,
                ethertype=ETHERTYPE_ARP, payload=request))
            self.sim.call_later(self.request_timeout_s, self._expire, ip)
        return event

    def _expire(self, ip: Ipv4Address) -> None:
        waiters = self._pending.pop(ip, [])
        for event in waiters:
            if not event.triggered:
                event.fail(TimeoutError(f"ARP timeout for {ip}"))

    def handle(self, packet: ArpPacket) -> None:
        """Process a received ARP packet (request or reply)."""
        # Learn the sender mapping opportunistically; this is also how
        # gratuitous ARP announcements take effect.
        sender_ip = packet.sender_ip
        sender_mac = packet.sender_mac
        if self.cache.get(sender_ip) != sender_mac:
            self.cache[sender_ip] = sender_mac
            self.version += 1
        if self._pending:
            for event in self._pending.pop(sender_ip, ()):
                if not event.triggered:
                    event.succeed(sender_mac)
        if packet.operation != ARP_REQUEST:
            return
        mac = self._owned_addresses().get(packet.target_ip)
        if mac is None:
            return
        reply = ArpPacket(
            operation=ARP_REPLY, sender_mac=mac,
            sender_ip=packet.target_ip, target_mac=packet.sender_mac,
            target_ip=packet.sender_ip)
        self._send_frame(EthernetFrame(
            src=mac, dst=packet.sender_mac,
            ethertype=ETHERTYPE_ARP, payload=reply))

    def announce(self, ip: Ipv4Address, mac: MacAddress) -> None:
        """Send a gratuitous ARP so switches and caches re-learn ``ip``."""
        packet = ArpPacket(
            operation=ARP_REPLY, sender_mac=mac, sender_ip=ip,
            target_mac=BROADCAST_MAC, target_ip=ip)
        self._send_frame(EthernetFrame(
            src=mac, dst=BROADCAST_MAC,
            ethertype=ETHERTYPE_ARP, payload=packet))

    def evict(self, ip: Ipv4Address) -> None:
        if self.cache.pop(ip, None) is not None:
            self.version += 1

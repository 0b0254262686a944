"""A minimal per-host UDP layer (DHCP and datagram tests ride on it)."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import SyscallError
from repro.net.addresses import ANY_IP, Ipv4Address
from repro.net.packet import IpPacket, PROTO_UDP, UdpDatagram
from repro.sim.core import Simulator

#: handler(payload, src_ip, src_port, dst_ip)
UdpHandler = Callable[[object, Ipv4Address, int, Ipv4Address], None]


class UdpStack:
    """Bind/sendto/demux for UDP."""

    def __init__(self, sim: Simulator,
                 send_packet: Callable[[IpPacket], None], name: str = ""):
        self.sim = sim
        self.send_packet = send_packet
        self.name = name
        self._bindings: Dict[int, UdpHandler] = {}
        self.datagrams_received = 0
        self.datagrams_dropped = 0

    def bind(self, port: int, handler: UdpHandler) -> None:
        if port in self._bindings:
            raise SyscallError("EADDRINUSE", f"udp port {port} in use")
        self._bindings[port] = handler

    def unbind(self, port: int) -> None:
        self._bindings.pop(port, None)

    def send(self, src_ip: Ipv4Address, src_port: int, dst_ip: Ipv4Address,
             dst_port: int, payload: object,
             payload_size: Optional[int] = None) -> None:
        datagram = UdpDatagram(src_port=src_port, dst_port=dst_port,
                               payload=payload, payload_size=payload_size)
        self.send_packet(IpPacket(
            src=src_ip, dst=dst_ip, protocol=PROTO_UDP, payload=datagram))

    def on_packet(self, packet: IpPacket) -> None:
        datagram = packet.payload
        if not isinstance(datagram, UdpDatagram):
            return
        handler = self._bindings.get(datagram.dst_port) \
            or self._bindings.get(-1)
        if handler is None:
            self.datagrams_dropped += 1
            return
        self.datagrams_received += 1
        handler(datagram.payload, packet.src, datagram.src_port, packet.dst)

    # Used where PROTO constant is needed without importing packet module.
    PROTOCOL = PROTO_UDP
    ANY = ANY_IP

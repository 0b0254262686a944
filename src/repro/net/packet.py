"""On-the-wire message formats: Ethernet, ARP, IPv4, TCP, UDP.

These are plain immutable dataclasses rather than byte blobs — the simulator
never needs real serialisation, but sizes are modelled so links can account
for transmission time the way a gigabit NIC would.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import IntFlag
from functools import cached_property
from typing import Optional, Union

from repro.net.addresses import Ipv4Address, MacAddress

ETHERNET_HEADER_BYTES = 18  # dst + src + type + FCS
IP_HEADER_BYTES = 20
TCP_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
ARP_BODY_BYTES = 28
#: Standard Ethernet MTU (IP payload budget), as in the paper's testbed.
MTU = 1500
#: Maximum TCP segment payload given the MTU.
DEFAULT_MSS = MTU - IP_HEADER_BYTES - TCP_HEADER_BYTES

ETHERTYPE_IP = 0x0800
ETHERTYPE_ARP = 0x0806

PROTO_TCP = 6
PROTO_UDP = 17

_frame_ids = itertools.count(1)


class TcpFlags(IntFlag):
    """TCP header flags."""

    NONE = 0
    FIN = 1
    SYN = 2
    RST = 4
    PSH = 8
    ACK = 16


#: Plain-int flag masks for the per-segment hot path. ``IntFlag``
#: operators dispatch through enum machinery (``__and__`` + member
#: ``__call__``) which showed up as whole percents of event-loop runtime;
#: ``int & int`` is a single C-level op. ``TcpSegment.flags`` accepts
#: either form — ``describe()`` re-wraps for display.
TCP_FIN = 1
TCP_SYN = 2
TCP_RST = 4
TCP_PSH = 8
TCP_ACK = 16


class TcpSegment:
    """A TCP segment; ``seq`` numbers the first payload byte.

    A plain ``__slots__`` class, not a dataclass: segments are created
    once per transmission on the simulator's hottest path, so ``size``
    and ``seq_len`` are precomputed ints and construction is a handful
    of slot stores. Instances are treated as immutable by convention.
    """

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "window",
                 "payload", "size", "seq_len")

    def __init__(self, src_port: int, dst_port: int, seq: int, ack: int,
                 flags: int, window: int, payload: bytes = b""):
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window
        self.payload = payload
        length = len(payload)
        #: Wire size in bytes (header + payload).
        self.size = TCP_HEADER_BYTES + length
        #: Sequence space consumed: payload bytes plus SYN/FIN.
        if flags & 3:               # SYN and/or FIN each consume one
            length += (1 if flags & TCP_SYN else 0) \
                + (1 if flags & TCP_FIN else 0)
        self.seq_len = length

    def describe(self) -> str:
        names = [flag.name for flag in TcpFlags
                 if flag and self.flags & flag]
        return (f"TCP {self.src_port}->{self.dst_port} "
                f"[{'|'.join(names) or '.'}] seq={self.seq} ack={self.ack} "
                f"len={len(self.payload)}")

    def __repr__(self) -> str:
        return f"<{self.describe()}>"


@dataclass(frozen=True)
class UdpDatagram:
    """A UDP datagram."""

    src_port: int
    dst_port: int
    payload: object = b""
    payload_size: Optional[int] = None

    @cached_property
    def size(self) -> int:
        if self.payload_size is not None:
            return UDP_HEADER_BYTES + self.payload_size
        if isinstance(self.payload, (bytes, bytearray)):
            return UDP_HEADER_BYTES + len(self.payload)
        return UDP_HEADER_BYTES + 64


class IpPacket:
    """An IPv4 packet carrying TCP or UDP (plain slots, hot path)."""

    __slots__ = ("src", "dst", "protocol", "payload", "ttl", "size")

    def __init__(self, src: Ipv4Address, dst: Ipv4Address, protocol: int,
                 payload: Union[TcpSegment, UdpDatagram], ttl: int = 64):
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.payload = payload
        self.ttl = ttl
        self.size = IP_HEADER_BYTES + payload.size

    def __repr__(self) -> str:
        return (f"<IpPacket {self.src}->{self.dst} "
                f"proto={self.protocol} {self.size}B>")


ARP_REQUEST = 1
ARP_REPLY = 2


@dataclass(frozen=True)
class ArpPacket:
    """An ARP request/reply (also used for gratuitous ARP announcements)."""

    operation: int
    sender_mac: MacAddress
    sender_ip: Ipv4Address
    target_mac: Optional[MacAddress]
    target_ip: Ipv4Address

    @cached_property
    def size(self) -> int:
        return ARP_BODY_BYTES


class EthernetFrame:
    """An Ethernet frame. ``frame_id`` makes traces unambiguous."""

    __slots__ = ("src", "dst", "ethertype", "payload", "frame_id", "size")

    def __init__(self, src: MacAddress, dst: MacAddress, ethertype: int,
                 payload: Union[IpPacket, ArpPacket]):
        self.src = src
        self.dst = dst
        self.ethertype = ethertype
        self.payload = payload
        self.frame_id = next(_frame_ids)
        self.size = ETHERNET_HEADER_BYTES + payload.size

    def __repr__(self) -> str:
        return (f"<EthernetFrame #{self.frame_id} {self.src}->{self.dst} "
                f"{self.size}B>")


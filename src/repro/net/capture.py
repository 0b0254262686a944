"""Packet capture: a tcpdump-style tap on links.

Attach a :class:`PacketCapture` to any :class:`~repro.net.link.Link` to
record every frame that crosses it (including dropped ones, marked as
such) — the tool that makes "why did this connection stall" questions
answerable in tests and examples.

The tap is a link observer (:meth:`repro.net.link.Link.observe`): one
record when the link accepts a frame for transmission, one
``[DROPPED]`` record when it drops one — at send, or at the arrival
instant if the link went down while the frame was in flight (that frame
therefore shows twice: sent, then dropped).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.net.link import Link
from repro.net.packet import (
    ArpPacket,
    EthernetFrame,
    IpPacket,
    TcpSegment,
    UdpDatagram,
)


@dataclass(frozen=True)
class CapturedFrame:
    time: float
    frame: EthernetFrame
    dropped: bool
    link: str

    def describe(self) -> str:
        payload = self.frame.payload
        drop = " [DROPPED]" if self.dropped else ""
        if isinstance(payload, ArpPacket):
            body = (f"ARP op={payload.operation} "
                    f"{payload.sender_ip} -> {payload.target_ip}")
        elif isinstance(payload, IpPacket):
            inner = payload.payload
            if isinstance(inner, TcpSegment):
                body = f"{payload.src} -> {payload.dst} {inner.describe()}"
            elif isinstance(inner, UdpDatagram):
                body = (f"UDP {payload.src}:{inner.src_port} -> "
                        f"{payload.dst}:{inner.dst_port} "
                        f"len={inner.size}")
            else:
                body = f"IP {payload.src} -> {payload.dst}"
        else:
            body = "?"
        return f"{self.time*1000:10.3f} ms  {self.link:<18} {body}{drop}"


class PacketCapture:
    """Records traffic on one or more links."""

    def __init__(self,
                 predicate: Optional[Callable[[EthernetFrame], bool]]
                 = None, max_frames: int = 100_000):
        self.predicate = predicate
        self.max_frames = max_frames
        self.frames: List[CapturedFrame] = []
        self._links: List[Link] = []

    def attach(self, link: Link) -> None:
        """Start recording every frame ``link`` sends or drops."""
        link.observe(self._record)
        self._links.append(link)

    def detach(self, link: Link) -> None:
        """Stop recording ``link``; what was captured stays."""
        link.unobserve(self._record)
        self._links.remove(link)

    def _record(self, link: Link, frame: EthernetFrame, dropped: bool,
                at: float) -> None:
        if self.predicate is None or self.predicate(frame):
            if len(self.frames) < self.max_frames:
                self.frames.append(CapturedFrame(
                    time=at, frame=frame, dropped=dropped, link=link.name))

    def tcp_segments(self):
        """Iterate (record, ip_packet, tcp_segment) for TCP frames."""
        for record in self.frames:
            payload = record.frame.payload
            if isinstance(payload, IpPacket) and \
                    isinstance(payload.payload, TcpSegment):
                yield record, payload, payload.payload

    def dropped_count(self) -> int:
        return sum(1 for record in self.frames if record.dropped)

    def dump(self, limit: int = 50) -> str:
        lines = [record.describe() for record in self.frames[:limit]]
        if len(self.frames) > limit:
            lines.append(f"... {len(self.frames) - limit} more frames")
        return "\n".join(lines)

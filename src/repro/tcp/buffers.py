"""TCP send and receive buffers.

The send buffer mirrors Linux's ``sk_buff`` write queue: it stores *packetised*
data — each entry is one segment with its sequence number. Cruz's checkpoint
walks this structure directly (Linux has no syscall to read it) and must
preserve the recorded packet boundaries on restore, because "the Linux TCP
stack expects ACK sequence numbers to correspond to packet boundaries" (§4.1).

The receive buffer performs reassembly: in-order bytes await delivery to the
application; out-of-order segments wait in a staging map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import TcpError


@dataclass
class BufferedSegment:
    """One packet's worth of sent-but-unacknowledged data."""

    seq: int
    payload: bytes
    transmit_count: int = 0
    last_sent_at: float = -1.0

    @property
    def end(self) -> int:
        return self.seq + len(self.payload)


class SendBuffer:
    """Write queue: unacknowledged segments plus not-yet-segmented bytes."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.segments: List[BufferedSegment] = []  # [snd_una, snd_nxt)
        self.pending = bytearray()                 # accepted, not yet sent
        #: Payload bytes held in ``segments`` — a running count kept by
        #: :meth:`segmentize` and :meth:`acknowledge` (the only two
        #: places that change what ``segments`` holds), because every
        #: ACK asks for :attr:`free_space`.
        self.unacked_bytes = 0

    @property
    def used(self) -> int:
        return self.unacked_bytes + len(self.pending)

    @property
    def free_space(self) -> int:
        return max(0, self.capacity - self.used)

    def accept(self, data: bytes) -> int:
        """Accept up to ``free_space`` bytes from the application."""
        take = min(len(data), self.free_space)
        self.pending.extend(data[:take])
        return take

    def segmentize(self, seq: int, max_bytes: int) -> Optional[bytes]:
        """Carve the next segment (up to ``max_bytes``) out of ``pending``.

        Records the packet boundary by appending a :class:`BufferedSegment`
        starting at ``seq``. Returns the payload, or ``None`` if nothing to
        send.
        """
        if not self.pending or max_bytes <= 0:
            return None
        payload = bytes(self.pending[:max_bytes])
        del self.pending[:len(payload)]
        if self.segments and self.segments[-1].end != seq:
            raise TcpError(
                f"segment gap: expected seq {self.segments[-1].end}, "
                f"got {seq}")
        self.segments.append(BufferedSegment(seq=seq, payload=payload))
        self.unacked_bytes += len(payload)
        return payload

    def acknowledge(self, ack: int) -> int:
        """Drop segments fully covered by cumulative ``ack``.

        Returns the number of segments newly acknowledged. A partial ack
        (mid-segment) trims the front segment, though with boundary-preserving
        peers acks land on segment edges.
        """
        segments = self.segments
        released = 0
        freed = 0
        for segment in segments:
            size = len(segment.payload)
            if segment.seq + size > ack:
                break
            released += 1
            freed += size
        if released:
            del segments[:released]
        if segments and segments[0].seq < ack:
            head = segments[0]
            trimmed = ack - head.seq
            head.payload = head.payload[trimmed:]
            head.seq = ack
            freed += trimmed
        self.unacked_bytes -= freed
        return released

    def walk(self) -> List[Tuple[int, bytes]]:
        """Checkpoint helper: the kernel-structure walk of §4.1.

        Returns ``(seq, payload)`` per packet, preserving packetisation.
        """
        return [(segment.seq, segment.payload)
                for segment in self.segments]

    def oldest_unacked(self) -> Optional[BufferedSegment]:
        return self.segments[0] if self.segments else None


class ReceiveBuffer:
    """Reassembly queue plus the in-order bytes awaiting the application."""

    def __init__(self, capacity: int, rcv_nxt: int):
        self.capacity = capacity
        self.rcv_nxt = rcv_nxt
        self.data = bytearray()
        self._out_of_order: Dict[int, bytes] = {}

    @property
    def available(self) -> int:
        """Bytes deliverable to the application right now."""
        return len(self.data)

    @property
    def window(self) -> int:
        """Advertisable receive window."""
        return max(0, self.capacity - len(self.data))

    def store(self, seq: int, payload: bytes) -> int:
        """Insert a received segment; returns bytes newly made in-order."""
        if not payload:
            return 0
        end = seq + len(payload)
        if end <= self.rcv_nxt:
            return 0  # entirely duplicate
        if seq > self.rcv_nxt:
            if seq - self.rcv_nxt + len(payload) <= self.window:
                existing = self._out_of_order.get(seq)
                if existing is None or len(existing) < len(payload):
                    self._out_of_order[seq] = payload
            return 0
        # Overlaps rcv_nxt: trim any duplicate prefix, then append.
        payload = payload[self.rcv_nxt - seq:]
        payload = payload[:self.window]
        if not payload:
            return 0
        self.data.extend(payload)
        self.rcv_nxt += len(payload)
        delivered = len(payload)
        if self._out_of_order:
            delivered += self._drain_out_of_order()
        return delivered

    def _drain_out_of_order(self) -> int:
        moved = 0
        while True:
            match = None
            for seq in self._out_of_order:
                if seq <= self.rcv_nxt < seq + len(self._out_of_order[seq]):
                    match = seq
                    break
                if seq + len(self._out_of_order[seq]) <= self.rcv_nxt:
                    match = seq  # fully stale, discard below
                    break
            if match is None:
                return moved
            payload = self._out_of_order.pop(match)
            usable = payload[self.rcv_nxt - match:]
            usable = usable[:self.window]
            self.data.extend(usable)
            self.rcv_nxt += len(usable)
            moved += len(usable)

    def read(self, max_bytes: int, peek: bool = False) -> bytes:
        """Deliver up to ``max_bytes`` in-order bytes to the application.

        With ``peek`` (MSG_PEEK) the bytes stay buffered — this is how the
        checkpoint captures receive-buffer contents non-destructively.
        """
        chunk = bytes(self.data[:max_bytes])
        if not peek:
            del self.data[:len(chunk)]
        return chunk

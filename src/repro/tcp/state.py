"""TCP connection state: the transmission control block.

Sequence numbers follow the paper's Fig. 3 naming: ``snd_una`` is the
paper's ``unack_nxt``, ``snd_nxt`` the next sequence to send, ``rcv_nxt``
the receiver's next expected sequence. The reproduction uses unbounded
Python integers instead of 32-bit wrapping arithmetic; no evaluated claim
depends on wraparound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.net.addresses import Ipv4Address
from repro.tcp.options import SocketOptions

#: Linux 2.4's minimum retransmission timeout (HZ/5 = 200 ms).
MIN_RTO = 0.2
MAX_RTO = 120.0
#: Initial RTO before any RTT sample (RFC 2988 says 3 s; Linux used ~3 s,
#: but with LAN RTTs the first sample arrives immediately).
INITIAL_RTO = 1.0


class TcpState(enum.Enum):
    """RFC 793 connection states."""

    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    CLOSING = "CLOSING"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"


SYNCHRONISED_STATES = frozenset({
    TcpState.ESTABLISHED, TcpState.FIN_WAIT_1, TcpState.FIN_WAIT_2,
    TcpState.CLOSE_WAIT, TcpState.CLOSING, TcpState.LAST_ACK,
    TcpState.TIME_WAIT,
})


@dataclass
class TransmissionControlBlock:
    """All per-connection protocol state (the checkpointable core)."""

    local_ip: Ipv4Address
    local_port: int
    remote_ip: Ipv4Address
    remote_port: int
    state: TcpState = TcpState.CLOSED

    # Send sequence space (paper Fig. 3: unack_nxt == snd_una).
    iss: int = 0
    snd_una: int = 0
    snd_nxt: int = 0
    snd_wnd: int = 0          # peer-advertised window

    # Receive sequence space.
    irs: int = 0
    rcv_nxt: int = 0

    # Congestion control.
    cwnd: int = 0
    ssthresh: int = 1 << 30

    # Retransmission timing.
    srtt: Optional[float] = None
    rttvar: float = 0.0
    rto: float = INITIAL_RTO
    backoff_count: int = 0

    # FIN bookkeeping: sequence our FIN occupies once sent.
    fin_seq: Optional[int] = None
    fin_acked: bool = False

    options: SocketOptions = field(default_factory=SocketOptions)

    @property
    def four_tuple(self) -> Tuple:
        return (self.local_ip, self.local_port,
                self.remote_ip, self.remote_port)

    @property
    def flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    def update_rtt(self, sample: float) -> None:
        """RFC 6298 SRTT/RTTVAR smoothing with Linux's floor."""
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = max(MIN_RTO, min(MAX_RTO, self.srtt + 4 * self.rttvar))
        self.backoff_count = 0

    def backoff(self) -> None:
        """Exponential retransmission backoff on timeout."""
        self.rto = min(MAX_RTO, self.rto * 2)
        self.backoff_count += 1

    def ack_progress(self) -> None:
        """New data was acknowledged: leave backoff (RFC 6298 §5.7)."""
        if self.backoff_count == 0:
            return
        self.backoff_count = 0
        if self.srtt is not None:
            self.rto = max(MIN_RTO, min(MAX_RTO, self.srtt + 4 * self.rttvar))
        else:
            self.rto = INITIAL_RTO

    def snapshot_for_checkpoint(self) -> "TransmissionControlBlock":
        """The §4.1 adjustment: a copy reflecting empty socket buffers.

        Two sequence-number fields change relative to the live TCB:

        * ``snd_nxt`` is rewound to ``snd_una`` — the saved state pretends
          the send-buffer contents were never issued to the OS (the restore
          path re-issues them as fresh ``send`` calls, re-consuming the same
          sequence numbers).
        * the *delivery* pointer implied by the receive buffer becomes
          ``rcv_nxt`` — the saved state pretends everything received in-order
          was already delivered to the application (the restore path parks
          those bytes in the alternate buffer outside TCP).

        Congestion state is reset conservatively: after restart the network
        path may be different, so the connection re-probes from slow start.
        RTT estimates are cleared for the same reason.
        """
        snap = replace(self)
        snap.snd_nxt = snap.snd_una
        if snap.fin_seq is not None and not snap.fin_acked:
            # An unacknowledged FIN is re-sent by the restored close path.
            snap.fin_seq = None
        snap.cwnd = 2 * snap.options.mss
        snap.ssthresh = 1 << 30
        snap.srtt = None
        snap.rttvar = 0.0
        # The restored endpoint re-probes from the floor RTO: its re-issued
        # sends are deliberately dropped while communication is disabled,
        # and recovery should begin one minimum timeout later (§5).
        snap.rto = MIN_RTO
        snap.backoff_count = 0
        return snap

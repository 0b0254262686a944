"""The TCP connection engine.

Implements enough of RFC 793/1122/5681/6298 to honour the properties the
paper's coordinated-checkpoint correctness argument relies on:

* cumulative acknowledgements over a packetised send buffer,
* retransmission with exponential backoff (how dropped in-flight packets are
  recovered after a checkpoint's netfilter window),
* fast retransmit on three duplicate ACKs,
* slow start / congestion avoidance (shapes the Fig. 6 recovery curve),
* the Nagle algorithm and TCP_CORK (must be disabled during restore so
  re-issued sends keep their packet boundaries),
* flow control with zero-window probing (a window-update ACK dropped by the
  checkpoint filter must not wedge the connection),
* connection setup/teardown including TIME_WAIT.

The engine is transport-only: it hands finished segments to a ``transmit``
callable and is fed by ``on_segment``; IP/Ethernet, ARP and netfilter live in
the host network stack.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.errors import TcpError
from repro.net.addresses import Ipv4Address
from repro.net.packet import (TCP_ACK, TCP_FIN, TCP_PSH, TCP_RST, TCP_SYN, TcpSegment)
from repro.sim.core import Event, Simulator
from repro.sim.timers import TimerHandle, timers_for
from repro.tcp.buffers import ReceiveBuffer, SendBuffer
from repro.tcp.state import (
    SYNCHRONISED_STATES,
    TcpState,
    TransmissionControlBlock,
)

#: Delayed-ACK timer (Linux 2.4 used up to HZ/25 = 40 ms).
DELAYED_ACK_DELAY = 0.04
#: Duplicate ACKs that trigger fast retransmit.
DUPACK_THRESHOLD = 3
#: Keepalive: idle time before probing, probe interval, probes before
#: giving up. Real stacks default to hours; simulations shrink these.
KEEPALIVE_IDLE = 10.0
KEEPALIVE_INTERVAL = 2.0
KEEPALIVE_PROBES = 4
#: 2*MSL for TIME_WAIT. Real stacks use 60–240 s; tests may shrink it.
DEFAULT_TIME_WAIT = 60.0

TransmitFn = Callable[[TcpSegment, Ipv4Address, Ipv4Address], None]


class TcpConnection:
    """One endpoint of a TCP connection."""

    def __init__(self, sim: Simulator, tcb: TransmissionControlBlock,
                 transmit: TransmitFn, name: str = "",
                 time_wait_s: float = DEFAULT_TIME_WAIT):
        self.sim = sim
        self.tcb = tcb
        self.transmit = transmit
        self.name = name or f"tcp:{tcb.local_ip}:{tcb.local_port}"
        self.time_wait_s = time_wait_s

        options = tcb.options
        self.send_buffer = SendBuffer(options.send_buffer_bytes)
        self.receive_buffer = ReceiveBuffer(
            options.recv_buffer_bytes, rcv_nxt=tcb.rcv_nxt)

        self.established_event: Event = sim.event(f"{self.name}.established")
        self.closed_event: Event = sim.event(f"{self.name}.closed")
        self.on_readable: List[Callable[[], None]] = []
        self.on_writable: List[Callable[[], None]] = []
        self.on_close: List[Callable[[], None]] = []

        self.frozen = False
        self._close_requested = False
        self._fin_received = False
        self._dupacks = 0
        self._segments_since_ack = 0
        #: All connection timers live on the simulator's shared timer
        #: wheel: arming appends to a slot (one firing event per slot,
        #: not per segment) and cancellation is a flag write.
        self._timers = timers_for(sim)
        self._rtx_timer: Optional[TimerHandle] = None
        self._rtx_deadline = -1.0
        #: Loss-recovery window: retransmit up to here on partial ACKs.
        self._recover_until = 0
        self._recovery_started = -1.0
        self._ack_timer: Optional[TimerHandle] = None
        self._probe_timer: Optional[TimerHandle] = None
        self._probe_interval = 0.0
        self._keepalive_timer: Optional[TimerHandle] = None
        self._keepalive_misses = 0
        self._last_activity = sim.now
        self._syn_sent_at = -1.0
        self._on_teardown: List[Callable[["TcpConnection"], None]] = []

        # Metrics the benchmarks read.
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.segments_transmitted = 0
        self.segments_retransmitted = 0
        self.timeouts = 0
        self.fast_retransmits = 0

        #: Cluster telemetry hub (a :class:`repro.sim.trace.Trace`) and
        #: the owning node's name; set by :meth:`TcpStack.register` so
        #: retransmit/drain events land in the span timeline and the
        #: typed metrics registry. ``None`` outside a cluster.
        self.telemetry = None
        self.telemetry_node = ""

        if tcb.cwnd == 0:
            tcb.cwnd = 2 * options.mss

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def open_active(self) -> None:
        """Send a SYN (active open)."""
        tcb = self.tcb
        if tcb.state != TcpState.CLOSED:
            raise TcpError(f"{self.name}: active open in state {tcb.state}")
        tcb.snd_una = tcb.iss
        tcb.snd_nxt = tcb.iss + 1
        tcb.state = TcpState.SYN_SENT
        self._syn_sent_at = self.sim.now
        self._emit(TCP_SYN, seq=tcb.iss)
        self._arm_rtx_timer()

    def open_passive_reply(self) -> None:
        """Reply SYN|ACK from SYN_RCVD (used by the listener)."""
        tcb = self.tcb
        tcb.snd_una = tcb.iss
        tcb.snd_nxt = tcb.iss + 1
        self._syn_sent_at = self.sim.now
        self._emit(TCP_SYN | TCP_ACK, seq=tcb.iss)
        self._arm_rtx_timer()

    def on_teardown(self, callback: Callable[["TcpConnection"], None]) -> None:
        self._on_teardown.append(callback)

    def _teardown(self) -> None:
        self._cancel_timers()
        if not self.closed_event.triggered:
            self.closed_event.succeed()
        for callback in list(self._on_teardown):
            callback(self)
        for callback in list(self.on_close):
            callback()

    # ------------------------------------------------------------------
    # Application-facing API (called by the socket layer)
    # ------------------------------------------------------------------

    @property
    def state(self) -> TcpState:
        return self.tcb.state

    @property
    def send_space(self) -> int:
        return self.send_buffer.free_space

    @property
    def available(self) -> int:
        return self.receive_buffer.available

    @property
    def peer_closed(self) -> bool:
        return self._fin_received

    def send(self, data: bytes) -> int:
        """Queue application data; returns the number of bytes accepted."""
        if self.tcb.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            raise TcpError(f"{self.name}: send in state {self.tcb.state}")
        if self._close_requested:
            raise TcpError(f"{self.name}: send after close")
        accepted = self.send_buffer.accept(data)
        self.bytes_sent += accepted
        if accepted:
            self._output()
        return accepted

    def read(self, max_bytes: int, peek: bool = False) -> bytes:
        """Deliver buffered in-order bytes to the application."""
        window_was_zero = self.receive_buffer.window == 0
        chunk = self.receive_buffer.read(max_bytes, peek=peek)
        if not peek:
            self.bytes_delivered += len(chunk)
            if window_was_zero and chunk and not self.frozen:
                self._send_ack()  # window update
        return chunk

    def close(self) -> None:
        """Graceful close: FIN once the send buffer drains."""
        if self._close_requested:
            return
        self._close_requested = True
        tcb = self.tcb
        if tcb.state in (TcpState.CLOSED, TcpState.LISTEN):
            tcb.state = TcpState.CLOSED
            self._teardown()
            return
        if tcb.state == TcpState.SYN_SENT:
            tcb.state = TcpState.CLOSED
            self._teardown()
            return
        self._output()

    def destroy(self) -> None:
        """Tear down silently — no FIN, no RST.

        Used when a pod migrates away: the origin node's connection state
        simply vanishes; the restored instance elsewhere carries on the
        conversation, so nothing may be signalled to the peer.
        """
        self.tcb.state = TcpState.CLOSED
        self._teardown()

    def abort(self) -> None:
        """Hard close: send RST, drop all state."""
        tcb = self.tcb
        if tcb.state in SYNCHRONISED_STATES:
            self._emit(TCP_RST | TCP_ACK, seq=tcb.snd_nxt)
        tcb.state = TcpState.CLOSED
        if not self.established_event.triggered:
            self.established_event.fail(
                TcpError(f"{self.name}: connection aborted"))
        self._teardown()

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------

    def freeze(self) -> None:
        """Stop transmitting/delivering while state is captured (§4.1).

        The analogue of Zap acquiring the kernel's network spin locks: timer
        fires and incoming segments are ignored until :meth:`unfreeze`.
        """
        self.frozen = True

    def unfreeze(self) -> None:
        self.frozen = False
        if self.tcb.state == TcpState.CLOSED:
            return
        pending = self.receive_buffer.available
        if pending > 0:
            # Bytes that queued up during the freeze drain to the
            # application now — the post-checkpoint recovery pulse that
            # Fig. 6 plots.
            self._note("tcp.drains", instant="tcp.drain", nbytes=pending)
            if self.telemetry is not None:
                self.telemetry.metrics.histogram(
                    "tcp.drain_bytes").observe(pending)
        self._arm_rtx_timer()
        self._output()

    def _note(self, counter: str, instant: str = "", **attrs) -> None:
        """Count into the cluster metrics registry (and optionally drop
        an instant on the span timeline) when telemetry is wired."""
        if self.telemetry is None:
            return
        self.telemetry.metrics.counter(counter).inc(
            label=self.telemetry_node)
        if instant:
            self.telemetry.spans.instant(
                instant, node=self.telemetry_node, conn=self.name,
                **attrs)

    @classmethod
    def restore(cls, sim: Simulator, tcb: TransmissionControlBlock,
                transmit: TransmitFn, name: str = "",
                time_wait_s: float = DEFAULT_TIME_WAIT) -> "TcpConnection":
        """Recreate a connection from a checkpointed TCB.

        The TCB must be a :meth:`TransmissionControlBlock.
        snapshot_for_checkpoint` copy — i.e. it already reflects empty
        buffers. The caller re-issues the saved send-buffer data through
        :meth:`send` (with Nagle/CORK disabled) and parks the saved
        receive-buffer bytes in the socket's alternate buffer.
        """
        conn = cls(sim, tcb, transmit, name=name, time_wait_s=time_wait_s)
        if tcb.state in SYNCHRONISED_STATES and tcb.state != TcpState.TIME_WAIT:
            conn.established_event.succeed(conn)
            if tcb.state in (TcpState.CLOSE_WAIT, TcpState.CLOSING,
                             TcpState.LAST_ACK):
                conn._fin_received = True
        elif tcb.state == TcpState.TIME_WAIT:
            conn.established_event.succeed(conn)
            conn._enter_time_wait()
        return conn

    def send_exact(self, payload: bytes) -> None:
        """Re-issue one checkpointed packet (restore path, §4.1).

        The analogue of the per-packet ``send`` calls Cruz issues with the
        Nagle algorithm and TCP_CORK disabled: exactly one segment is
        queued and transmitted, preserving the recorded packet boundary,
        bypassing congestion/flow gating (the bytes were already within the
        peer's window when originally sent).
        """
        tcb = self.tcb
        if len(payload) > tcb.options.mss:
            raise TcpError(
                f"checkpointed packet of {len(payload)} bytes exceeds "
                f"MSS {tcb.options.mss}")
        if self.send_buffer.pending:
            raise TcpError("send_exact while unsegmented data is pending")
        if self.send_buffer.accept(payload) != len(payload):
            raise TcpError("send buffer too small for checkpointed packet")
        self.send_buffer.segmentize(tcb.snd_nxt, len(payload))
        segment = self.send_buffer.segments[-1]
        segment.transmit_count = 1
        segment.last_sent_at = self.sim.now
        self._emit(TCP_ACK | TCP_PSH, seq=segment.seq,
                   payload=payload)
        tcb.snd_nxt += len(payload)
        self._arm_rtx_timer()

    # ------------------------------------------------------------------
    # Output path
    # ------------------------------------------------------------------

    def _emit(self, flags: int, seq: int, payload: bytes = b"") -> None:
        tcb = self.tcb
        receive_buffer = self.receive_buffer
        # receive_buffer.window and _cancel_ack_timer(), in line: this
        # runs once per transmitted segment.
        window = receive_buffer.capacity - len(receive_buffer.data)
        segment = TcpSegment(
            tcb.local_port, tcb.remote_port, seq,
            tcb.rcv_nxt if flags & TCP_ACK else 0, flags,
            window if window > 0 else 0, payload)
        self.segments_transmitted += 1
        self._segments_since_ack = 0
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        self.transmit(segment, tcb.local_ip, tcb.remote_ip)

    def _nagle_blocks(self, chunk_len: int) -> bool:
        """True if Nagle/CORK says to hold back a sub-MSS segment."""
        options = self.tcb.options
        if chunk_len >= options.mss:
            return False
        if options.cork:
            return True
        if not options.nagle_enabled:
            return False
        return self.tcb.snd_nxt > self.tcb.snd_una

    def _output(self) -> None:
        """Transmit as much pending data as windows and Nagle allow."""
        if self.frozen:
            return
        tcb = self.tcb
        if tcb.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT,
                             TcpState.FIN_WAIT_1, TcpState.CLOSING,
                             TcpState.LAST_ACK):
            return
        send_buffer = self.send_buffer
        pending = send_buffer.pending  # mutated in place, never rebound
        sent_something = False
        mss = tcb.options.mss
        while pending:
            # Usable window: what snd_wnd and cwnd allow beyond the flight.
            usable = min(tcb.snd_wnd, tcb.cwnd) - (tcb.snd_nxt - tcb.snd_una)
            if usable <= 0:
                self._arm_probe_timer()
                break
            ready = min(len(pending), mss)
            if self._nagle_blocks(ready):
                break
            payload = send_buffer.segmentize(tcb.snd_nxt,
                                             min(ready, usable))
            if payload is None:
                break
            segment = send_buffer.segments[-1]
            segment.transmit_count = 1
            segment.last_sent_at = self.sim.now
            self._emit(TCP_ACK | TCP_PSH, seq=segment.seq,
                       payload=payload)
            tcb.snd_nxt += len(payload)
            sent_something = True
        if (self._close_requested and not pending
                and tcb.fin_seq is None
                and tcb.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT)):
            self._send_fin()
            sent_something = True
        if sent_something:
            self._arm_rtx_timer()
        if self.on_writable:
            for callback in list(self.on_writable):
                # send_space > 0, off the running counter.
                if send_buffer.capacity - send_buffer.unacked_bytes \
                        - len(pending) > 0:
                    callback()

    def _send_fin(self) -> None:
        tcb = self.tcb
        tcb.fin_seq = tcb.snd_nxt
        self._emit(TCP_FIN | TCP_ACK, seq=tcb.snd_nxt)
        tcb.snd_nxt += 1
        if tcb.state == TcpState.ESTABLISHED:
            tcb.state = TcpState.FIN_WAIT_1
        elif tcb.state == TcpState.CLOSE_WAIT:
            tcb.state = TcpState.LAST_ACK
        self._arm_rtx_timer()

    def _send_ack(self) -> None:
        self._emit(TCP_ACK, seq=self.tcb.snd_nxt)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _cancel_timers(self) -> None:
        self._cancel_rtx_timer()
        self._cancel_ack_timer()
        self._cancel_probe_timer()
        if self._keepalive_timer is not None:
            self._keepalive_timer.cancel()
            self._keepalive_timer = None

    # -- keepalive ---------------------------------------------------------

    def start_keepalive(self) -> None:
        """Arm SO_KEEPALIVE probing (idle detection of dead peers)."""
        if self._keepalive_timer is not None:
            return
        self._keepalive_timer = self._timers.after(
            KEEPALIVE_IDLE, self._on_keepalive_timeout)

    def _on_keepalive_timeout(self) -> None:
        self._keepalive_timer = None
        tcb = self.tcb
        if tcb.state == TcpState.CLOSED or not tcb.options.keepalive:
            return
        if self.frozen:
            self._keepalive_timer = self._timers.after(
                KEEPALIVE_INTERVAL, self._on_keepalive_timeout)
            return
        idle = self.sim.now - self._last_activity
        if idle < KEEPALIVE_IDLE - 1e-9:  # epsilon: avoid FP respin
            self._keepalive_timer = self._timers.after(
                KEEPALIVE_IDLE - idle, self._on_keepalive_timeout)
            return
        if self._keepalive_misses >= KEEPALIVE_PROBES:
            # Peer is gone: reset locally (ETIMEDOUT in real stacks).
            self._fin_received = True
            for callback in list(self.on_readable):
                callback()
            tcb.state = TcpState.CLOSED
            self._teardown()
            return
        self._keepalive_misses += 1
        # The classic probe: a zero-length segment at snd_nxt - 1. It is
        # outside the peer's window, which obliges a live peer to ACK.
        self._emit(TCP_ACK, seq=tcb.snd_nxt - 1)
        self._keepalive_timer = self._timers.after(
            KEEPALIVE_INTERVAL, self._on_keepalive_timeout)

    def _arm_rtx_timer(self) -> None:
        if self.tcb.flight_size == 0 and self.tcb.state not in (
                TcpState.SYN_SENT, TcpState.SYN_RCVD):
            return
        deadline = self.sim.now + self.tcb.rto
        if self._rtx_timer is not None and self._rtx_timer.active \
                and self._rtx_deadline <= deadline:
            return
        self._cancel_rtx_timer()
        self._rtx_deadline = deadline
        self._rtx_timer = self._timers.after(
            self.tcb.rto, self._on_rtx_timeout)

    def _restart_rtx_timer(self) -> None:
        """Reset the RTO deadline to ``now + rto`` after an ACK.

        The kernel's ``mod_timer`` discipline: keep the armed slot,
        move only the logical deadline, and let a stale firing re-arm
        itself for the remainder — one float store per ACK instead of a
        cancel plus a fresh timer.
        """
        deadline = self.sim.now + self.tcb.rto
        timer = self._rtx_timer
        if timer is not None and timer.active:
            if deadline >= timer.deadline:
                self._rtx_deadline = deadline
                return
            timer.cancel()
        self._rtx_deadline = deadline
        self._rtx_timer = self._timers.after(
            self.tcb.rto, self._on_rtx_timeout)

    def _cancel_rtx_timer(self) -> None:
        if self._rtx_timer is not None:
            self._rtx_timer.cancel()
            self._rtx_timer = None

    def _on_rtx_timeout(self) -> None:
        self._rtx_timer = None
        tcb = self.tcb
        remaining = self._rtx_deadline - self.sim.now
        if remaining > 1e-12:
            # Stale firing: ACKs pushed the logical deadline back while
            # the original slot stayed armed (lazy restart). Re-arm for
            # the remainder; nothing has timed out.
            self._rtx_timer = self._timers.after(
                remaining, self._on_rtx_timeout)
            return
        if self.frozen:
            # The spin-lock window: defer, do not lose the timer.
            self._rtx_timer = self._timers.after(
                tcb.rto, self._on_rtx_timeout)
            return
        if tcb.state == TcpState.CLOSED:
            return
        if tcb.state in (TcpState.SYN_SENT, TcpState.SYN_RCVD):
            self.timeouts += 1
            tcb.backoff()
            if tcb.backoff_count > 6:
                if not self.established_event.triggered:
                    self.established_event.fail(
                        TcpError(f"{self.name}: connect timed out"))
                tcb.state = TcpState.CLOSED
                self._teardown()
                return
            flags = TCP_SYN if tcb.state == TcpState.SYN_SENT \
                else TCP_SYN | TCP_ACK
            self._emit(flags, seq=tcb.iss)
            self._arm_rtx_timer()
            return
        oldest = self.send_buffer.oldest_unacked()
        if oldest is None and tcb.fin_seq is not None and not tcb.fin_acked:
            self.timeouts += 1
            tcb.backoff()
            self._emit(TCP_FIN | TCP_ACK, seq=tcb.fin_seq)
            self._arm_rtx_timer()
            return
        if oldest is None:
            return
        # RFC 5681 timeout response: collapse to slow start and back off.
        self.timeouts += 1
        self._note("tcp.timeouts")
        tcb.ssthresh = max(tcb.flight_size // 2, 2 * tcb.options.mss)
        tcb.cwnd = tcb.options.mss
        tcb.backoff()
        # Enter loss recovery: everything sent so far may be gone; it is
        # retransmitted as partial ACKs open the (slow-started) window.
        self._recover_until = tcb.snd_nxt
        self._recovery_started = self.sim.now
        self._retransmit(oldest)
        self._arm_rtx_timer()

    def _retransmit(self, segment) -> None:
        segment.transmit_count += 1
        segment.last_sent_at = self.sim.now
        self.segments_retransmitted += 1
        self._note("tcp.retransmits", instant="tcp.retransmit",
                   seq=segment.seq, nbytes=len(segment.payload))
        self._emit(TCP_ACK | TCP_PSH, seq=segment.seq,
                   payload=segment.payload)

    def _arm_ack_timer(self) -> None:
        if self._ack_timer is not None:
            return
        self._ack_timer = self._timers.after(
            DELAYED_ACK_DELAY, self._on_ack_timeout)

    def _cancel_ack_timer(self) -> None:
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None

    def _on_ack_timeout(self) -> None:
        self._ack_timer = None
        if self.frozen or self.tcb.state == TcpState.CLOSED:
            return
        if self._segments_since_ack > 0:
            self._send_ack()

    def _arm_probe_timer(self) -> None:
        """Zero-window probe: keeps flow alive if a window update is lost."""
        if self._probe_timer is not None:
            return
        if self._probe_interval <= 0:
            self._probe_interval = max(self.tcb.rto, 0.2)
        self._probe_timer = self._timers.after(
            self._probe_interval, self._on_probe_timeout)

    def _cancel_probe_timer(self) -> None:
        if self._probe_timer is not None:
            self._probe_timer.cancel()
            self._probe_timer = None
        self._probe_interval = 0.0

    def _on_probe_timeout(self) -> None:
        self._probe_timer = None
        if self.frozen or self.tcb.state == TcpState.CLOSED:
            return
        tcb = self.tcb
        if tcb.snd_wnd > 0 or not self.send_buffer.pending:
            self._probe_interval = 0.0
            self._output()
            return
        oldest = self.send_buffer.oldest_unacked()
        if oldest is not None:
            # An unacked probe/segment already sits in the window: re-send
            # it rather than consuming new sequence space.
            self._retransmit(oldest)
        else:
            # Send a one-byte probe beyond the advertised window.
            payload = self.send_buffer.segmentize(tcb.snd_nxt, 1)
            if payload is not None:
                segment = self.send_buffer.segments[-1]
                segment.transmit_count = 1
                segment.last_sent_at = self.sim.now
                self._emit(TCP_ACK | TCP_PSH, seq=segment.seq,
                           payload=payload)
                tcb.snd_nxt += 1
                self._arm_rtx_timer()
        self._probe_interval = min(self._probe_interval * 2, 60.0)
        self._arm_probe_timer()

    def _enter_time_wait(self) -> None:
        self.tcb.state = TcpState.TIME_WAIT
        self._cancel_rtx_timer()
        self._timers.after(self.time_wait_s, self._time_wait_expired)

    def _time_wait_expired(self) -> None:
        if self.tcb.state == TcpState.TIME_WAIT:
            self.tcb.state = TcpState.CLOSED
            self._teardown()

    # ------------------------------------------------------------------
    # Input path
    # ------------------------------------------------------------------

    def on_segment(self, segment: TcpSegment) -> None:
        """Process one incoming segment (already demuxed by the stack).

        Under ``CRUZ_SANITIZE`` the §5.1 sequence invariants
        (``snd_una <= snd_nxt``, monotonic ``rcv_nxt``, receive buffer
        in sync with the TCB) are re-checked after every segment,
        whatever path it took through the state machine — the
        ``finally`` runs on every ``return`` below and on an exception.
        """
        try:
            if self.frozen:
                return  # dropped exactly like the netfilter rule would
            self._last_activity = self.sim.now
            self._keepalive_misses = 0
            tcb = self.tcb
            state = tcb.state
            if state == TcpState.CLOSED:
                return
            flags = segment.flags
            if flags & TCP_RST:
                self._on_rst(segment)
                return
            if state == TcpState.SYN_SENT:
                self._on_segment_syn_sent(segment)
                return
            if flags & TCP_SYN:
                if state == TcpState.SYN_RCVD:
                    # Duplicate SYN: re-send SYN|ACK.
                    self._emit(TCP_SYN | TCP_ACK, seq=tcb.iss)
                    return
                if state in SYNCHRONISED_STATES:
                    # SYN in a synchronised state: stale duplicate; ack
                    # and ignore.
                    self._send_ack()
                    return
            if flags & TCP_ACK:
                self._process_ack(segment)
            if tcb.state == TcpState.CLOSED:
                return
            if segment.payload:
                self._process_payload(segment)
            if flags & TCP_FIN:
                self._process_fin(segment)
            elif not segment.payload and segment.seq < tcb.rcv_nxt and \
                    tcb.state in SYNCHRONISED_STATES:
                # Zero-length segment below the window (a keepalive
                # probe): RFC 793 obliges an ACK for unacceptable
                # segments.
                self._send_ack()
        finally:
            telemetry = self.telemetry
            if telemetry is not None and telemetry.sanitizer is not None \
                    and not self.frozen:
                telemetry.sanitizer.check_tcp_segment(
                    self, time=self.sim.now)

    def _on_rst(self, segment: TcpSegment) -> None:
        tcb = self.tcb
        # Accept RST only if it is in-window (rough check).
        if tcb.state in SYNCHRONISED_STATES and segment.seq != tcb.rcv_nxt:
            return
        tcb.state = TcpState.CLOSED
        if not self.established_event.triggered:
            self.established_event.fail(
                TcpError(f"{self.name}: connection reset"))
        self._fin_received = True  # readers must wake and see EOF/reset
        for callback in list(self.on_readable):
            callback()
        self._teardown()

    def _on_segment_syn_sent(self, segment: TcpSegment) -> None:
        tcb = self.tcb
        if not segment.flags & TCP_SYN:
            return
        tcb.irs = segment.seq
        tcb.rcv_nxt = segment.seq + 1
        self.receive_buffer.rcv_nxt = tcb.rcv_nxt
        tcb.snd_wnd = segment.window
        if segment.flags & TCP_ACK and segment.ack == tcb.snd_nxt:
            tcb.snd_una = segment.ack
            tcb.state = TcpState.ESTABLISHED
            if self._syn_sent_at >= 0:
                tcb.update_rtt(self.sim.now - self._syn_sent_at)
            self._cancel_rtx_timer()
            self._send_ack()
            if not self.established_event.triggered:
                self.established_event.succeed(self)
            self._output()
        else:
            # Simultaneous open.
            tcb.state = TcpState.SYN_RCVD
            self._emit(TCP_SYN | TCP_ACK, seq=tcb.iss)

    def _process_ack(self, segment: TcpSegment) -> None:
        tcb = self.tcb
        ack = segment.ack
        if tcb.state == TcpState.SYN_RCVD:
            if ack == tcb.snd_nxt:
                tcb.state = TcpState.ESTABLISHED
                tcb.snd_una = ack
                tcb.snd_wnd = segment.window
                if self._syn_sent_at >= 0:
                    tcb.update_rtt(self.sim.now - self._syn_sent_at)
                self._cancel_rtx_timer()
                if not self.established_event.triggered:
                    self.established_event.succeed(self)
                self._output()
            return
        if ack > tcb.snd_nxt:
            # Acks data we never sent; ack back and ignore.
            self._send_ack()
            return
        old_una = tcb.snd_una
        if ack > tcb.snd_una:
            self._dupacks = 0
            # RTT sample per Karn's algorithm: only segments sent once.
            for buffered in self.send_buffer.segments:
                if buffered.seq + len(buffered.payload) == ack \
                        and buffered.transmit_count == 1:
                    tcb.update_rtt(self.sim.now - buffered.last_sent_at)
                    break
            newly_acked = ack - old_una
            self.send_buffer.acknowledge(ack)
            tcb.snd_una = ack
            tcb.ack_progress()
            if tcb.fin_seq is not None and ack > tcb.fin_seq:
                tcb.fin_acked = True
            self._grow_cwnd(newly_acked)
            if tcb.snd_nxt == ack:
                self._cancel_rtx_timer()
            else:
                self._restart_rtx_timer()
            if tcb.snd_una < self._recover_until:
                # NewReno-style partial ACK: keep retransmitting through
                # the loss window as cwnd allows.
                self._retransmit_recovery_window()
            self._advance_close_states()
        elif ack == tcb.snd_una and tcb.snd_nxt > ack \
                and not segment.payload and not segment.flags & TCP_FIN:
            self._dupacks += 1
            if self._dupacks == DUPACK_THRESHOLD:
                self._fast_retransmit()
        tcb.snd_wnd = segment.window
        if tcb.snd_wnd > 0:
            self._cancel_probe_timer()
        if tcb.state != TcpState.CLOSED:
            self._output()

    def _grow_cwnd(self, newly_acked: int) -> None:
        tcb = self.tcb
        mss = tcb.options.mss
        if tcb.cwnd < tcb.ssthresh:
            tcb.cwnd += min(newly_acked, mss)  # slow start
        else:
            tcb.cwnd += max(1, mss * mss // tcb.cwnd)  # congestion avoidance

    def _retransmit_recovery_window(self) -> None:
        """Resend not-yet-resent segments below the recovery point."""
        tcb = self.tcb
        budget = min(tcb.cwnd, max(tcb.snd_wnd, tcb.options.mss))
        used = 0
        resent_any = False
        for segment in self.send_buffer.segments:
            if segment.seq >= self._recover_until:
                break
            size = len(segment.payload)
            if segment.last_sent_at >= self._recovery_started:
                used += size  # already retransmitted this recovery
                continue
            if used + size > budget:
                break
            self._retransmit(segment)
            resent_any = True
            used += size
        if resent_any:
            self._arm_rtx_timer()

    def _fast_retransmit(self) -> None:
        tcb = self.tcb
        oldest = self.send_buffer.oldest_unacked()
        if oldest is None:
            return
        self.fast_retransmits += 1
        self._note("tcp.fast_retransmits")
        tcb.ssthresh = max(tcb.flight_size // 2, 2 * tcb.options.mss)
        tcb.cwnd = tcb.ssthresh
        self._retransmit(oldest)
        self._arm_rtx_timer()

    def _advance_close_states(self) -> None:
        tcb = self.tcb
        if tcb.state == TcpState.FIN_WAIT_1 and tcb.fin_acked:
            tcb.state = TcpState.FIN_WAIT_2
        elif tcb.state == TcpState.CLOSING and tcb.fin_acked:
            self._enter_time_wait()
        elif tcb.state == TcpState.LAST_ACK and tcb.fin_acked:
            tcb.state = TcpState.CLOSED
            self._teardown()

    def _process_payload(self, segment: TcpSegment) -> None:
        tcb = self.tcb
        receive_buffer = self.receive_buffer
        before = len(receive_buffer.data)
        receive_buffer.store(segment.seq, segment.payload)
        tcb.rcv_nxt = receive_buffer.rcv_nxt
        delivered = len(receive_buffer.data) - before
        if segment.seq != tcb.rcv_nxt - len(segment.payload) and delivered == 0:
            # Out-of-order or duplicate: immediate dup-ACK for fast rtx.
            self._send_ack()
        else:
            self._segments_since_ack += 1
            if self._segments_since_ack >= 2:
                self._send_ack()
            else:
                self._arm_ack_timer()
        if delivered > 0:
            for callback in list(self.on_readable):
                callback()

    def _process_fin(self, segment: TcpSegment) -> None:
        tcb = self.tcb
        fin_seq = segment.seq + len(segment.payload)
        if fin_seq != tcb.rcv_nxt:
            return  # FIN not yet in order
        tcb.rcv_nxt += 1
        self.receive_buffer.rcv_nxt = tcb.rcv_nxt
        self._fin_received = True
        self._send_ack()
        if tcb.state == TcpState.ESTABLISHED:
            tcb.state = TcpState.CLOSE_WAIT
        elif tcb.state == TcpState.FIN_WAIT_1:
            tcb.state = TcpState.CLOSING if not tcb.fin_acked \
                else TcpState.TIME_WAIT
            if tcb.state == TcpState.TIME_WAIT:
                self._enter_time_wait()
        elif tcb.state == TcpState.FIN_WAIT_2:
            self._enter_time_wait()
        for callback in list(self.on_readable):
            callback()

    def __repr__(self) -> str:
        tcb = self.tcb
        return (f"<TcpConnection {self.name} {tcb.state.value} "
                f"una={tcb.snd_una} nxt={tcb.snd_nxt} rcv={tcb.rcv_nxt}>")

"""Coordination protocol messages (Fig. 2 / Fig. 4) and the reliable
control-plane transport underneath them.

Control messages travel over the simulated network (UDP) between the
Checkpoint Coordinator and the per-node Checkpoint Agents, so message
counts and wire latencies are measured, not asserted. The message set is
the minimum needed for two-phase-commit-style atomicity:

``CHECKPOINT → (COMM_DISABLED) → DONE → CONTINUE → CONTINUE_DONE``

plus ``RESTART`` (same shape) and ``ABORT`` for failure handling.

Datagrams can be lost, duplicated, delayed or reordered (see
:mod:`repro.cruz.faults`), so every protocol message rides a
:class:`ReliableEndpoint`: the receiver acknowledges each message with an
``ACK`` datagram, the sender retransmits with exponential backoff until
the ACK arrives or its retry budget is exhausted, and duplicates are
suppressed on ``(sender, epoch, kind, pod_name)`` so both sides stay
idempotent under retries. ACKs and retransmissions are transport-level:
they are counted separately (``RoundStats.retransmissions`` /
``.duplicates``) and never emit ``coord_msg`` trace events, so the
Fig. 5 per-round message counts stay comparable to the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

AGENT_PORT = 7601
COORDINATOR_PORT = 7602
SUPERVISOR_PORT = 7603

CHECKPOINT = "CHECKPOINT"
RESTART = "RESTART"
COMM_DISABLED = "COMM_DISABLED"   # Fig. 4 optimisation only
DONE = "DONE"
CONTINUE = "CONTINUE"
CONTINUE_DONE = "CONTINUE_DONE"
ABORT = "ABORT"
#: Transport-level acknowledgement; never part of the Fig. 2 flow.
ACK = "ACK"
#: Liveness beacon from an agent to the node supervisor. Deliberately
#: fire-and-forget: a lost beat IS the failure signal, so heartbeats are
#: neither ACKed, retransmitted, nor duplicate-suppressed (their ``epoch``
#: field carries a per-sender sequence number, reused every round).
HEARTBEAT = "HEARTBEAT"

#: Kinds delivered without the ACK/retransmit/dedup machinery.
UNACKED_KINDS = frozenset({HEARTBEAT})


@dataclass(frozen=True)
class ControlMessage:
    """One coordinator/agent protocol message."""

    kind: str
    epoch: int
    pod_name: str = ""
    node_name: str = ""
    #: RESTART: which stored image version to restore (0 = latest).
    version: int = 0
    #: Fig. 4: agents resume as soon as their own save finishes.
    optimized: bool = False
    #: Incremental checkpoint (dirty pages only).
    incremental: bool = False
    #: Content-address every chunk and skip those already stored, without
    #: relying on dirty-page tracking (hash-everything dedup mode).
    dedup: bool = False
    #: §5.2 TCP-backoff optimisation: re-enable communication as soon as
    #: the communication state is captured (requires ``optimized`` — the
    #: filter may only drop early once every node has disabled comms).
    early_network: bool = False
    #: §5.2 copy-on-write-style optimisation: the pod resumes computing
    #: (still filtered) while its state is written to disk.
    concurrent: bool = False
    #: Agents report local operation durations so the coordinator can
    #: compute coordination overhead exactly as §6 does.
    local_checkpoint_s: float = 0.0
    local_continue_s: float = 0.0
    #: DONE only: bytes of new chunks this save actually moved to the
    #: store, and total logical bytes the image references there.
    new_chunk_bytes: int = 0
    total_chunk_bytes: int = 0
    #: Failure-injection/abort reason.
    reason: str = ""
    #: ACK only: the ``kind`` of the message being acknowledged.
    ack_kind: str = ""
    #: Wire size estimate.
    payload_bytes: int = field(default=64)

    @property
    def size(self) -> int:
        return self.payload_bytes

    @property
    def dedup_key(self) -> Tuple[int, str, str]:
        """Identity under retransmission (ISSUE: ``(epoch, kind, pod)``)."""
        return (self.epoch, self.kind, self.pod_name)


@dataclass
class RoundStats:
    """Coordinator-side measurements for one checkpoint/restart round."""

    epoch: int
    kind: str
    n_nodes: int
    started_at: float
    #: first <checkpoint> sent -> last <done> received (Fig. 5a metric).
    latency_s: float = 0.0
    #: full protocol completion including continue-done.
    total_s: float = 0.0
    #: max over nodes of the local checkpoint/restart operation.
    max_local_op_s: float = 0.0
    #: max over nodes of the local continue operation.
    max_local_continue_s: float = 0.0
    #: First transmissions / first receptions only — the paper-comparable
    #: Fig. 5 counts. Transport-level traffic is tracked separately below.
    messages_sent: int = 0
    messages_received: int = 0
    #: Control datagrams retransmitted by the coordinator endpoint for
    #: this round (lost message or lost ACK), and duplicate protocol
    #: messages it suppressed; neither is in the two counts above.
    retransmissions: int = 0
    duplicates: int = 0
    committed: bool = False
    aborted: bool = False
    #: Sum over nodes of bytes of new chunks written to the store this
    #: round, and of total chunk bytes the round's images reference.
    new_chunk_bytes: int = 0
    total_chunk_bytes: int = 0
    #: Per-phase breakdown (span name -> seconds) derived from the span
    #: recorder: ``coord.*`` phases summed, agent/zap phases max-over-nodes
    #: (see :func:`repro.sim.spans.round_phases`). Empty when tracing is
    #: disabled.
    phase_s: Dict[str, float] = field(default_factory=dict)

    @property
    def coordination_overhead_s(self) -> float:
        """§6: latency minus the (parallel) local operations."""
        return self.latency_s - self.max_local_op_s

    @property
    def dedup_ratio(self) -> float:
        """Fraction of referenced chunk bytes NOT rewritten this round."""
        if self.total_chunk_bytes <= 0:
            return 0.0
        return 1.0 - self.new_chunk_bytes / self.total_chunk_bytes


@dataclass(frozen=True)
class RetryPolicy:
    """Retransmission schedule for one reliable send.

    The first transmission is free; each retry waits ``initial_backoff_s``
    doubled per attempt (capped at ``max_backoff_s``). After
    ``max_retries`` retransmissions and one final backoff the sender gives
    up — reliability then falls back to the round/continue timeouts.
    """

    initial_backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 1.0
    max_retries: int = 6


class ReliableEndpoint:
    """ACK + retransmit + duplicate suppression over the simulated UDP.

    One endpoint per protocol participant (the coordinator, each agent).
    ``handler(message, src_ip)`` sees each protocol message exactly once;
    ACKs are generated and consumed internally. Retransmissions carry the
    byte-identical message, so receivers key duplicate suppression on
    ``(src_ip,) + message.dedup_key``.
    """

    def __init__(self, node, port: int,
                 handler: Callable[["ControlMessage", object], None],
                 policy: Optional[RetryPolicy] = None,
                 faults=None,
                 is_alive: Optional[Callable[[], bool]] = None,
                 name: str = "", mc_bugs=frozenset()):
        self.node = node
        self.port = port
        self.handler = handler
        self.policy = policy if policy is not None else RetryPolicy()
        #: Optional :class:`repro.cruz.faults.ControlFaultInjector`.
        self.faults = faults
        #: Model-checker mutation flags (``repro.analysis.mc``):
        #: "stale-replay" turns off receiver-side duplicate suppression,
        #: re-delivering every copy of a message to the handler.
        self.mc_bugs = frozenset(mc_bugs)
        self._is_alive = is_alive if is_alive is not None \
            else (lambda: True)
        self.name = name or f"endpoint@{node.name}:{port}"
        #: (dst_ip, epoch, kind, pod_name) -> ACK event.
        self._pending: Dict[Tuple, object] = {}
        #: (src_ip, epoch, kind, pod_name) already delivered to handler.
        self._seen: Dict[Tuple, bool] = {}
        self.retransmissions = 0
        self.duplicates = 0
        self.acks_sent = 0
        self.acks_received = 0
        self.gave_up = 0
        self.retransmissions_by_epoch: Dict[int, int] = {}
        self.duplicates_by_epoch: Dict[int, int] = {}
        self._closed = False
        node.stack.udp.bind(port, self._on_datagram)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop receiving (simulates a crashed/replaced participant)."""
        if not self._closed:
            self._closed = True
            self.node.stack.udp.unbind(self.port)

    def forget_epochs_below(self, epoch: int) -> None:
        """Reclaim dedup/counter state for long-completed epochs.

        Stale retransmissions older than the horizon are re-delivered to
        the handler, which must therefore apply its own epoch guard (the
        agents ignore epochs at or below their last completed round).
        """
        self._seen = {key: True for key in self._seen if key[1] >= epoch}
        for counters in (self.retransmissions_by_epoch,
                         self.duplicates_by_epoch):
            for old in [e for e in counters if e < epoch]:
                del counters[old]

    def retransmissions_for(self, epoch: int) -> int:
        return self.retransmissions_by_epoch.get(epoch, 0)

    def duplicates_for(self, epoch: int) -> int:
        return self.duplicates_by_epoch.get(epoch, 0)

    # -- sending -----------------------------------------------------------

    def _transmit(self, dst_ip, dst_port: int,
                  message: "ControlMessage") -> None:
        """One physical datagram, routed through the fault injector."""
        if not self._is_alive():
            # A crashed participant transmits nothing: retransmit loops
            # already in flight fall silent instead of leaking frames
            # from a powered-off node.
            return

        def put() -> None:
            self.node.stack.udp.send(
                self.node.stack.eth0.ip, self.port, dst_ip, dst_port,
                message, payload_size=message.size)

        if self.faults is not None and self.faults.apply(message, put):
            return
        put()

    def send_unreliable(self, dst_ip, dst_port: int,
                        message: "ControlMessage") -> None:
        """One datagram, no ACK, no retransmission (heartbeats).

        The message still passes through the fault injector, so chaos
        plans can drop or delay liveness beacons like any other control
        traffic.
        """
        self._transmit(dst_ip, dst_port, message)

    def send(self, dst_ip, dst_port: int, message: "ControlMessage",
             on_give_up: Optional[Callable[["ControlMessage"], None]]
             = None) -> None:
        """Send ``message`` reliably (retransmit until ACKed).

        ``on_give_up`` fires if the retry budget is exhausted without an
        ACK — the coordinator uses it to fail the round immediately
        instead of waiting out the full round timeout.
        """
        key = (dst_ip,) + message.dedup_key
        acked = self._pending.get(key)
        if acked is None or acked.triggered:
            acked = self.node.sim.event(
                f"ack({message.kind},{message.epoch})")
            self._pending[key] = acked
        self._transmit(dst_ip, dst_port, message)
        self.node.sim.process(
            self._retransmit_loop(key, dst_ip, dst_port, message, acked,
                                  on_give_up),
            name=f"retx({self.name},{message.kind},{message.epoch})")

    def _retransmit_loop(self, key, dst_ip, dst_port, message, acked,
                         on_give_up):
        sim = self.node.sim
        backoff = self.policy.initial_backoff_s
        for attempt in range(self.policy.max_retries + 1):
            timer = sim.timeout(backoff)
            outcome = yield sim.any_of([acked, timer])
            if acked in outcome:
                self._pending.pop(key, None)
                return
            if attempt == self.policy.max_retries:
                break
            self.retransmissions += 1
            self.retransmissions_by_epoch[message.epoch] = \
                self.retransmissions_by_epoch.get(message.epoch, 0) + 1
            self.node.trace.spans.instant(
                "coord.retry", node=self.node.name, kind=message.kind,
                epoch=message.epoch, attempt=attempt + 1)
            self._transmit(dst_ip, dst_port, message)
            backoff = min(backoff * self.policy.backoff_factor,
                          self.policy.max_backoff_s)
        self._pending.pop(key, None)
        self.gave_up += 1
        self.node.trace.spans.instant(
            "coord.give_up", node=self.node.name, kind=message.kind,
            epoch=message.epoch)
        if on_give_up is not None:
            on_give_up(message)

    # -- receiving ---------------------------------------------------------

    def _send_ack(self, src_ip, src_port: int,
                  message: "ControlMessage") -> None:
        self.acks_sent += 1
        self._transmit(src_ip, src_port, ControlMessage(
            kind=ACK, epoch=message.epoch, pod_name=message.pod_name,
            node_name=self.node.name, ack_kind=message.kind,
            payload_bytes=16))

    def _on_datagram(self, payload, src_ip, src_port, _dst_ip) -> None:
        if not self._is_alive() or not isinstance(payload, ControlMessage):
            return
        if payload.kind in UNACKED_KINDS:
            # Fire-and-forget kinds bypass ACK generation and duplicate
            # suppression: every received beat must reach the handler
            # (the sequence number repeats across heartbeat intervals).
            self.handler(payload, src_ip)
            return
        if payload.kind == ACK:
            self.acks_received += 1
            key = (src_ip, payload.epoch, payload.ack_kind,
                   payload.pod_name)
            acked = self._pending.pop(key, None)
            if acked is not None and not acked.triggered:
                acked.succeed()
            return
        # Acknowledge before dispatching — a duplicate means our previous
        # ACK (or the original delivery window) was lost, so re-ACK it.
        self._send_ack(src_ip, src_port, payload)
        key = (src_ip,) + payload.dedup_key
        if key in self._seen and "stale-replay" not in self.mc_bugs:
            self.duplicates += 1
            self.duplicates_by_epoch[payload.epoch] = \
                self.duplicates_by_epoch.get(payload.epoch, 0) + 1
            return
        self._seen[key] = True
        self.handler(payload, src_ip)

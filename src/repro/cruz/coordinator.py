"""The Checkpoint Coordinator (Fig. 2 and Fig. 4).

Runs on a node distinct from the application nodes (§6). The protocol is
the minimum for atomic commit — O(N) messages total, versus the O(N²)
channel-flush protocols of MPVM/CoCheck/LAM-MPI (§5.2). Every round runs
the same four steps; only the two reply kinds differ by protocol
(:func:`~repro.cruz.protocol.round_replies`):

* Step 1: send the request (``<checkpoint>``/``<restart>``) to every Agent.
* Step 2: wait for the first reply from all — ``<done>`` (Fig. 2,
  restart) or ``<comm-disabled>`` (Fig. 4).
* Step 3: send ``<continue>``.
* Step 4: wait for the last reply from all — ``<continue-done>`` (Fig. 2,
  restart) or ``<done>`` (Fig. 4).

Fig. 5a's latency metric ends at the last ``<done>``, whichever step
collects it.

A round that times out (crashed agent, lost pod) is aborted on every node,
so a half-taken checkpoint is never committed — two-phase-commit semantics.

Reliability and crash recovery of the control plane itself:

* every message rides :class:`~repro.cruz.protocol.ReliableEndpoint`
  (per-message ACK + exponential-backoff retransmission + duplicate
  suppression), so lossy links delay rounds instead of aborting them;
* a sender that exhausts its retry budget fails the round immediately
  (``_fail_epoch``) rather than waiting out the full round timeout;
* round start/commit/abort are written ahead to the shared-filesystem
  :class:`~repro.cruz.storage.RoundLog`; a coordinator constructed over a
  store whose WAL holds in-flight rounds aborts them during
  :meth:`recover` and resumes epoch numbering past every logged epoch,
  and a commit is only declared after winning the WAL ``decide`` race
  against any agent's unilateral abort.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Generator, List, Optional, Set, Tuple

from repro.cruz import protocol
from repro.cruz.protocol import (
    AGENT_PORT,
    COORDINATOR_PORT,
    ControlMessage,
    ReliableEndpoint,
    RetryPolicy,
    RoundStats,
)
from repro.cruz.storage import ImageStore
from repro.errors import CoordinationError
from repro.net.addresses import Ipv4Address
from repro.sim.spans import round_phases
from repro.simos.kernel import Node
from repro.zap.pod import Pod

#: (agent node eth0 IP, pod name) pairs — one per application node.
Members = List[Tuple[Ipv4Address, str]]


class DistributedApp:
    """A named set of pods, one per application node."""

    def __init__(self, name: str, pods: List[Pod]):
        self.name = name
        self.pods = list(pods)

    @property
    def members(self) -> Members:
        return [(pod.node.stack.eth0.ip, pod.name) for pod in self.pods]

    def __repr__(self) -> str:
        return f"<DistributedApp {self.name} pods={len(self.pods)}>"


class CheckpointCoordinator:
    """Drives coordinated checkpoint and restart rounds."""

    def __init__(self, node: Node, store: ImageStore,
                 timeout_s: float = 60.0,
                 retry: Optional[RetryPolicy] = None,
                 faults=None):
        self.node = node
        self.timeout_s = timeout_s
        self.store = store
        self.wal = store.rounds
        self._epoch = self.wal.max_epoch()
        self.rounds: List[RoundStats] = []
        #: epoch -> kind -> (expected node-name set, received messages,
        #: completion event)
        self._collectors: Dict[int, Dict[str, Dict]] = {}
        self._abort_seen: Dict[int, str] = {}
        #: agent IP -> node name, best effort, for send-failure reporting.
        self._node_names: Dict[Ipv4Address, str] = {}
        self.endpoint = ReliableEndpoint(
            node, COORDINATOR_PORT, self._on_message, policy=retry,
            faults=faults, name=f"coordinator@{node.name}")

    # -- transport ----------------------------------------------------------

    def _send(self, agent_ip: Ipv4Address, message: ControlMessage,
              fail_round: bool = False) -> None:
        """Reliable send; any transport failure becomes CoordinationError.

        A node replacement can leave a member pointing at an address no
        agent answers from — or not a cluster address at all. Whatever
        the stack raises (``KeyError`` from address tables included) must
        surface as a round failure naming the target, not escape the sim
        process as a bare exception.
        """
        self.node.trace.metrics.counter("control.messages").inc(
            label="cruz")
        on_give_up = self._on_send_give_up if fail_round else None
        try:
            self.endpoint.send(agent_ip, AGENT_PORT, message,
                               on_give_up=on_give_up)
        except Exception as exc:
            node_name = self._node_names.get(agent_ip, f"agent@{agent_ip}")
            error = CoordinationError(
                f"round {message.epoch}: cannot send {message.kind} "
                f"to {node_name}: {exc!r}")
            error.node_name = node_name
            raise error from exc

    def _on_send_give_up(self, message: ControlMessage) -> None:
        """Retry budget exhausted: fail the round now, not at timeout."""
        self._fail_epoch(
            message.epoch,
            f"round {message.epoch}: no ACK for {message.kind} "
            f"after retransmissions")

    def _fail_epoch(self, epoch: int, reason: str) -> None:
        for collector in self._collectors.get(epoch, {}).values():
            if not collector["event"].triggered:
                collector["event"].fail(CoordinationError(reason))

    def in_flight_epochs(self) -> List[int]:
        """Epochs of rounds this coordinator is currently driving."""
        return sorted(self._collectors)

    def fail_in_flight(self, reason: str) -> List[int]:
        """Fail every in-flight round (node-death declaration path).

        The supervisor calls this when it declares a node dead: a round
        waiting on that node's <done> would otherwise burn its full
        timeout before aborting. Each failed round runs its normal
        abort path (WAL decide + best-effort ABORT broadcast), so
        survivors discard their half-round images. Returns the epochs
        failed.
        """
        epochs = self.in_flight_epochs()
        for epoch in epochs:
            self._fail_epoch(epoch, reason)
        return epochs

    def _on_message(self, payload: ControlMessage,
                    _src_ip: Ipv4Address) -> None:
        if payload.kind == protocol.ABORT:
            self._abort_seen[payload.epoch] = payload.reason
            self._fail_epoch(payload.epoch, payload.reason)
            return
        collector = self._collectors.get(payload.epoch, {}).get(payload.kind)
        if collector is None:
            return
        collector["received"][payload.pod_name] = payload
        if set(collector["received"]) >= collector["expected"] and \
                not collector["event"].triggered:
            collector["event"].succeed(dict(collector["received"]))

    def _expect(self, epoch: int, kind: str, pod_names: Set[str]):
        event = self.node.sim.event(f"collect({kind},{epoch})")
        self._collectors.setdefault(epoch, {})[kind] = {
            "expected": set(pod_names), "received": {}, "event": event}
        return event

    def _collect(self, kind: str, event, stats: RoundStats) -> Generator:
        """Wait in ``coord.wait_<kind>`` for every member's ``kind`` reply.

        Fig. 5a's ``latency_s`` is sampled where ``DONE`` is collected, at
        the instant its wait span ends. The value is the replies.
        """
        sim = self.node.sim
        with self.node.trace.spans.span(f"coord.wait_{kind.lower()}",
                                        node=self.node.name,
                                        epoch=stats.epoch):
            timer = sim.timeout(self.timeout_s)
            outcome = yield sim.any_of([event, timer])
            if event not in outcome:
                raise CoordinationError(
                    f"round {stats.epoch}: timed out waiting for agents")
            stats.messages_received += len(event.value)
            # Processing each reply costs coordinator CPU.
            yield sim.timeout(self.node.costs.coordinator_message_handling
                              * len(event.value))
        replies = list(event.value.values())
        if kind == protocol.DONE:
            stats.latency_s = sim.now - stats.started_at
            stats.max_local_op_s = max(
                (m.local_checkpoint_s for m in replies), default=0.0)
            stats.new_chunk_bytes = sum(m.new_chunk_bytes for m in replies)
            stats.total_chunk_bytes = sum(m.total_chunk_bytes
                                          for m in replies)
        return replies

    # -- crash recovery ------------------------------------------------------

    def recover(self) -> List[int]:
        """Abort every WAL round the previous incarnation left in flight.

        Returns the aborted epochs. Agents that already aborted (their
        unilateral timeout fired, or they processed a previous ABORT)
        treat the re-notification as a stale duplicate; agents still
        holding a paused pod abort, resume it and discard the image.
        """
        aborted = []
        for record in self.wal.in_flight():
            epoch = record["epoch"]
            self.wal.decide(epoch, self.wal.ABORT,
                            reason="coordinator restart",
                            source=self.node.name, at=self.node.sim.now)
            for ip_text, pod_name in record["members"]:
                try:
                    self._send(Ipv4Address.parse(ip_text), ControlMessage(
                        kind=protocol.ABORT, epoch=epoch,
                        pod_name=pod_name, reason="coordinator restart"))
                except CoordinationError:  # cruz: noqa[CRZ003]
                    # Best effort — the WAL outcome already stands; the
                    # agent's unilateral timeout covers a lost ABORT.
                    pass
            aborted.append(epoch)
        self._epoch = max(self._epoch, self.wal.max_epoch())
        return aborted

    # -- rounds ------------------------------------------------------------

    def checkpoint(self, app: DistributedApp, optimized: bool = False,
                   incremental: bool = False,
                   dedup: bool = False,
                   early_network: bool = False,
                   concurrent: bool = False) -> Generator:
        """Coordinated checkpoint; value is the round's RoundStats.

        ``early_network`` re-enables each node's communication as soon as
        its socket state is captured and all nodes are known to have
        disabled theirs — it therefore requires ``optimized`` (§5.2).
        ``concurrent`` resumes computation behind the filter during the
        disk write (the copy-on-write optimisation), in either protocol.
        """
        if early_network and not optimized:
            raise CoordinationError(
                "early_network requires the optimized (Fig 4) protocol: "
                "a node may only unfilter once all nodes have disabled "
                "communication")
        for pod in app.pods:
            self._node_names[pod.node.stack.eth0.ip] = pod.node.name
        return (yield from self._run_round(ControlMessage(
            kind=protocol.CHECKPOINT, epoch=0, optimized=optimized,
            incremental=incremental, dedup=dedup,
            early_network=early_network, concurrent=concurrent),
            app.members))

    def restart(self, members: Members, epoch: int) -> Generator:
        """Coordinated restart: each ``(agent ip, pod name)`` member
        restores its pod's image from committed checkpoint round ``epoch``."""
        return (yield from self._run_round(ControlMessage(
            kind=protocol.RESTART, epoch=0, restores=epoch), members))

    def _run_round(self, request: ControlMessage,
                   members: Members) -> Generator:
        """One round, either protocol: send ``request`` to every member,
        collect the first reply from all, broadcast ``<continue>``,
        collect the last reply from all, commit.

        The replies are ``protocol.round_replies(request.optimized)``:
        (DONE, CONTINUE_DONE) for Fig. 2 and RESTART, (COMM_DISABLED,
        DONE) for Fig. 4.
        """
        sim, costs = self.node.sim, self.node.costs
        self._epoch += 1
        epoch = self._epoch
        first, last = protocol.round_replies(request.optimized)
        expected_pods = {pod_name for _ip, pod_name in members}
        stats = RoundStats(epoch=epoch, kind=request.kind,
                           n_nodes=len(members), started_at=sim.now)
        # Root span of the round's timeline; opened at the exact instant
        # ``started_at`` is captured (no yields in between) so span-derived
        # latencies equal the RoundStats float subtractions bit-for-bit.
        spans = self.node.trace.spans
        round_span = spans.begin("round", node=self.node.name,
                                 epoch=epoch, kind=request.kind)
        sanitizer = self.node.trace.sanitizer
        if sanitizer is not None:
            sanitizer.check_wal_epoch(
                epoch, self.wal.max_epoch(), node=self.node.name,
                time=sim.now)
        self.wal.log_start(epoch, request.kind, members, at=sim.now,
                           coordinator=self.node.name)
        first_event = self._expect(epoch, first, expected_pods)
        last_event = self._expect(epoch, last, expected_pods)

        try:
            # Step 1: notify every Agent.
            with spans.span("coord.request", node=self.node.name,
                            epoch=epoch):
                for agent_ip, pod_name in members:
                    yield sim.timeout(costs.coordinator_message_handling)
                    self._send(agent_ip, replace(
                        request, epoch=epoch, pod_name=pod_name),
                        fail_round=True)
                    stats.messages_sent += 1
            # Step 2: wait for the first reply from all.
            yield from self._collect(first, first_event, stats)
            # Step 3: allow everyone to go on.
            with spans.span("coord.continue", node=self.node.name,
                            epoch=epoch):
                for agent_ip, _pod in members:
                    yield sim.timeout(costs.coordinator_message_handling)
                    self._send(agent_ip, ControlMessage(
                        kind=protocol.CONTINUE, epoch=epoch),
                        fail_round=True)
                    stats.messages_sent += 1
            # Step 4: wait for the last reply from all.
            final = yield from self._collect(last, last_event, stats)
            stats.total_s = sim.now - stats.started_at
            stats.max_local_continue_s = max(
                (m.local_continue_s for m in final), default=0.0)
            # Verified two-phase-commit outcome: the commit only stands
            # if no agent (or recovering coordinator) aborted this epoch
            # first — first WAL record wins; a restart restores its images.
            images = ({m.pod_name: m.version for m in final}
                      if request.kind == protocol.CHECKPOINT else None)
            with spans.span("coord.commit", node=self.node.name,
                            epoch=epoch):
                outcome = self.wal.decide(epoch, self.wal.COMMIT,
                                          source=self.node.name,
                                          at=sim.now, images=images)
                if outcome != self.wal.COMMIT:
                    record = self.wal.abort_record(epoch) or {}
                    raise CoordinationError(
                        f"round {epoch}: aborted by "
                        f"{record.get('source', 'unknown')} "
                        f"({record.get('reason', 'no reason')}) "
                        "before commit")
            stats.committed = True
        except CoordinationError as error:
            stats.aborted = True
            spans.instant("coord.abort", node=self.node.name,
                          epoch=epoch, reason=str(error))
            self.wal.decide(epoch, self.wal.ABORT, reason=str(error),
                            source=self.node.name, at=sim.now)
            for agent_ip, _pod in members:
                try:
                    self._send(agent_ip, ControlMessage(
                        kind=protocol.ABORT, epoch=epoch,
                        reason="coordinator abort"))
                    stats.messages_sent += 1
                except CoordinationError:
                    continue  # abort broadcast is best effort
            raise
        finally:
            spans.end(round_span, committed=stats.committed)
            stats.phase_s = round_phases(spans, epoch)
            stats.retransmissions = self.endpoint.retransmissions_for(epoch)
            stats.duplicates = self.endpoint.duplicates_for(epoch)
            self.rounds.append(stats)
            self._collectors.pop(epoch, None)
            self.endpoint.forget_epochs_below(epoch - 1)
        return stats

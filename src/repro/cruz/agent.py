"""The per-node Checkpoint Agent (Fig. 2).

The Agent runs outside any pod (footnote 4: its own traffic never matches
the pod's netfilter rule, so coordination is never self-blocked). On
``<checkpoint>`` it:

1. configures the packet filter to silently drop all traffic to/from the
   local pod,
2. stops the pod's processes and takes the local checkpoint,
3. reports ``<done>``, waits for ``<continue>``,
4. resumes the pod, removes the filter, reports ``<continue-done>``.

With the Fig. 4 optimisation it instead reports ``<comm-disabled>`` right
after step 1 and saves while it waits for ``<continue>`` (the confirmation
that every node disabled communication); once both are in it resumes the
pod, removes the filter and reports ``<done>`` last. Both flows are one
coroutine, :meth:`CheckpointAgent._do_checkpoint`.

The control plane is reliable and idempotent: messages arrive through a
:class:`~repro.cruz.protocol.ReliableEndpoint` (ACK + retransmit +
duplicate suppression), epochs at or below the last locally completed
round are ignored outright, an ``ABORT`` that outruns its own
``CHECKPOINT`` poisons the epoch so the late checkpoint request is
refused, and every abort path removes the pod's netfilter rule before the
round is considered finished. Unilateral aborts (coordinator silence) are
recorded in the shared-store round WAL so a recovering coordinator can
never commit — or resurrect — that epoch.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.cruz import protocol
from repro.cruz.netstate import CruzSocketCodec
from repro.cruz.protocol import (
    AGENT_PORT,
    COORDINATOR_PORT,
    SUPERVISOR_PORT,
    ControlMessage,
    ReliableEndpoint,
    RetryPolicy,
)
from repro.cruz.storage import ImageStore
from repro.net.addresses import Ipv4Address
from repro.sim.core import Interrupt
from repro.simos.kernel import Node
from repro.zap.checkpoint import CheckpointEngine
from repro.zap.pod import Pod
from repro.zap.restart import RestartEngine

#: Completed-epoch bookkeeping kept around for late ABORT undo.
_VERSION_HISTORY = 16


class CheckpointAgent:
    """One agent per application node."""

    def __init__(self, node: Node, store: ImageStore,
                 destroy_pod: Callable[[Pod], None],
                 retry: Optional[RetryPolicy] = None,
                 faults=None, mc_bugs=frozenset()):
        self.node = node
        self.store = store
        #: The cluster's one pod teardown (``CruzCluster.destroy_pod``).
        self._destroy_pod = destroy_pod
        #: Model-checker mutation flags (see ``repro.analysis.mc``);
        #: "stale-replay" disables the stale-epoch guard below *and* the
        #: endpoint's duplicate suppression, re-opening the hole where a
        #: replayed CHECKPOINT re-runs a finished round.
        self.mc_bugs = frozenset(mc_bugs)
        #: Coordinator-failure tolerance (§5.1: "can be extended in a
        #: straightforward way"): if <continue> never arrives, the agent
        #: aborts unilaterally — resumes its pod, re-enables
        #: communication, discards the uncommitted image, and records the
        #: abort in the shared round WAL.
        self.continue_timeout_s = 120.0
        self.unilateral_aborts = 0
        codec = CruzSocketCodec()
        # The engine saves through the chunk store itself, so serialization
        # pipelines with the disk write and written_bytes is measured.
        self.checkpoint_engine = CheckpointEngine(codec, store=store)
        self.restart_engine = RestartEngine(codec)
        self.pods: Dict[str, Pod] = {}
        #: epoch -> {"continue": Event, "aborted": bool, "epoch": int}
        self._rounds: Dict[int, Dict] = {}
        #: Highest epoch this agent finished (committed or aborted);
        #: stale control messages at or below it are ignored.
        self.last_completed_epoch = 0
        #: Epochs whose ABORT arrived before (or without) the round
        #: request — a late CHECKPOINT/RESTART for them is refused.
        self._aborted_epochs: Set[int] = set()
        #: epoch -> (pod_name, version) committed locally, kept so a late
        #: ABORT (e.g. from a recovering coordinator) can still undo it.
        self._epoch_versions: Dict[int, Tuple[str, int]] = {}
        self.messages_handled = 0
        #: Failure injection: a crashed agent ignores all traffic (and,
        #: being crashed, sends no ACKs either).
        self.crashed = False
        #: Liveness beacons sent (see :meth:`start_heartbeats`).
        self.heartbeats_sent = 0
        #: Failure injection: a muted agent stays fully alive (pods run,
        #: control plane answers) but stops beating — a partitioned or
        #: wedged liveness path, the supervisor's false-suspicion case.
        self.mute_heartbeats = False
        self._heartbeat_seq = 0
        #: In-flight dispatch/save simulation processes, interrupted on
        #: :meth:`crash` so a powered-off node stops mid-operation. A
        #: list (not a set) so the interrupt order is reproducible.
        self._tasks: List = []
        self.endpoint = ReliableEndpoint(
            node, AGENT_PORT, self._on_message, policy=retry,
            faults=faults, is_alive=lambda: not self.crashed,
            name=f"agent@{node.name}", mc_bugs=self.mc_bugs)

    def register_pod(self, pod: Pod) -> None:
        self.pods[pod.name] = pod

    def unregister_pod(self, pod_name: str) -> Optional[Pod]:
        return self.pods.pop(pod_name, None)

    # -- liveness ----------------------------------------------------------

    def start_heartbeats(self, supervisor_ip: Ipv4Address,
                         interval_s: float, jitter_s: float, rng) -> None:
        """Send periodic fire-and-forget liveness beacons.

        Each beat waits ``interval_s`` plus a seeded uniform
        ``[0, jitter_s)`` draw, so beats from different nodes never
        align on the same simulator instant (which would make event
        ordering tiebreak-sensitive). A crashed agent skips sends but
        keeps the loop alive, so a revived node resumes beating without
        new plumbing.
        """
        self.node.sim.process(
            self._heartbeat_loop(supervisor_ip, interval_s, jitter_s,
                                 rng),
            name=f"heartbeat@{self.node.name}")

    def _heartbeat_loop(self, supervisor_ip: Ipv4Address,
                        interval_s: float, jitter_s: float,
                        rng) -> Generator:
        sim = self.node.sim
        while True:
            yield sim.timeout(interval_s + rng.random() * jitter_s)
            if self.crashed or self.mute_heartbeats:
                continue
            self._heartbeat_seq += 1
            self.heartbeats_sent += 1
            self.endpoint.send_unreliable(
                supervisor_ip, SUPERVISOR_PORT, ControlMessage(
                    kind=protocol.HEARTBEAT, epoch=self._heartbeat_seq,
                    node_name=self.node.name, payload_bytes=16))

    def crash(self) -> None:
        """Power-loss semantics: stop executing, forget volatile state.

        Interrupts every in-flight dispatch/save process (a dead node
        never finishes a save, never writes an abort record, never sends
        another frame — the endpoint's ``is_alive`` gate silences both
        directions) and drops the per-round state held in memory.
        ``last_completed_epoch`` survives deliberately: the epoch guard
        must keep rejecting stale retransmissions after a revive, and
        epochs only ever grow.
        """
        self.crashed = True
        for task in self._tasks:
            if task.is_alive:
                task.interrupt("node crash")
        self._tasks = []
        self._rounds.clear()
        self._aborted_epochs.clear()

    def revive(self) -> None:
        """Power back on: accept traffic and resume heartbeats."""
        self.crashed = False

    # -- transport ---------------------------------------------------------

    def _send(self, coordinator_ip: Ipv4Address,
              message: ControlMessage) -> None:
        self.node.trace.metrics.counter("control.messages").inc(
            label="cruz")
        self.endpoint.send(coordinator_ip, COORDINATOR_PORT, message)

    def _on_message(self, payload: ControlMessage,
                    src_ip: Ipv4Address) -> None:
        self.messages_handled += 1
        self._track(self.node.sim.process(
            self._dispatch(payload, src_ip),
            name=f"agent@{self.node.name}:{payload.kind}"))

    def _track(self, task):
        """Remember an in-flight sim process for interrupt-on-crash."""
        self._tasks = [t for t in self._tasks if t.is_alive]
        self._tasks.append(task)
        return task

    def _dispatch(self, message: ControlMessage,
                  coordinator_ip: Ipv4Address) -> Generator:
        yield self.node.sim.timeout(self.node.costs.agent_message_handling)
        if message.kind == protocol.ABORT:
            self._handle_abort(message.epoch)
            return
        if message.epoch <= self.last_completed_epoch and \
                "stale-replay" not in self.mc_bugs:
            # Stale: a retransmission (or reordered stray) for a round
            # this agent already finished. Re-running it would re-create
            # round state that nothing ever reclaims — ignore it.
            return
        if message.kind in (protocol.CHECKPOINT, protocol.RESTART) and \
                message.epoch in self._aborted_epochs:
            # The round was aborted before its request reached us; taking
            # the checkpoint now would pause the pod for a dead epoch.
            return
        if message.kind == protocol.CHECKPOINT:
            yield from self._do_checkpoint(message, coordinator_ip)
        elif message.kind == protocol.RESTART:
            yield from self._do_restart(message, coordinator_ip)
        elif message.kind == protocol.CONTINUE:
            self._signal_continue(message.epoch, aborted=False)

    def _handle_abort(self, epoch: int) -> None:
        state = self._rounds.get(epoch)
        if state is not None:
            self._signal_continue(epoch, aborted=True)
            return
        if epoch > self.last_completed_epoch:
            # ABORT outran the round request (reordering / recovering
            # coordinator): poison the epoch so a late request is refused.
            self._aborted_epochs.add(epoch)
            return
        # Round already completed here. If we committed an image for it
        # (Fig. 4 agents commit at <done>), the global round still
        # aborted — undo the local commit so the dead epoch leaves no
        # image behind.
        committed = self._epoch_versions.pop(epoch, None)
        if committed is not None:
            pod_name, version = committed
            self.store.discard(pod_name, version)
            self.node.trace.spans.instant(
                "agent.undo", node=self.node.name, pod=pod_name,
                epoch=epoch, version=version)

    def _signal_continue(self, epoch: int, aborted: bool) -> None:
        state = self._rounds.get(epoch)
        if state is None:
            return
        state["aborted"] = aborted
        event = state["continue"]
        if not event.triggered:
            event.succeed()

    def _round_state(self, epoch: int) -> Dict:
        state = self._rounds.get(epoch)
        if state is None:
            state = {"continue": self.node.sim.event(f"continue({epoch})"),
                     "aborted": False, "epoch": epoch}
            self._rounds[epoch] = state
        return state

    def _complete_round(self, epoch: int,
                        committed: Optional[Tuple[str, int]] = None
                        ) -> None:
        """Reclaim all per-round state; runs on every exit path."""
        self._rounds.pop(epoch, None)
        self.last_completed_epoch = max(self.last_completed_epoch, epoch)
        self._aborted_epochs = {
            e for e in self._aborted_epochs
            if e > self.last_completed_epoch}
        if committed is not None:
            self._epoch_versions[epoch] = committed
            while len(self._epoch_versions) > _VERSION_HISTORY:
                self._epoch_versions.pop(min(self._epoch_versions))
        self.endpoint.forget_epochs_below(epoch - 1)

    def _await_continue(self, state: Dict) -> Generator:
        """Wait for <continue>/<abort>, aborting on coordinator silence."""
        sim = self.node.sim
        event = state["continue"]
        timer = sim.timeout(self.continue_timeout_s)
        outcome = yield sim.any_of([event, timer])
        if event not in outcome:
            state["aborted"] = True
            self.unilateral_aborts += 1
            # Record the verdict where a recovering coordinator will look
            # before it could ever commit (or reuse) this epoch.
            self.store.rounds.decide(
                state["epoch"], self.store.rounds.ABORT,
                reason="coordinator silent", source=self.node.name,
                at=sim.now)
            self.node.trace.spans.instant(
                "agent.abort", node=self.node.name,
                epoch=state["epoch"], reason="coordinator silent")

    def _abort_local(self, message: ControlMessage,
                     coordinator_ip: Ipv4Address, reason: str) -> None:
        """This node's save or restore failed: abort its round.

        Records the verdict in the round WAL, reports ABORT with
        ``reason`` to the coordinator (which fails the epoch without
        waiting for the round timeout) and reclaims the round state. The
        caller resumes its pod if it has one; its try/finally removes
        the netfilter rule.
        """
        self.store.rounds.decide(message.epoch, self.store.rounds.ABORT,
                                 reason=reason, source=self.node.name,
                                 at=self.node.sim.now)
        self._send(coordinator_ip, ControlMessage(
            kind=protocol.ABORT, epoch=message.epoch,
            pod_name=message.pod_name, node_name=self.node.name,
            reason=reason))
        self.node.trace.spans.instant(
            "agent.abort", node=self.node.name, epoch=message.epoch,
            reason=reason)
        self._complete_round(message.epoch)

    # -- checkpoint ----------------------------------------------------------

    def _do_checkpoint(self, message: ControlMessage,
                       coordinator_ip: Ipv4Address) -> Generator:
        """One checkpoint round on this node, Fig. 2 or Fig. 4.

        Filter, save, wait for <continue>, resume, unfilter, last reply.
        Three things differ by protocol:

        * the reply sent before the continue-wait: Fig. 2 reports <done>
          after its save, Fig. 4 <comm-disabled> as soon as the filter
          is in;
        * Fig. 2 saves inline; Fig. 4 saves in the tracked
          ``save(<pod>)`` process, which overlaps the continue-wait;
        * under ``early_network`` a Fig. 4 node removes its filter once
          its state is captured and <continue> is in, so TCP backoff
          recovery overlaps the rest of the disk write (§5.2).

        With ``concurrent`` (either protocol) the engine resumes the pod,
        still filtered, as soon as its state is extracted.
        """
        sim, costs = self.node.sim, self.node.costs
        pod = self.pods.get(message.pod_name)
        if pod is None:
            self._send(coordinator_ip, ControlMessage(
                kind=protocol.ABORT, epoch=message.epoch,
                node_name=self.node.name,
                reason=f"no pod {message.pod_name!r}"))
            return
        state = self._round_state(message.epoch)
        first, last = protocol.round_replies(message.optimized)
        started = sim.now
        # Pause/local spans open at the exact ``started`` instant (no
        # yields in between) so span durations reproduce the float
        # subtractions reported in DONE bit-for-bit. ``agent.pod_pause``
        # ends where the pod resumes; ``agent.local`` at the instant
        # ``local_checkpoint_s`` is measured.
        spans = self.node.trace.spans
        pause_span = spans.begin("agent.pod_pause", node=self.node.name,
                                 pod=pod.name, epoch=message.epoch)
        local_span = spans.begin("agent.local", node=self.node.name,
                                 pod=pod.name, epoch=message.epoch,
                                 op="checkpoint")
        # Step 1: silently drop all traffic to/from the local pod.
        rule_id = self.node.stack.netfilter.drop_all_for(pod.ip)
        filtered = True
        captured = sim.event(f"captured({message.epoch})")
        save = self.checkpoint_engine.checkpoint(
            pod, resume=message.concurrent,
            incremental=message.incremental, dedup=message.dedup,
            on_captured=captured.succeed if message.optimized else None,
            concurrent=message.concurrent)
        try:
            with spans.span("agent.filter_install", node=self.node.name,
                            pod=pod.name):
                yield sim.timeout(costs.netfilter_update)
            # Step 2: stop the pod and take the local checkpoint.
            try:
                if message.optimized:
                    self._send(coordinator_ip, ControlMessage(
                        kind=first, epoch=message.epoch,
                        pod_name=pod.name, node_name=self.node.name))
                    save_task = self._track(sim.process(
                        save, name=f"save({pod.name})"))
                    # The wait overlaps the save on this node, so it
                    # stays off the ambient stack (attach=False): the
                    # engine's zap.* spans must nest under agent.local,
                    # not under the wait.
                    wait_span = spans.begin(
                        "agent.wait_continue", node=self.node.name,
                        pod=pod.name, attach=False, parent=local_span)
                    yield from self._await_continue(state)
                    spans.end(wait_span)
                    if not captured.triggered:
                        # Waiting on `captured` alone would block this
                        # round forever (filter installed, pod paused) if
                        # the save died before capturing: the AnyOf
                        # fails the moment the save does.
                        yield sim.any_of([captured, save_task])
                    if message.early_network and not state["aborted"]:
                        with spans.span("agent.filter_remove",
                                        node=self.node.name, pod=pod.name,
                                        attach=False, parent=local_span,
                                        early=True):
                            self.node.stack.netfilter.remove_rule(rule_id)
                            yield sim.timeout(costs.netfilter_update)
                        filtered = False
                    image = yield save_task
                else:
                    image = yield from save
            except Exception as error:  # noqa: BLE001 - engine failure
                if isinstance(error, Interrupt):
                    # Node crash mid-save: a powered-off agent writes no
                    # abort record and sends nothing.
                    raise
                spans.end(local_span)
                spans.end(pause_span)
                self._abort_local(message, coordinator_ip,
                                  f"local save failed: {error!r}")
                pod.continue_all()
                return
            report = ControlMessage(
                kind=protocol.DONE, epoch=message.epoch, pod_name=pod.name,
                node_name=self.node.name,
                local_checkpoint_s=sim.now - started,
                version=image.version,
                new_chunk_bytes=image.written_bytes,
                total_chunk_bytes=image.total_chunk_bytes)
            spans.end(local_span)
            if not message.optimized:
                # Fig. 2: the save's report is the first reply; then
                # wait for <continue>.
                self._send(coordinator_ip, report)
                with spans.span("agent.wait_continue", node=self.node.name,
                                pod=pod.name):
                    yield from self._await_continue(state)
            # Steps 5-7: resume, re-enable communication, report.
            resume_started = sim.now
            if not message.concurrent:
                pod.continue_all()
            spans.end(pause_span)
            resume_span = spans.begin("agent.resume", node=self.node.name,
                                      pod=pod.name, epoch=message.epoch)
            if filtered:
                with spans.span("agent.filter_remove", node=self.node.name,
                                pod=pod.name):
                    self.node.stack.netfilter.remove_rule(rule_id)
                    yield sim.timeout(costs.netfilter_update)
            spans.end(resume_span)
            if state["aborted"]:
                # Undo: the round never committed; drop the half-round
                # image.
                self.store.discard(pod.name, image.version)
                self._complete_round(message.epoch)
            else:
                self._send(coordinator_ip, replace(
                    report, kind=last,
                    local_continue_s=sim.now - resume_started))
                # Remember the version so a late ABORT of this epoch can
                # still undo the local commit (a Fig. 4 agent commits at
                # its <done>).
                self._complete_round(message.epoch,
                                     committed=(pod.name, image.version))
        finally:
            # Whatever went wrong above (engine failure, abort raced with
            # the save, ...) the pod must never stay filtered: remove the
            # rule if a happy path did not already. Likewise no span may
            # stay open across rounds (end is idempotent and closes any
            # open descendants).
            self.node.stack.netfilter.remove_rule(rule_id)
            spans.end(pause_span)
            self._sanitize_round_end(pod.ip, message.epoch)

    # -- restart --------------------------------------------------------------

    def _do_restart(self, message: ControlMessage,
                    coordinator_ip: Ipv4Address) -> Generator:
        sim, costs = self.node.sim, self.node.costs
        state = self._round_state(message.epoch)
        started = sim.now
        spans = self.node.trace.spans
        local_span = spans.begin("agent.local", node=self.node.name,
                                 pod=message.pod_name,
                                 epoch=message.epoch, op="restart")
        rule_id = None
        try:
            try:
                images = self.store.rounds.images(message.restores)
                image = self.store.load(message.pod_name,
                                        images[message.pod_name])
                # Communications must be disabled *before* any state is
                # restored: restored TCP would otherwise transmit before
                # its peers exist (§5).
                rule_id = self.node.stack.netfilter.drop_all_for(image.ip)
                with spans.span("agent.filter_install",
                                node=self.node.name, pod=message.pod_name):
                    yield sim.timeout(costs.netfilter_update)
                pod = yield from self.restart_engine.restart(
                    image, self.node, resume=False)
            except Exception as error:  # noqa: BLE001 - restore failure
                if isinstance(error, Interrupt):
                    raise  # node crash: a powered-off agent sends nothing
                spans.end(local_span)
                self._abort_local(message, coordinator_ip,
                                  f"local restore failed: {error!r}")
                return
            self.register_pod(pod)
            spans.end(local_span)
            self._send(coordinator_ip, ControlMessage(
                kind=protocol.DONE, epoch=message.epoch, pod_name=pod.name,
                node_name=self.node.name,
                local_checkpoint_s=sim.now - started))
            with spans.span("agent.wait_continue", node=self.node.name,
                            pod=pod.name, epoch=message.epoch):
                yield from self._await_continue(state)
            resume_started = sim.now
            if state["aborted"]:
                self._destroy_pod(pod)
                self.node.stack.netfilter.remove_rule(rule_id)
                self._complete_round(message.epoch)
                return
            self.restart_engine.resume(pod, image)
            resume_span = spans.begin("agent.resume", node=self.node.name,
                                      pod=pod.name, epoch=message.epoch)
            with spans.span("agent.filter_remove", node=self.node.name,
                            pod=pod.name):
                self.node.stack.netfilter.remove_rule(rule_id)
                yield sim.timeout(costs.netfilter_update)
            spans.end(resume_span)
            self._send(coordinator_ip, ControlMessage(
                kind=protocol.CONTINUE_DONE, epoch=message.epoch,
                pod_name=pod.name, node_name=self.node.name,
                local_continue_s=sim.now - resume_started))
            self._complete_round(message.epoch)
        finally:
            spans.end(local_span)
            if rule_id is not None:
                self.node.stack.netfilter.remove_rule(rule_id)
                self._sanitize_round_end(image.ip, message.epoch)

    def _sanitize_round_end(self, pod_ip, epoch: int) -> None:
        """End-of-round invariant: no drop rule for the pod survives."""
        sanitizer = self.node.trace.sanitizer
        if sanitizer is not None:
            sanitizer.check_netfilter_round_end(
                self.node, pod_ip, epoch=epoch, time=self.node.sim.now)


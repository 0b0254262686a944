"""Schedule oracles: the controllable half of the CruzMC model checker.

The simulator orders events by ``(time, priority, sequence)``; everything
sharing the first two keys is a **tie**, and correct code must be
indifferent to how ties are broken.  A :class:`ScheduleOracle` plugged
into :class:`repro.sim.core.Simulator` decides every tie explicitly:
``Simulator._choose`` pops the whole tie set and asks the oracle for
an index.  An oracle that always picks the oldest (newest) member
reproduces ``tiebreak="fifo"`` (``"lifo"``) bit-identically; `repro
analyze determinism` runs those two policies as plain tie-breaks.

The same object doubles as the **fault oracle**: when installed on a
:class:`repro.cruz.faults.ControlFaultInjector`, every eligible control
datagram becomes a choice point (pass / drop / duplicate / crash a node /
partition the network) instead of a probability draw.

:class:`ExplorerOracle` is the recording/forcing oracle the DFS explorer
in :mod:`repro.analysis.mc` drives: it replays a forced prefix of
choices, defaults everything beyond it, and records every choice point
(with its candidate labels) so the explorer can enumerate the siblings.
It also implements the two reductions:

* **Persistent (ample) sets** — tie candidates are partitioned into
  per-node ownership classes (owner derived from the event/process
  name, or from the process a timeout resumes; unknown owners are
  conservatively *shared*, i.e. dependent with everything).  Only one
  class — deterministically the smallest — is branched; events of
  different classes commute because cross-node interaction travels as
  future timestamped message events which re-tie on their own.
* **One-step sleep sets** — after branching to candidate *j* at a tie,
  the sibling runs for candidates ``< j`` have already covered every
  ordering that starts with one of them; the immediate re-tie (same
  instant, remaining candidates) therefore skips branches that begin
  with an earlier sibling independent of the just-executed event.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.core import Event as _SimEvent

#: Queue entries are ``[time, priority, signed_seq, event]`` lists — see
#: ``repro.sim.eventq``.
Entry = List[Any]

#: Fault modes an oracle can impose on a control datagram.
FAULT_PASS = "pass"
FAULT_DROP = "drop"
FAULT_DUP = "dup"
FAULT_CRASH = "crash"
FAULT_PARTITION = "partition"

_OWNER_RE = re.compile(r"@(node\d+)\b")
_NODE_ONLY_RE = re.compile(r"^node\d+$")

#: Labels that mark a tie as touching the coordination protocol; under
#: ``branch_scope="control"`` only these ties branch (application /
#: network-internal ties take the canonical order — their immunity is
#: what `analyze determinism` certifies separately).
_CONTROL_RE = re.compile(
    r"agent@|coordinator@|retx\(|save\(|restore\(|ack\(|continue\(")

#: Event names that say nothing about ownership; attribution falls
#: through to the process the event resumes.
_ANON_NAMES = frozenset({"timeout", "event", "chain", "any_of", "all_of",
                         "", "process"})


class ReplayDivergence(RuntimeError):
    """A forced choice trace no longer matches the run's choice points."""


def _owner_from_name(name: str) -> Optional[str]:
    match = _OWNER_RE.search(name)
    if match:
        return match.group(1)
    if _NODE_ONLY_RE.match(name):
        return name
    return None


def entry_info(entry: Entry) -> Tuple[str, Optional[str]]:
    """``(label, owner)`` for a queue entry.

    The label is a stable human-readable description (used in choice
    traces); the owner is the ``nodeN`` an event belongs to, or ``None``
    when unknown — unknown owners are treated as dependent with
    everything, which costs reduction but never soundness.
    """
    target = entry[3]
    if isinstance(target, _SimEvent):
        label = target.name or "event"
        owner = _owner_from_name(label)
        if owner is None or label in _ANON_NAMES:
            # Anonymous plumbing (timeouts, chains): attribute it to
            # the process whose _resume callback it will fire.
            for callback in (target.callbacks or ()):
                holder = getattr(callback, "__self__", None)
                holder_name = getattr(holder, "name", None)
                if isinstance(holder_name, str) and holder_name:
                    label = f"{label}->{holder_name}"
                    owner = _owner_from_name(holder_name)
                    break
        return label, owner
    # A bare (fn, args) deferred call.
    fn = target[0]
    holder = getattr(fn, "__self__", None)
    holder_name = getattr(holder, "name", None)
    fn_name = getattr(fn, "__name__", "call")
    if isinstance(holder_name, str) and holder_name:
        return f"{fn_name}@{holder_name}", _owner_from_name(holder_name)
    return fn_name, None


def ample_candidates(owners: Sequence[Optional[str]]) -> List[int]:
    """Indexes of the ample class among tie candidates.

    Candidates with the same owner are mutually dependent (one class);
    an unknown owner is dependent with everything and collapses the tie
    into a single class.  When more than one class exists, the smallest
    (first-seen on size ties — deterministic) is the ample set: its
    members' orderings relative to *other* classes commute, so only
    intra-class orderings need branching here.
    """
    if any(owner is None for owner in owners):
        return list(range(len(owners)))
    groups: Dict[str, List[int]] = {}
    for index, owner in enumerate(owners):
        groups.setdefault(owner, []).append(index)
    if len(groups) == 1:
        return list(range(len(owners)))
    return min(groups.values(), key=lambda idx: (len(idx), idx[0]))


class ScheduleOracle:
    """Base oracle: canonical queue order, no faults.

    Installing this oracle is behaviourally identical to installing none
    — the tie set is presented in queue order and ``choose`` picks its
    head; every fault hook passes the datagram through.
    """

    def choose(self, ties: Sequence[Entry], now: float) -> int:
        """Pick the index of the tie member to execute next."""
        return 0

    def fault(self, message: Any, transmit: Any, injector: Any) -> bool:
        """Fault decision for one control datagram.

        Returns ``True`` when the oracle took ownership of delivery
        (dropped/duplicated it), ``False`` to deliver normally.
        """
        return False


@dataclass
class Choice:
    """One recorded choice point of an explorer run."""

    kind: str      #: "tie" (schedule) or "fault" (datagram fate)
    options: int   #: number of alternatives the explorer may branch to
    chosen: int    #: index taken in this run
    label: str     #: stable description, e.g. the candidate names

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, "options": self.options,
                "chosen": self.chosen, "label": self.label}


class ExplorerOracle(ScheduleOracle):
    """Recording/forcing oracle driven by the DFS explorer.

    Replays ``forced`` choices positionally, defaults to index 0 beyond
    them, and records every choice point in ``trace``.  Reduction
    bookkeeping (``tie_points``, ``orderings_pruned``) feeds the
    explorer's reduction-ratio metric.
    """

    def __init__(self, forced: Sequence[int] = (), *,
                 branch_scope: str = "control", por: bool = True,
                 fault_modes: Sequence[str] = (),
                 fault_kinds: Any = frozenset(),
                 fault_budget: int = 0,
                 dup_delay_s: float = 2e-3,
                 partition_duration_s: float = 0.25,
                 sleep: Sequence[str] = (),
                 sleep_owner: Optional[str] = None):
        self.forced = list(forced)
        self.branch_scope = branch_scope
        self.por = por
        self.fault_modes = tuple(fault_modes)
        self.fault_kinds = frozenset(fault_kinds)
        self.fault_budget = int(fault_budget)
        self.dup_delay_s = dup_delay_s
        self.partition_duration_s = partition_duration_s
        #: Recorded choice points, in order.
        self.trace: List[Choice] = []
        #: Per choice point: the (label, owner) of each candidate —
        #: sibling branch metadata for the explorer's sleep sets.
        self.candidates: List[List[Tuple[str, Optional[str]]]] = []
        #: Reduction statistics.
        self.tie_points = 0
        self.ties_seen = 0
        self.orderings_pruned = 0
        #: One-step sleep set: labels skipped at the branch point this
        #: run descends from, applied at the immediate re-tie only.
        #: Crash/partition modes interrupt processes at arbitrary
        #: instants (URGENT events can slip between the branch and the
        #:  re-tie), so sleep filtering stays off for those runs.
        self._sleep = set(sleep) if FAULT_CRASH not in fault_modes \
            and FAULT_PARTITION not in fault_modes else set()
        self._sleep_owner = sleep_owner
        self._sleep_at = len(self.forced)
        self.cluster = None
        self._chaos = None

    def bind(self, cluster: Any) -> None:
        """Attach the cluster so crash/partition faults can execute."""
        self.cluster = cluster

    # -- choice bookkeeping ----------------------------------------------

    def _decide(self, kind: str, options: int, label: str,
                meta: Optional[List[Tuple[str, Optional[str]]]] = None,
                ) -> int:
        index = len(self.trace)
        chosen = self.forced[index] if index < len(self.forced) else 0
        if not 0 <= chosen < options:
            raise ReplayDivergence(
                f"choice {index} ({kind} {label!r}) has {options} options "
                f"but the trace forces index {chosen}")
        self.trace.append(Choice(kind, options, chosen, label))
        self.candidates.append(meta or [])
        return chosen

    # -- schedule ties ----------------------------------------------------

    def choose(self, ties: Sequence[Entry], now: float) -> int:
        self.tie_points += 1
        self.ties_seen += len(ties)
        infos = [entry_info(entry) for entry in ties]
        if self.branch_scope != "all" and not any(
                _CONTROL_RE.search(label) for label, _ in infos):
            self.orderings_pruned += len(ties) - 1
            return 0
        if self.por:
            owners = [owner for _, owner in infos]
            cand = ample_candidates(owners)
        else:
            cand = list(range(len(ties)))
        if self._sleep and len(self.trace) == self._sleep_at:
            kept = [i for i in cand
                    if infos[i][0] not in self._sleep
                    or infos[i][1] is None
                    or self._sleep_owner is None
                    or infos[i][1] == self._sleep_owner]
            if kept:
                cand = kept
            self._sleep.clear()
        if len(cand) == 1:
            self.orderings_pruned += len(ties) - 1
            return cand[0]
        self.orderings_pruned += len(ties) - len(cand)
        meta = [infos[i] for i in cand]
        label = f"t={now:.6f} " + " | ".join(lbl for lbl, _ in meta)
        return cand[self._decide("tie", len(cand), label, meta)]

    # -- fault choice points ----------------------------------------------

    def _fault_options(self) -> List[str]:
        options = [FAULT_PASS]
        for mode in self.fault_modes:
            if mode in (FAULT_DROP, FAULT_DUP):
                options.append(mode)
            elif mode == FAULT_CRASH and self.cluster is not None:
                options.extend(
                    f"crash:{i}" for i in range(self.cluster.n_app_nodes)
                    if i not in self.cluster.dead_nodes)
            elif mode == FAULT_PARTITION and self.cluster is not None:
                options.append(FAULT_PARTITION)
        return options

    def _chaos_injector(self):
        if self._chaos is None:
            from repro.cruz.faults import ChaosInjector
            self._chaos = ChaosInjector(self.cluster)
        return self._chaos

    def fault(self, message: Any, transmit: Any, injector: Any) -> bool:
        if (not self.fault_modes or self.fault_budget <= 0
                or message.kind not in self.fault_kinds):
            return False
        options = self._fault_options()
        if len(options) == 1:
            return False
        label = (f"{message.kind} e{message.epoch} "
                 f"{message.pod_name or message.node_name or '*'}")
        mode = options[self._decide("fault", len(options), label)]
        if mode == FAULT_PASS:
            return False
        self.fault_budget -= 1
        if mode == FAULT_DROP:
            injector.dropped += 1
            return True
        if mode == FAULT_DUP:
            injector.duplicated += 1
            transmit()
            injector.sim.call_later(self.dup_delay_s, transmit)
            return True
        now = injector.sim.now
        if mode.startswith("crash:"):
            # The datagram still goes out; the fault is the node dying
            # at this exact instant.
            self._chaos_injector().schedule_node_crash(
                int(mode.split(":", 1)[1]), at=now)
            return False
        # Partition node0's side from everyone else (coordinator
        # included) starting at this instant, healing after a fixed
        # window — exercises retransmit-give-up and abort paths.
        total = len(self.cluster.nodes)
        self._chaos_injector().schedule_partition(
            [0], list(range(1, total)), at=now,
            duration_s=self.partition_duration_s)
        return False

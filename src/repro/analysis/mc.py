"""CruzMC: a stateless model checker for the coordination protocol.

`repro analyze determinism` certifies the protocol at exactly two points
of the schedule space (fifo vs lifo tie-breaking).  CruzMC explores the
space *systematically*: a DFS over every choice the scheduler and the
fault plane can make — which tied event runs first, whether a control
datagram is delivered, dropped, duplicated, or answered with a node
crash / network partition — bounded by a state and depth budget.

The checker is **stateless** (replay-based): each explored state is a
fresh run of the workload from scratch, forced down a recorded prefix of
choices (`ExplorerOracle`), defaulting to choice 0 beyond the prefix.
For every run the explorer enumerates the untaken siblings of each new
choice point and pushes them onto the frontier; the schedule space is
exhausted when the frontier empties within budget.

Reductions (see `repro.analysis.oracle`): persistent/ample sets over the
per-node ownership relation, one-step sleep sets, a control-plane branch
scope, and terminal-state deduplication via `determinism.state_hash`.

Every terminal state runs the full Sanitizer battery (deep store audit)
plus the end-state assertions:

* ``MC-END-PAUSED``       — no live pod is left SIGSTOPped,
* ``MC-END-NETFILTER``    — no netfilter drop rule survives the run,
* ``MC-END-RECONSTRUCT``  — every committed version is reconstructible,
* ``MC-END-INFLIGHT``     — no round is still in flight.

A violating run becomes a **counterexample**: its choice trace is
greedily minimized (non-default choices flipped back to default while
the violation persists) and serialized to JSON; ``repro mc --replay``
re-executes the trace and must reproduce the violation bit-identically
(same violation codes, same state hash).

``KNOWN_BUGS`` are seeded mutations (each re-opening a real, fixed
protocol hole) used to prove the checker finds what it claims to find.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.determinism import state_hash
from repro.analysis.oracle import (
    Choice,
    ExplorerOracle,
    ReplayDivergence,
    ScheduleOracle,
)
from repro.cruz import protocol
from repro.errors import CoordinationError

#: Seeded mutation flags: name -> the hole the flag re-opens.  Used by
#: ``repro mc --inject-bug`` and the counterexample regression tests.
KNOWN_BUGS = {
    "stale-replay": (
        "disable duplicate suppression and the stale-epoch guard, so a "
        "replayed CHECKPOINT re-runs a finished round — pausing the pod "
        "and installing a netfilter rule that nothing ever removes"),
}

#: Message kinds eligible for fault choice points by default (ACKs and
#: heartbeats excluded — their loss is the reliability layer's own
#: business and only multiplies the space).
DEFAULT_FAULT_KINDS = (protocol.CHECKPOINT, protocol.DONE,
                       protocol.CONTINUE, protocol.CONTINUE_DONE)


@dataclass
class McConfig:
    """Workload + budget knobs for one exploration."""

    nodes: int = 2
    rounds: int = 1
    interval_s: float = 0.05
    warmup_s: float = 0.3
    settle_s: float = 0.5
    memory_mb: float = 1.0
    #: "control" branches only protocol-touching ties; "all" branches
    #: every tie (application/network internals included).
    branch_scope: str = "control"
    por: bool = True
    max_states: int = 2000
    max_depth: int = 200
    #: Fault modes offered at each eligible datagram ("drop", "dup",
    #: "crash", "partition"); empty = schedule-only exploration.
    fault_modes: Tuple[str, ...] = ()
    fault_budget: int = 1
    fault_kinds: Tuple[str, ...] = DEFAULT_FAULT_KINDS
    dup_delay_s: float = 2e-3
    partition_duration_s: float = 0.25
    #: Coordinator round timeout — small, so aborted rounds resolve
    #: within the run instead of the production 60 s.
    round_timeout_s: float = 5.0
    #: Agent unilateral-abort timeout — deliberately *longer* than the
    #: run horizon, so a round state wrongly re-created after its round
    #: finished is still visible (paused pod, live netfilter rule) at
    #: the end state instead of being quietly self-healed.
    continue_timeout_s: float = 30.0
    limit_s: float = 1e6
    #: Seeded mutations from :data:`KNOWN_BUGS`.
    bugs: Tuple[str, ...] = ()

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "McConfig":
        fields = {f for f in cls.__dataclass_fields__}
        kwargs = {k: v for k, v in data.items() if k in fields}
        for key in ("fault_modes", "fault_kinds", "bugs"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


@dataclass
class RunResult:
    """One terminal state of the explored tree."""

    choices: List[Choice]
    candidates: List[List[Tuple[str, Optional[str]]]]
    violations: List[Dict[str, Any]]
    aborted_rounds: List[str]
    committed: List[bool]
    state_hash: str
    error: Optional[str]
    tie_points: int
    ties_seen: int
    orderings_pruned: int

    @property
    def violation_codes(self) -> List[str]:
        return sorted({v["code"] for v in self.violations})


def _retry_policy():
    # Fast retransmits so dropped-datagram branches resolve within the
    # short mc horizon (give-up after ~0.2 s of simulated time).
    return protocol.RetryPolicy(initial_backoff_s=0.02,
                                backoff_factor=2.0,
                                max_backoff_s=0.08, max_retries=3)


def _build_cluster(config: McConfig, oracle: ScheduleOracle,
                   page_memo: Optional[Dict] = None):
    from repro.apps.slm import run_slm_rounds
    from repro.cruz.cluster import CruzCluster

    cluster = CruzCluster(
        config.nodes, sanitize=True, oracle=oracle,
        coordinator_timeout_s=config.round_timeout_s,
        control_retry=_retry_policy(),
        mc_bugs=frozenset(config.bugs), page_memo=page_memo)
    cluster.fault_injector.oracle = oracle
    if hasattr(oracle, "bind"):
        oracle.bind(cluster)
    for agent in cluster.agents:
        agent.continue_timeout_s = config.continue_timeout_s
    app, _stats = run_slm_rounds(cluster, config.nodes, config.memory_mb)
    return cluster, app


def _end_state_checks(cluster, config: McConfig) -> None:
    """End-state assertions, recorded through the cluster's sanitizer."""
    sanitizer = cluster.trace.sanitizer
    now = cluster.sim.now
    # Deep store audit: re-reads every manifest, sweeps the chunk files.
    sanitizer.check_store(cluster.store, time=now, deep=True)
    # All live pods consistent: nothing still SIGSTOPped.
    for index, agent in enumerate(cluster.agents):
        if index in cluster.dead_nodes:
            continue
        for pod in agent.pods.values():
            stopped = [proc.name for proc in pod.live_processes()
                       if proc.stopped]
            if stopped:
                sanitizer.record(
                    "MC-END-PAUSED",
                    f"pod {pod.name} left paused at end state: {stopped}",
                    node=pod.node.name, time=now)
    # No orphaned netfilter rules: every round is over, so any surviving
    # drop rule blackholes a pod forever.
    for node in cluster.nodes:
        for rule in list(node.stack.netfilter.rules):
            sanitizer.record(
                "MC-END-NETFILTER",
                f"orphaned netfilter rule for {rule.ip} at end state",
                node=node.name, time=now)
    # Every committed version reconstructible from surviving replicas.
    store = cluster.store
    for pod_name in sorted(store._latest):
        reachable = set(store.reconstructible_versions(pod_name))
        for version in store.versions(pod_name):
            if version not in reachable:
                sanitizer.record(
                    "MC-END-RECONSTRUCT",
                    f"committed version {pod_name}v{version} is not "
                    f"reconstructible at end state",
                    time=now)
    # checkpoint_app is synchronous, so nothing may still be in flight.
    in_flight = cluster.coordinator.in_flight_epochs()
    if in_flight:
        sanitizer.record(
            "MC-END-INFLIGHT",
            f"rounds {in_flight} still in flight at end state",
            node=cluster.coordinator_node.name, time=now)


def run_once(config: McConfig, forced: Sequence[int] = (),
             sleep: Sequence[str] = (),
             sleep_owner: Optional[str] = None,
             page_memo: Optional[Dict] = None) -> RunResult:
    """One stateless run: force ``forced``, default beyond, check.

    ``page_memo`` is the store's page-id memo (see
    :class:`~repro.cruz.storage.ImageStore`), shared by the runs of one
    exploration: every run derives the same pages, so only the first
    pays for them."""
    oracle = ExplorerOracle(
        forced, branch_scope=config.branch_scope, por=config.por,
        fault_modes=config.fault_modes,
        fault_kinds=frozenset(config.fault_kinds),
        fault_budget=config.fault_budget,
        dup_delay_s=config.dup_delay_s,
        partition_duration_s=config.partition_duration_s,
        sleep=sleep, sleep_owner=sleep_owner)
    cluster, app = _build_cluster(config, oracle, page_memo)
    committed: List[bool] = []
    aborted: List[str] = []
    error: Optional[str] = None
    try:
        cluster.run_for(config.warmup_s)
        for _ in range(config.rounds):
            cluster.run_for(config.interval_s)
            try:
                stats = cluster.checkpoint_app(app, limit=config.limit_s)
                committed.append(bool(stats.committed))
            except CoordinationError as exc:
                # An aborted round is a legal protocol outcome under
                # faults; the end-state checks decide if it was *clean*.
                committed.append(False)
                aborted.append(str(exc))
        cluster.run_for(config.settle_s)
        _end_state_checks(cluster, config)
    except ReplayDivergence:
        raise
    except Exception as exc:  # harness failure, not a protocol verdict
        error = f"{type(exc).__name__}: {exc}"
    violations = [
        {"code": v.code, "message": v.message, "node": v.node,
         "time": v.time, "epoch": v.epoch, "span": v.span,
         "span_id": v.span_id, "rendered": v.render()}
        for v in cluster.trace.sanitizer.violations]
    return RunResult(
        choices=list(oracle.trace),
        candidates=list(oracle.candidates),
        violations=violations,
        aborted_rounds=aborted,
        committed=committed,
        state_hash=state_hash(cluster) if error is None else "",
        error=error,
        tie_points=oracle.tie_points,
        ties_seen=oracle.ties_seen,
        orderings_pruned=oracle.orderings_pruned)


@dataclass
class _Item:
    """A frontier entry: a forced prefix plus sleep-set metadata."""

    choices: List[int]
    sleep: Tuple[str, ...] = ()
    sleep_owner: Optional[str] = None


@dataclass
class McReport:
    """The outcome of one bounded exploration."""

    config: McConfig
    runs: int = 0
    distinct_states: int = 0
    tie_points: int = 0
    ties_seen: int = 0
    orderings_pruned: int = 0
    orderings_branched: int = 0
    exhausted: bool = False
    truncated_states: bool = False
    truncated_depth: bool = False
    violations: List[Dict[str, Any]] = field(default_factory=list)
    counterexample: Optional[Dict[str, Any]] = None
    harness_errors: List[str] = field(default_factory=list)
    replay_divergences: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.harness_errors

    @property
    def reduction_ratio(self) -> float:
        total = self.orderings_pruned + self.orderings_branched
        return self.orderings_pruned / total if total else 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "config": self.config.to_json(),
            "runs": self.runs,
            "distinct_states": self.distinct_states,
            "tie_points": self.tie_points,
            "ties_seen": self.ties_seen,
            "orderings_pruned": self.orderings_pruned,
            "orderings_branched": self.orderings_branched,
            "reduction_ratio": round(self.reduction_ratio, 6),
            "exhausted": self.exhausted,
            "truncated_states": self.truncated_states,
            "truncated_depth": self.truncated_depth,
            "violations": self.violations,
            "counterexample": self.counterexample,
            "harness_errors": self.harness_errors,
            "replay_divergences": self.replay_divergences,
        }

    def render(self) -> str:
        if self.exhausted:
            frontier = "schedule space exhausted"
        elif self.violations and not (self.truncated_states
                                      or self.truncated_depth):
            frontier = "stopped at first violation (frontier not drained)"
        else:
            frontier = ("exploration truncated "
                        f"(states={self.truncated_states} "
                        f"depth={self.truncated_depth})")
        lines = [
            f"mc[{self.config.nodes} nodes x {self.config.rounds} "
            f"round(s), faults={list(self.config.fault_modes) or 'off'}]: "
            + ("PASS" if self.ok else "FAIL"),
            f"  runs={self.runs} distinct_states={self.distinct_states} "
            f"tie_points={self.tie_points} "
            f"pruned={self.orderings_pruned} "
            f"(reduction {self.reduction_ratio:.0%})",
            f"  {frontier}",
        ]
        for violation in self.violations:
            lines.append(f"  {violation['rendered']}")
        for err in self.harness_errors:
            lines.append(f"  harness error: {err}")
        if self.counterexample is not None:
            lines.append(
                f"  counterexample: {len(self.counterexample['choices'])} "
                "choice(s) — replay with `repro mc --replay <trace.json>`")
        return "\n".join(lines)


def _trim(choices: List[int]) -> List[int]:
    out = list(choices)
    while out and out[-1] == 0:
        out.pop()
    return out


def minimize(config: McConfig,
             result: RunResult) -> Tuple[List[int], RunResult]:
    """Greedy counterexample minimization.

    Flip each non-default choice back to 0 (latest first); keep a flip
    when the run still produces at least one violation with an original
    code.  Deterministic, bounded by 64 extra runs.
    """
    codes = set(result.violation_codes)
    choices = _trim([c.chosen for c in result.choices])
    best = result
    page_memo: Dict = {}
    budget = 64
    improved = True
    while improved and budget > 0:
        improved = False
        for index in range(len(choices) - 1, -1, -1):
            if choices[index] == 0 or budget <= 0:
                continue
            trial = choices[:index] + [0] + choices[index + 1:]
            budget -= 1
            try:
                candidate = run_once(config, trial, page_memo=page_memo)
            except ReplayDivergence:
                continue
            if candidate.error is None and \
                    codes & set(candidate.violation_codes):
                choices = _trim([c.chosen for c in candidate.choices])
                best = candidate
                improved = True
                break
    return choices, best


def counterexample_json(config: McConfig, choices: List[int],
                        result: RunResult) -> Dict[str, Any]:
    return {
        "version": 1,
        "config": config.to_json(),
        "choices": [c.to_json() for c in result.choices],
        "forced": list(choices),
        "violations": result.violations,
        "state_hash": result.state_hash,
    }


def replay(trace: Dict[str, Any]) -> Dict[str, Any]:
    """Re-execute a counterexample trace; verify bit-identity.

    Returns ``{"identical": bool, "result": RunResult-ish, ...}`` —
    identical means the same violation codes *and* the same terminal
    state hash as recorded.
    """
    config = McConfig.from_json(trace.get("config", {}))
    forced = list(trace.get("forced", ()))
    result = run_once(config, forced)
    recorded_codes = sorted({v["code"] for v in trace.get("violations",
                                                          ())})
    identical = (result.error is None
                 and result.violation_codes == recorded_codes
                 and result.state_hash == trace.get("state_hash"))
    return {
        "identical": identical,
        "violation_codes": result.violation_codes,
        "recorded_codes": recorded_codes,
        "state_hash": result.state_hash,
        "recorded_state_hash": trace.get("state_hash"),
        "violations": result.violations,
        "error": result.error,
    }


def explore(config: McConfig,
            stop_on_violation: bool = True) -> McReport:
    """Bounded DFS over the schedule-and-fault choice tree."""
    report = McReport(config=config)
    frontier: List[_Item] = [_Item([])]
    hashes: Dict[str, int] = {}
    page_memo: Dict = {}
    while frontier:
        if report.runs >= config.max_states:
            report.truncated_states = True
            break
        item = frontier.pop()
        try:
            result = run_once(config, item.choices, item.sleep,
                              item.sleep_owner, page_memo)
        except ReplayDivergence as exc:
            report.replay_divergences += 1
            report.harness_errors.append(str(exc))
            continue
        report.runs += 1
        report.tie_points += result.tie_points
        report.ties_seen += result.ties_seen
        report.orderings_pruned += result.orderings_pruned
        if result.error is not None:
            report.harness_errors.append(
                f"run {report.runs} (forced={item.choices}): "
                f"{result.error}")
            continue
        hashes[result.state_hash] = hashes.get(result.state_hash, 0) + 1
        if result.violations and not report.violations:
            choices, best = minimize(config, result)
            report.violations = best.violations
            report.counterexample = counterexample_json(
                config, choices, best)
            if stop_on_violation:
                break
        depth = min(len(result.choices), config.max_depth)
        if len(result.choices) > config.max_depth and any(
                c.options > 1 for c in result.choices[config.max_depth:]):
            report.truncated_depth = True
        for index in range(len(item.choices), depth):
            choice = result.choices[index]
            report.orderings_branched += choice.options
            base = [c.chosen for c in result.choices[:index]]
            meta = result.candidates[index]
            # Push high alternatives first so the DFS pops low ones
            # first: when branch j runs, every branch < j (incl. the
            # default) is fully explored — the sleep-set precondition.
            for alt in range(choice.options - 1, -1, -1):
                if alt == choice.chosen:
                    continue
                if choice.kind == "tie" and alt < len(meta):
                    sleep = tuple(m[0] for m in meta[:alt])
                    owner = meta[alt][1]
                else:
                    sleep, owner = (), None
                frontier.append(_Item(base + [alt], sleep, owner))
    report.distinct_states = len(hashes)
    report.exhausted = (not frontier and not report.truncated_states
                        and not report.truncated_depth)
    return report


def load_trace(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)

"""Runtime invariant sanitizer (``CRUZ_SANITIZE=1`` / ``repro sanitize``).

A :class:`Sanitizer` hangs off the cluster telemetry hub
(``Trace.sanitizer``) and hosts pluggable invariant checkers that the
stack calls from its existing hooks:

=================  ====================================================
SAN-TCP-SEQ        per-segment §5.1 sequence invariants in
                   ``tcp/connection.py`` (``snd_una <= snd_nxt``,
                   ``rcv_nxt`` never rolls back, receive buffer and TCB
                   agree on ``rcv_nxt``)
SAN-REFCOUNT       chunk-store refcount audit in ``cruz/storage.py``:
                   no orphan chunk files on any shard, no dangling
                   references, no negative counts, in-memory counts
                   match the manifests on disk; under the sharded
                   backend the deep audit also re-derives every
                   chunk's surviving replica set, so a chunk with no
                   live copy on any node is a dangling reference even
                   if its refcount agrees
SAN-WAL-EPOCH      WAL epoch monotonicity in the coordinator (a round
                   must start with an epoch above every logged one)
SAN-NETFILTER-LEAK end-of-round drop-rule leak checks in
                   ``cruz/agent.py`` (no rule matching the pod survives
                   the round's ``finally``)
SAN-MEM-RESTORE    restored address spaces in ``zap/restart.py`` must
                   carry exactly the regions and page write-versions
                   the image captured (catches dirty-bit bookkeeping
                   drift between checkpoint and restore)
SAN-POD-PAUSE      pod pause/resume pairing at pod exit: no live
                   process may still be SIGSTOPped when the pod is
                   uninstalled
SAN-FD-LEAK        per-process fd table must be empty after kernel
                   cleanup (``simos/kernel.py``)
SAN-SHM-LEAK       no SysV shm/sem segment in the pod's key namespace
                   may survive pod exit
=================  ====================================================

Every violation is annotated with the enclosing span from the
:class:`repro.sim.spans.SpanRecorder` so a report reads "refcount
mismatch ... inside agent.local[epoch=3] on n2".
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

ENV_FLAG = "CRUZ_SANITIZE"

#: Sanitizers created from the environment flag (not explicitly by test
#: code) register here so the ``--cruz-sanitize`` pytest fixture can
#: assert that no violations accumulated during a test.  Negative-case
#: tests construct their sanitizers explicitly and stay out of this
#: list.
ACTIVE: List["Sanitizer"] = []


def env_enabled() -> bool:
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


@dataclass(frozen=True)
class Violation:
    """One invariant violation, with its telemetry span context."""

    code: str
    message: str
    node: str = ""
    time: float = 0.0
    #: Name/id of the innermost open span on ``node`` when the checker
    #: fired (e.g. ``agent.local``), or "" outside any span.
    span: str = ""
    span_id: int = 0
    epoch: Optional[int] = None
    details: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        where = f" node={self.node}" if self.node else ""
        span = f" span={self.span}#{self.span_id}" if self.span else ""
        epoch = f" epoch={self.epoch}" if self.epoch is not None else ""
        return (f"[{self.code}] t={self.time:.6f}{where}{epoch}{span}: "
                f"{self.message}")


class Sanitizer:
    """Collects invariant violations from the runtime checkers.

    The checkers are deliberately cheap and read-only: they observe the
    structures the stack already maintains and never mutate simulation
    state, so a sanitized run is behaviourally identical to a plain one.
    """

    def __init__(self, trace=None):
        self.trace = trace
        self.violations: List[Violation] = []

    # -- reporting -------------------------------------------------------

    def _span_context(self, node: str) -> Tuple[str, int, Optional[int]]:
        spans = getattr(self.trace, "spans", None)
        if spans is None:
            return "", 0, None
        current = spans.current(node) if node else None
        if current is None:
            # No node of our own (the shared store) or nothing open on
            # that node: attribute the violation to the deepest span in
            # flight anywhere (e.g. the coordinator's round).
            current = spans.innermost()
        if current is None:
            return "", 0, None
        epoch = spans.effective_attr(current, "epoch")
        return current.name, current.span_id, epoch

    def record(self, code: str, message: str, node: str = "",
               time: float = 0.0, epoch: Optional[int] = None,
               **details: Any) -> Violation:
        span_name, span_id, span_epoch = self._span_context(node)
        violation = Violation(
            code=code, message=message, node=node, time=time,
            span=span_name, span_id=span_id,
            epoch=epoch if epoch is not None else span_epoch,
            details=details)
        self.violations.append(violation)
        if self.trace is not None:
            self.trace.metrics.counter("sanitizer.violations").inc(
                label=code)
            self.trace.spans.instant("sanitizer.violation", node=node,
                                     code=code, message=message)
        return violation

    def by_code(self, code: str) -> List[Violation]:
        return [v for v in self.violations if v.code == code]

    def report(self) -> str:
        if not self.violations:
            return "sanitizer: clean (0 violations)"
        lines = [f"sanitizer: {len(self.violations)} violation(s)"]
        lines.extend(v.render() for v in self.violations)
        return "\n".join(lines)

    # -- checkers --------------------------------------------------------

    def check_tcp_segment(self, conn, time: float = 0.0) -> None:
        """§5.1 sequence invariants, evaluated after every segment."""
        tcb = conn.tcb
        node = getattr(conn, "telemetry_node", "")
        if tcb.snd_una > tcb.snd_nxt:
            self.record(
                "SAN-TCP-SEQ",
                f"{conn.name}: snd_una {tcb.snd_una} > snd_nxt "
                f"{tcb.snd_nxt}", node=node, time=time, conn=conn.name)
        seen = getattr(conn, "_san_rcv_seen", None)
        if seen is not None and tcb.rcv_nxt < seen:
            self.record(
                "SAN-TCP-SEQ",
                f"{conn.name}: rcv_nxt rolled back {seen} -> "
                f"{tcb.rcv_nxt}", node=node, time=time, conn=conn.name)
        conn._san_rcv_seen = tcb.rcv_nxt
        if conn.receive_buffer.rcv_nxt != tcb.rcv_nxt:
            self.record(
                "SAN-TCP-SEQ",
                f"{conn.name}: receive buffer rcv_nxt "
                f"{conn.receive_buffer.rcv_nxt} != tcb rcv_nxt "
                f"{tcb.rcv_nxt}", node=node, time=time, conn=conn.name)

    def check_refcount_underflow(self, cid: str, count: int) -> None:
        """Called by ``ImageStore._decref`` on a zero/negative count."""
        self.record(
            "SAN-REFCOUNT",
            f"decref of chunk {cid[:12]} with refcount {count}",
            cid=cid, refcount=count)

    def check_store(self, store, time: float = 0.0,
                    context: str = "", deep: bool = False) -> None:
        """Refcount audit of an :class:`ImageStore` (see its ``audit``
        method); ``deep=True`` re-reads every manifest and also checks
        for missing/orphan chunk files — per shard under the sharded
        backend, where "missing" means no live replica anywhere."""
        for problem in store.audit(deep=deep):
            kind = problem.pop("kind")
            cid = problem.get("cid", "")
            self.record(
                "SAN-REFCOUNT",
                f"{kind} for chunk {cid[:12]}"
                + (f" after {context}" if context else ""),
                time=time, kind=kind, **problem)

    def check_wal_epoch(self, epoch: int, logged_max: int, node: str = "",
                        time: float = 0.0) -> None:
        """A starting round's epoch must exceed every WAL-logged epoch."""
        if epoch <= logged_max:
            self.record(
                "SAN-WAL-EPOCH",
                f"round epoch {epoch} not above WAL max {logged_max}",
                node=node, time=time, epoch=epoch, logged_max=logged_max)

    def check_netfilter_round_end(self, node, pod_ip,
                                  epoch: Optional[int] = None,
                                  time: float = 0.0) -> None:
        """After a round's ``finally``, no drop rule may match the pod."""
        leaked = [rule.rule_id for rule in node.stack.netfilter.rules
                  if rule.ip is not None and rule.ip == pod_ip]
        if leaked:
            self.record(
                "SAN-NETFILTER-LEAK",
                f"{len(leaked)} drop rule(s) for {pod_ip} survived the "
                f"round", node=node.name, time=time, epoch=epoch,
                rule_ids=leaked, pod_ip=str(pod_ip))

    def check_restored_memory(self, image, pod, time: float = 0.0) -> None:
        """After a restart, every restored address space must carry
        exactly the regions and page write-versions the image captured —
        the invariant an out-of-order dirty-bit clear (retiring bits
        before the store commit) would eventually break."""
        captured = {proc_image.vpid: proc_image.memory
                    for proc_image in image.processes}
        for proc in pod.live_processes():
            vpid = pod.vpid_of(proc.pid)
            source = captured.get(vpid)
            if source is None:
                self.record(
                    "SAN-MEM-RESTORE",
                    f"pod {pod.name}: restored vpid {vpid} has no "
                    f"captured memory image", node=pod.node.name,
                    time=time, pod=pod.name, vpid=vpid)
                continue
            restored = proc.memory
            if restored.page_versions != source.page_versions or \
                    {n: (r.nbytes, r.base_page)
                     for n, r in restored.regions.items()} != \
                    {n: (r.nbytes, r.base_page)
                     for n, r in source.regions.items()}:
                self.record(
                    "SAN-MEM-RESTORE",
                    f"pod {pod.name} vpid {vpid}: restored memory "
                    f"diverges from the captured image",
                    node=pod.node.name, time=time, pod=pod.name,
                    vpid=vpid)

    def check_process_exit(self, node_name: str, proc,
                           time: float = 0.0) -> None:
        """After kernel cleanup every descriptor must be closed."""
        open_fds = list(proc.fds.fds())
        if open_fds:
            self.record(
                "SAN-FD-LEAK",
                f"process {proc.name} (pid {proc.pid}) exited with "
                f"{len(open_fds)} open fd(s): {open_fds}",
                node=node_name, time=time, pid=proc.pid, fds=open_fds)

    def check_pod_exit(self, pod, time: float = 0.0) -> None:
        """Pause/resume pairing and IPC reclamation at pod exit."""
        node = pod.node
        stopped = [proc.name for proc in pod.live_processes()
                   if proc.stopped]
        if stopped:
            self.record(
                "SAN-POD-PAUSE",
                f"pod {pod.name} exiting with live stopped process(es) "
                f"{stopped} (pauses={pod.pause_count} "
                f"resumes={pod.resume_count})",
                node=node.name, time=time, pod=pod.name,
                stopped=stopped, pause_count=pod.pause_count,
                resume_count=pod.resume_count)
        # After release_ipc, nothing in the pod's key namespace may
        # survive in the node-wide SysV tables.
        shm_left = [segment.shmid for segment in node.ipc.shm.values()
                    if segment.key >> 32 == pod.pod_id]
        sem_left = [sem.semid for sem in node.ipc.sem.values()
                    if sem.key >> 32 == pod.pod_id]
        if shm_left or sem_left:
            self.record(
                "SAN-SHM-LEAK",
                f"pod {pod.name} exit left shm={shm_left} "
                f"sem={sem_left} in the node IPC tables",
                node=node.name, time=time, pod=pod.name,
                shm=shm_left, sem=sem_left)


def install(trace, register: bool = False) -> Sanitizer:
    """Attach a fresh sanitizer to a telemetry hub.

    ``register=True`` (used for environment-driven installs) adds it to
    :data:`ACTIVE` for the pytest fixture to inspect.
    """
    sanitizer = Sanitizer(trace)
    trace.sanitizer = sanitizer
    if register:
        ACTIVE.append(sanitizer)
    return sanitizer


# -- `repro sanitize <workload>` ----------------------------------------


def _workload_fig5_small(**overrides):
    return _run_fig5_workload(nodes=2, rounds=2, interval_s=0.2,
                              memory_mb=4.0, **overrides)


def _workload_fig5(**overrides):
    return _run_fig5_workload(nodes=4, rounds=3, interval_s=1.0,
                              memory_mb=32.0, **overrides)


def _workload_crash_restart(**overrides):
    return _run_fig5_workload(nodes=2, rounds=1, interval_s=0.2,
                              memory_mb=4.0, crash=True, **overrides)


#: Name -> runner; each returns the cluster it drove (with
#: ``cluster.trace.sanitizer`` holding the findings).
WORKLOADS = {
    "fig5-small": _workload_fig5_small,
    "fig5": _workload_fig5,
    "crash-restart": _workload_crash_restart,
}


def _run_fig5_workload(nodes: int, rounds: int, interval_s: float,
                       memory_mb: float, crash: bool = False):
    from repro.apps.slm import run_slm_rounds
    from repro.cruz.cluster import CruzCluster

    cluster = CruzCluster(nodes, sanitize=True)
    app, _stats = run_slm_rounds(cluster, nodes, memory_mb, rounds=rounds,
                                 interval_s=interval_s)
    if crash:
        cluster.crash_app(app)
        cluster.restart_app(app)
        cluster.run_for(interval_s)
    # One deep audit at the end of the workload: re-derive every
    # refcount from the manifests on disk and sweep for missing/orphan
    # chunk files (the per-save audits are shallow).
    cluster.trace.sanitizer.check_store(
        cluster.store, time=cluster.sim.now, context="final", deep=True)
    return cluster


def run_workload(name: str):
    """Drive one named workload under the sanitizer; returns the
    cluster (``cluster.trace.sanitizer`` carries the verdict)."""
    return WORKLOADS[name]()

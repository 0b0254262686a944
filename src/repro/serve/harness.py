"""The serving-under-SLO harness: proxy + replicated kv fleet + sessionful
clients, disrupted by everything Cruz has.

Topology: backend ``i`` is a single-pod app ``kv{i}`` on node ``i``
(:class:`~repro.apps.kvserver.KvServer`), the proxy runs in its own
pod on the last app node, and the session clients live on the
coordinator node — outside any pod, never checkpointed, exactly like the
paper's "customer on another machine" (§1). Disruptions run in sequence,
each tagged as an SLO window: coordinated checkpoint **rounds** (the
proxy pod included), a backend-node **failover** (power loss; the
supervisor restores from the last committed image at the same pod IP and
the proxy log-replays the gap), a **live migration** of a backend pod, a
silent **kill-backend** pod destruction (chaos mode), and a **canary**
rolling restore (optionally forced to diverge and roll back).

:func:`serve_determinism` runs the whole thing twice — fifo vs lifo
event tiebreak — and structurally diffs the reports: the SLO numbers a
client experiences must be *bit-identical* functions of the seed.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.apps.kvproxy import KvProxy
from repro.apps.kvserver import (KvServer, KvSessionClient,
                                 build_session_script)
from repro.cruz.cluster import CruzCluster
from repro.cruz.faults import ChaosInjector
from repro.errors import RolloutError
from repro.serve.rollout import AdminClient, canary_restore, restore_pod
from repro.serve.slo import SloRecorder


def _pod_alive(cluster, pod_name: str) -> bool:
    for agent in cluster.agents:
        pod = agent.pods.get(pod_name)
        if pod is not None and any(p.is_alive for p in pod.processes()):
            return True
    return False


def _store_digest(store: Dict) -> str:
    blob = repr(sorted(store.items())).encode()
    return hashlib.sha256(blob).hexdigest()


def run_serve(backends: int = 3, clients: int = 6, sessions: int = 12,
              requests_per_session: int = 5, rounds: int = 2,
              failover: bool = False, migrate: bool = False,
              canary: bool = False, kill_backend: bool = False,
              canary_divergence: bool = False, seed: int = 7,
              tiebreak: str = "fifo", think_time_s: float = 0.004,
              deadline_s: float = 1.5, write_ratio: float = 0.5,
              limit_s: float = 300.0) -> dict:
    """One full serving run; returns the SLO report + end-state audit."""
    if backends < 2:
        raise ValueError("the serving fleet needs at least 2 backends")
    cluster = CruzCluster(backends + 1, seed=seed, supervise=True,
                          tiebreak=tiebreak)
    spans = cluster.trace.spans
    chaos = ChaosInjector(cluster, rng=cluster.random.stream("serve-chaos"))
    recorder = SloRecorder(metrics=cluster.trace.metrics)

    kv_apps = [cluster.launch_app(f"kv{i}", [KvServer()],
                                  node_indices=[i])
               for i in range(backends)]
    backend_ips = [str(app.pods[0].ip) for app in kv_apps]
    proxy_app = cluster.launch_app(
        "proxy", [KvProxy(backend_ips,
                          rng=cluster.random.stream("serve-proxy"))],
        node_indices=[backends])
    proxy_ip = str(proxy_app.pods[0].ip)
    proxy = cluster.app_programs(proxy_app)[0]
    all_apps = kv_apps + [proxy_app]

    def fleet_up() -> bool:
        return all(b["state"] == "up" for b in proxy.backends)

    cluster.run_until(fleet_up, limit=20.0, step=0.01)

    @contextmanager
    def window(name):
        """Span-wrapped SLO window context."""
        start = cluster.sim.now
        span = spans.begin(f"serve.{name}")
        try:
            yield
        finally:
            spans.end(span)
            recorder.add_window(name, start, cluster.sim.now)

    # Baseline images: every later restore (failover, kill, canary
    # rollback) needs a committed version to come back from.
    with window("baseline"):
        for app in all_apps:
            cluster.checkpoint_app(app)

    procs = []
    programs = []
    for c in range(clients):
        script = build_session_script(
            cluster.random.stream(f"serve-script-{c}"), c, sessions,
            requests_per_session, write_ratio=write_ratio)
        program = KvSessionClient(
            proxy_ip, script, cluster.random.stream(f"serve-client-{c}"),
            deadline_s=deadline_s,
            think_time_s=think_time_s)
        procs.append(cluster.coordinator_node.spawn(program))
        programs.append(program)
        cluster.run_for(0.0037)

    for r in range(rounds):
        cluster.run_for(0.3)
        with window(f"round{r}"):
            for app in all_apps:
                cluster.checkpoint_app(app)

    if kill_backend:
        victim = backends - 1
        pod_name = f"kv{victim}-r0"
        node = kv_apps[victim].pods[0].node
        with window("kill-backend"):
            chaos.schedule_pod_kill(pod_name, at=cluster.sim.now + 0.02)
            # Ride out detection (down_after_s of silence) plus the shed/
            # re-dispatch storm before restoring from the latest image.
            cluster.run_for(1.2)
            restore_pod(cluster, kv_apps[victim], pod_name, node)
            cluster.run_until(
                lambda: proxy.backends[victim]["state"] == "up",
                limit=20.0, step=0.01)

    if failover:
        victim_node, victim = 1, 1
        pod_name = f"kv{victim}-r0"
        with window("failover"):
            chaos.schedule_node_crash(victim_node,
                                      at=cluster.sim.now + 0.02)
            # Run past the crash instant first — the recovery predicate
            # below is trivially true while the victim is still healthy.
            cluster.run_for(0.05)
            cluster.run_until(
                lambda: (_pod_alive(cluster, pod_name)
                         and not cluster.supervisor.failover_active(
                             f"kv{victim}")
                         and proxy.backends[victim]["state"] == "up"),
                limit=60.0, step=0.01)
        cluster.revive_node(victim_node)

    if migrate:
        mover = kv_apps[0]
        target = 2 if backends > 2 else backends  # proxy node as last resort
        with window("migrate"):
            new_pod = cluster.migrate_pod(mover.pods[0], target, live=True)
            mover.pods = [new_pod]
            cluster.run_for(0.2)

    canary_report: Optional[dict] = None
    if canary:
        canary_index = backends - 1
        admin = AdminClient(cluster, proxy_ip)
        probe_key = f"canary.kv{canary_index}"
        corrupt = (chaos.canary_divergence(probe_key)
                   if canary_divergence else None)
        with window("canary"):
            try:
                rollout = canary_restore(
                    cluster, admin, kv_apps[canary_index], canary_index,
                    probe_key=probe_key, corrupt=corrupt)
                canary_report = {
                    "promoted": rollout.promoted,
                    "from_version": rollout.from_version,
                    "to_version": rollout.to_version,
                    "steps": rollout.steps,
                    "drain_s": rollout.drain_s,
                    "restore_s": rollout.restore_s,
                }
            except RolloutError as error:
                canary_report = {
                    "promoted": False,
                    "stage": error.stage,
                    "key": error.key,
                    "rolled_back": error.rolled_back,
                    "error": str(error),
                }

    # Evaluated after every timestamp batch: drop the finished clients
    # instead of asking all of them again each time.
    running = list(procs)

    def clients_done() -> bool:
        while running and not running[-1].is_alive:
            running.pop()
        return not running

    cluster.run_until(clients_done, limit=limit_s, step=0.01)
    cluster.run_for(0.3)
    cluster.run_until(fleet_up, limit=20.0, step=0.01)
    cluster.run_for(0.3)  # let final sync replays land

    for c, program in enumerate(programs):
        recorder.ingest_client(c, program)
    slo = recorder.report()

    digests = [_store_digest(cluster.app_programs(app)[0].store)
               for app in kv_apps]
    client_exits = [p.exit_code for p in procs]
    terminal_errors = slo["overall"]["by_status"].get("error", 0)
    ok = (all(code == 0 for code in client_exits)
          and terminal_errors == 0
          and len(set(digests)) == 1)

    return {
        "workload": {
            "backends": backends, "clients": clients,
            "sessions": sessions,
            "requests_per_session": requests_per_session,
            "rounds": rounds, "failover": failover, "migrate": migrate,
            "canary": canary, "kill_backend": kill_backend,
            "canary_divergence": canary_divergence, "seed": seed,
            "write_ratio": write_ratio,
        },
        "tiebreak": tiebreak,
        "ok": ok,
        "client_exits": client_exits,
        "client_errors": terminal_errors,
        "slo": slo,
        "proxy": proxy.counters(),
        "canary": canary_report,
        "chaos_log": list(chaos.log),
        "replicas_consistent": len(set(digests)) == 1,
        "store_digest": digests[0],
        "store_size": len(cluster.app_programs(kv_apps[0])[0].store),
        "sim_time_s": round(cluster.sim.now, 12),
    }


def _digest(report: dict) -> dict:
    """The tiebreak-comparable projection of one run's report."""
    return {key: report[key] for key in
            ("ok", "client_exits", "client_errors", "slo", "proxy",
             "canary", "chaos_log", "replicas_consistent",
             "store_digest", "store_size", "sim_time_s")}


def serve_determinism(**kwargs) -> dict:
    """Run the same serving workload under fifo and lifo tiebreak; the
    client-visible report must match bit for bit."""
    from repro.analysis.determinism import tiebreak_diff

    fifo, lifo, diffs = tiebreak_diff(
        lambda tiebreak: run_serve(tiebreak=tiebreak, **kwargs),
        "serve", project=_digest)
    return {
        "deterministic": not diffs,
        "diffs": diffs[:20],
        "fifo": fifo,
        "lifo": lifo,
    }


def render_report(report: dict,
                  divergences: Optional[List[str]] = None) -> List[str]:
    """Human-readable summary of one gauntlet report (``repro serve``,
    ``chaos --kill-backend`` and ``bench slo`` all print this).

    ``divergences`` is the fifo/lifo diff when one was run: ``None``
    prints no determinism line, empty prints PASS.
    """
    slo = report["slo"]
    overall = slo["overall"]
    lines = [
        f"requests: {overall['requests']} from {slo['clients']} "
        f"client(s)  "
        + (f"p50 {overall['p50_s'] * 1e3:.2f}ms  "
           f"p99 {overall['p99_s'] * 1e3:.2f}ms  "
           f"max {overall['max_s'] * 1e3:.2f}ms"
           if overall["p99_s"] is not None else "(no samples)"),
        f"status: {overall['by_status']}  "
        f"extra attempts: {overall['extra_attempts']}",
    ]
    for window in slo["windows"]:
        p99 = window["p99_s"]
        p99_txt = f"p99 {p99 * 1e3:8.2f}ms" if p99 is not None \
            else "      (idle)"
        lines.append(f"  {window['window']:>14}: "
                     f"{window['requests']:3d} req  {p99_txt}  "
                     f"{window['by_status']}")
    lines.append(f"client counters: {slo['counters']}")
    proxy = report["proxy"]
    lines.append(f"proxy: writes={proxy['writes']} "
                 f"reads={proxy['reads']} sheds={proxy['sheds']} "
                 f"dups_served={proxy['dups_served']} "
                 f"sync_replays={proxy['sync_replays']} "
                 f"reconnects={proxy['backend_reconnects']}")
    if report["canary"] is not None:
        lines.append(f"canary: {report['canary']}")
    lines.append(
        f"replicas consistent: {report['replicas_consistent']}  "
        f"(store digest {report['store_digest'][:12]}...)")
    lines.append(f"client exits: {report['client_exits']}  "
                 f"client-visible errors: {report['client_errors']}")
    if divergences:
        lines.append(f"determinism: FAIL — {divergences[:3]}")
    elif divergences is not None:
        lines.append("determinism: PASS (fifo == lifo)")
    return lines

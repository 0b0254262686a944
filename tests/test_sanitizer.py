"""Runtime sanitizer negative cases: each invariant, deliberately broken.

Every cluster here is built with an explicit ``sanitize=True`` so its
sanitizer stays out of ``repro.analysis.sanitize.ACTIVE`` — these tests
*want* violations and must not trip the ``--cruz-sanitize`` fixture.
"""

import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import Sanitizer, Violation, run_workload
from repro.apps.slm import slm_factory
from repro.cluster import Cluster
from repro.cruz.cluster import CruzCluster
from repro.zap.pod import Pod
from repro.zap.virtualization import install_pod, uninstall_pod

from repro.apps.kvserver import KvClient, KvServer

from tests.programs import ShmIncrementer, Sleeper


def make_sanitized_cluster(nodes=2):
    cluster = CruzCluster(nodes, sanitize=True)
    app = cluster.launch_app_factory(
        "slm", nodes,
        slm_factory(nodes, global_rows=8 * nodes, cols=32, steps=100000,
                    total_work_s=1e6, memory_mb_per_rank=4.0))
    cluster.run_for(0.5)
    return cluster, app


def make_pod(cluster, node_index=0, name="pod0"):
    node = cluster.nodes[node_index]
    pod = Pod(node, name, ip=cluster.allocate_pod_ip(),
              mac=cluster.allocate_vif_mac())
    install_pod(pod)
    return pod


# -- wiring ----------------------------------------------------------------


def test_explicit_sanitize_does_not_register_globally():
    sanitize.ACTIVE.clear()
    cluster = Cluster(1, sanitize=True)
    assert cluster.trace.sanitizer is not None
    assert cluster.trace.sanitizer not in sanitize.ACTIVE


def test_env_flag_installs_and_registers(monkeypatch):
    monkeypatch.setenv(sanitize.ENV_FLAG, "1")
    sanitize.ACTIVE.clear()
    cluster = Cluster(1)
    assert cluster.trace.sanitizer is not None
    assert cluster.trace.sanitizer in sanitize.ACTIVE
    sanitize.ACTIVE.clear()


def test_sanitizer_off_by_default(monkeypatch):
    monkeypatch.delenv(sanitize.ENV_FLAG, raising=False)
    assert Cluster(1).trace.sanitizer is None
    monkeypatch.setenv(sanitize.ENV_FLAG, "0")
    assert Cluster(1).trace.sanitizer is None


def test_violation_render_carries_span_context():
    violation = Violation(code="SAN-REFCOUNT", message="boom", node="n1",
                          time=1.5, span="zap.store_write", span_id=7,
                          epoch=3)
    text = violation.render()
    assert "[SAN-REFCOUNT]" in text
    assert "node=n1" in text
    assert "epoch=3" in text
    assert "span=zap.store_write#7" in text


# -- clean baseline --------------------------------------------------------


def test_sanitized_round_is_clean():
    cluster, app = make_sanitized_cluster()
    cluster.checkpoint_app(app)
    assert cluster.trace.sanitizer.violations == []
    assert cluster.trace.sanitizer.report() == \
        "sanitizer: clean (0 violations)"


def test_crash_restart_workload_is_clean():
    cluster = run_workload("crash-restart")
    assert cluster.trace.sanitizer.violations == []


# -- SAN-REFCOUNT ----------------------------------------------------------


def test_corrupted_refcount_is_flagged_with_span_context():
    cluster, app = make_sanitized_cluster()
    cluster.checkpoint_app(app)
    sanitizer = cluster.trace.sanitizer
    assert sanitizer.violations == []
    cid = next(iter(cluster.store.refcounts()))
    cluster.store._refcounts[cid] += 5
    cluster.run_for(0.2)
    cluster.checkpoint_app(app)
    hits = sanitizer.by_code("SAN-REFCOUNT")
    assert any(v.details.get("kind") == "refcount_mismatch"
               and v.details.get("cid") == cid for v in hits)
    mismatch = next(v for v in hits
                    if v.details.get("kind") == "refcount_mismatch")
    # The audit fired during the second round's store write: the
    # violation carries the enclosing span and its inherited epoch.
    assert mismatch.span == "zap.store_write"
    assert mismatch.epoch == 2


def test_deep_audit_spots_missing_chunk_file():
    cluster, app = make_sanitized_cluster()
    cluster.checkpoint_app(app)
    sanitizer = cluster.trace.sanitizer
    store = cluster.store
    cid = next(iter(store.refcounts()))
    # Lose every replica of one chunk behind the store's back.
    for node in store.backend.holders(cid):
        store.backend.delete_on(node, cid)
    assert store.audit() == []  # the shallow audit only checks counts
    sanitizer.check_store(store, time=cluster.sim.now, deep=True)
    hits = sanitizer.by_code("SAN-REFCOUNT")
    assert any(v.details.get("kind") == "missing_chunk"
               and v.details.get("cid") == cid for v in hits)


def test_decref_underflow_is_flagged():
    cluster, _app = make_sanitized_cluster()
    cluster.store._decref("no-such-chunk")
    hits = cluster.trace.sanitizer.by_code("SAN-REFCOUNT")
    assert len(hits) == 1
    assert hits[0].details["refcount"] == 0


# -- SAN-TCP-SEQ -----------------------------------------------------------


def test_broken_tcp_invariant_is_flagged():
    cluster = Cluster(2, time_wait_s=0.5, sanitize=True)
    pod = make_pod(cluster, 0, "kv")
    pod.spawn(KvServer())
    requests = [{"op": "put", "key": f"k{i}", "value": i}
                for i in range(500)]
    cluster.nodes[1].spawn(KvClient(str(pod.ip), requests,
                                    think_time_s=0.002))
    cluster.run_for(0.15)  # part-way through the request stream
    connections = list(cluster.nodes[0].stack.tcp.connections.values())
    assert connections, "the kv pair should have a live connection"
    for conn in connections:
        # "acknowledged beyond what was ever sent" — impossible state.
        conn.tcb.snd_una = conn.tcb.snd_nxt + 4096
    cluster.run_for(0.2)
    hits = cluster.trace.sanitizer.by_code("SAN-TCP-SEQ")
    assert hits
    assert hits[0].node == cluster.nodes[0].name
    assert "snd_una" in hits[0].message
    assert hits[0].details["conn"] == connections[0].name


# -- SAN-WAL-EPOCH ---------------------------------------------------------


def test_wal_epoch_regression_is_flagged():
    sanitizer = Sanitizer()
    sanitizer.check_wal_epoch(3, logged_max=5, node="coord", time=1.0)
    sanitizer.check_wal_epoch(6, logged_max=5, node="coord", time=2.0)
    hits = sanitizer.by_code("SAN-WAL-EPOCH")
    assert len(hits) == 1
    assert hits[0].epoch == 3
    assert hits[0].details["logged_max"] == 5


# -- SAN-NETFILTER-LEAK ----------------------------------------------------


def test_leaked_netfilter_rule_is_flagged_at_round_end():
    cluster, app = make_sanitized_cluster()
    pod = app.pods[0]
    rule_id = pod.node.stack.netfilter.drop_all_for(pod.ip)
    cluster.checkpoint_app(app)
    hits = cluster.trace.sanitizer.by_code("SAN-NETFILTER-LEAK")
    assert hits
    leak = hits[0]
    assert rule_id in leak.details["rule_ids"]
    assert leak.details["pod_ip"] == str(pod.ip)
    assert leak.node == pod.node.name
    assert leak.epoch == 1


# -- SAN-POD-PAUSE / SAN-SHM-LEAK / SAN-FD-LEAK ---------------------------


def test_pod_exiting_while_stopped_is_flagged():
    cluster = Cluster(1, sanitize=True)
    pod = make_pod(cluster)
    pod.spawn(Sleeper(1000.0))
    cluster.run_for(0.1)
    pod.stop_all()
    uninstall_pod(pod)
    hits = cluster.trace.sanitizer.by_code("SAN-POD-PAUSE")
    assert len(hits) == 1
    assert hits[0].details["pause_count"] == 1
    assert hits[0].details["resume_count"] == 0


def test_balanced_pod_exit_is_clean():
    cluster = Cluster(1, sanitize=True)
    pod = make_pod(cluster)
    pod.spawn(Sleeper(1000.0))
    cluster.run_for(0.1)
    pod.stop_all()
    pod.continue_all()
    pod.kill_all()
    cluster.run_for(0.1)
    uninstall_pod(pod)
    assert cluster.trace.sanitizer.violations == []


def test_shm_segment_surviving_pod_exit_is_flagged():
    cluster = Cluster(1, sanitize=True)
    pod = make_pod(cluster)
    pod.spawn(ShmIncrementer(key=5, rounds=3))
    cluster.run_for(0.5)
    sanitizer = cluster.trace.sanitizer
    # Before the kernel's pod-exit reclamation the namespaced segment is
    # still in the node table: the checker must call it a leak.
    sanitizer.check_pod_exit(pod, time=cluster.sim.now)
    assert len(sanitizer.by_code("SAN-SHM-LEAK")) == 1
    # The real exit path reclaims the namespace first — no new leak.
    pod.kill_all()
    cluster.run_for(0.1)
    uninstall_pod(pod)
    assert len(sanitizer.by_code("SAN-SHM-LEAK")) == 1
    assert not any(segment.key >> 32 == pod.pod_id
                   for segment in cluster.nodes[0].ipc.shm.values())


def test_fd_leak_checker_flags_open_descriptors():
    class _Fds:
        @staticmethod
        def fds():
            return [3, 7]

    class _Proc:
        name = "leaky"
        pid = 42
        fds = _Fds()

    sanitizer = Sanitizer()
    sanitizer.check_process_exit("n1", _Proc(), time=1.0)
    hits = sanitizer.by_code("SAN-FD-LEAK")
    assert len(hits) == 1
    assert hits[0].details["fds"] == [3, 7]


def test_unknown_workload_raises():
    with pytest.raises(KeyError):
        run_workload("bogus")

"""Operator tooling: ps/netstat/pod/round reports."""

from repro.apps.kvserver import KvClient, KvServer
from repro.bench.harness import render_table
from repro.cruz.cluster import CruzCluster
from repro.tools.inspect import netstat, pod_report, ps, round_report


def serving_cluster():
    cluster = CruzCluster(2, time_wait_s=0.5)
    pod = cluster.create_pod(0, "kv")
    pod.spawn(KvServer())
    client = cluster.nodes[1].spawn(
        KvClient(str(pod.ip),
                 [{"op": "put", "key": "k", "value": 1}] * 200,
                 think_time_s=0.01))
    cluster.run_for(0.3)
    return cluster, pod, client


def test_ps_shows_pod_and_virtual_identity():
    cluster, pod, _client = serving_cluster()
    rows = ps(cluster.nodes[0])
    server_rows = [r for r in rows if r["pod"] == "kv"]
    assert server_rows
    row = server_rows[0]
    assert row["vpid"] == 1
    assert row["state"] in ("BLOCKED", "RUNNABLE")
    assert row["syscalls"] > 0
    assert "poll" in row["syscall"]


def test_netstat_lists_listener_and_connection():
    cluster, pod, _client = serving_cluster()
    rows = netstat(cluster.nodes[0])
    listeners = [r for r in rows if r["state"] == "LISTEN"]
    established = [r for r in rows if r["state"] == "ESTABLISHED"]
    assert any(str(pod.ip) in r["local"] for r in listeners)
    assert any(str(pod.ip) in r["local"] for r in established)


def test_pod_report_follows_migration():
    cluster, pod, client = serving_cluster()
    before = pod_report(cluster)
    assert [r["node"] for r in before if r["pod"] == "kv"] == ["node0"]
    cluster.migrate_pod(pod, target_node_index=1)
    after = pod_report(cluster)
    assert [r["node"] for r in after if r["pod"] == "kv"] == ["node1"]
    row = [r for r in after if r["pod"] == "kv"][0]
    assert row["ip"] == str(pod.ip)  # same address on the new node
    del client


def test_render_table_alignment_and_empty():
    assert render_table("t", ["a"], []).splitlines() == ["== t ==", "a", "-"]
    text = render_table("t", ["a", "bb"], [[1, "xx"], [22, "y"]])
    lines = text.splitlines()[1:]
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert all(len(line) <= len(lines[0]) + 4 for line in lines)


def test_round_report_breaks_latency_into_phases():
    from repro.cruz.protocol import RoundStats

    rounds = [
        RoundStats(epoch=1, kind="CHECKPOINT", n_nodes=2, started_at=0.0,
                   latency_s=0.5,
                   phase_s={"coord.request": 0.0001,
                            "agent.local": 0.49}),
        RoundStats(epoch=2, kind="CHECKPOINT", n_nodes=2, started_at=1.0,
                   latency_s=0.6,
                   phase_s={"agent.local": 0.59, "zap.stop": 0.001}),
    ]
    rows = round_report(rounds)
    assert [r["epoch"] for r in rows] == [1, 2]
    assert rows[0]["latency_ms"] == 500.0
    assert rows[0]["agent.local"] == 490.0
    # Columns are the union of phases; absent phases read as zero.
    assert rows[0]["zap.stop"] == 0.0
    assert rows[1]["coord.request"] == 0.0
    assert "zap.stop" in render_table("rounds", list(rows[0]),
                                      [row.values() for row in rows])

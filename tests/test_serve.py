"""Serving-fleet robustness edges (ISSUE 10): saturation sheds instead
of hanging, duplicate request IDs are applied once across a mid-write
failover, and a diverged canary rolls back to bit-identical state.
"""

import pytest

from repro.apps.kvproxy import KvProxy
from repro.apps.kvserver import KvClient, KvServer
from repro.cruz.cluster import CruzCluster
from repro.errors import RolloutError
from repro.serve.harness import _store_digest, run_serve
from repro.serve.rollout import AdminClient, canary_restore, restore_pod


def _fleet(backends=2, **proxy_kwargs):
    """A proxy fronting ``backends`` single-pod kv replicas, all up."""
    cluster = CruzCluster(backends + 1)
    apps = [cluster.launch_app(f"kv{i}", [KvServer()],
                               node_indices=[i])
            for i in range(backends)]
    ips = [str(app.pods[0].ip) for app in apps]
    proxy_app = cluster.launch_app(
        "proxy", [KvProxy(ips, rng=cluster.random.stream("proxy"),
                          **proxy_kwargs)],
        node_indices=[backends])
    proxy = cluster.app_programs(proxy_app)[0]
    cluster.run_until(
        lambda: all(b["state"] == "up" for b in proxy.backends),
        limit=20.0, step=0.01)
    return cluster, apps, proxy_app, proxy


def test_saturation_sheds_not_hangs():
    """With nothing dispatchable, the bounded pending queue fills and
    overflow/expiry answer with typed 503 sheds — no client ever hangs,
    and traffic flows again once capacity returns."""
    cluster, apps, proxy_app, proxy = _fleet(
        backends=2, pending_cap=4, queue_timeout_s=0.2)
    proxy_ip = str(proxy_app.pods[0].ip)
    admin = AdminClient(cluster, proxy_ip)
    assert admin.put("warm", 1)["ok"]
    # Take every backend out of rotation: reads have nowhere to go.
    assert admin.drain(0)["ok"]
    assert admin.drain(1)["ok"]

    clients = []
    for c in range(8):
        requests = [{"op": "get", "key": "warm", "rid": f"c{c}-{i}"}
                    for i in range(3)]
        clients.append(cluster.coordinator_node.spawn(
            KvClient(proxy_ip, requests)))
    cluster.run_until(lambda: all(not p.is_alive for p in clients),
                      limit=60.0, step=0.01)
    assert all(not p.is_alive for p in clients)  # nobody hung
    responses = [r for p in clients for r in p.program.responses]
    assert len(responses) == 8 * 3  # every request got *an* answer
    sheds = [r for r in responses if not r.get("ok")]
    assert sheds, "a fully drained fleet must shed, not queue forever"
    assert all(r["code"] == 503 and r["error"] == "shed" for r in sheds)
    assert proxy.sheds >= len(sheds)
    assert len(proxy.pending) <= proxy.pending_cap  # cap was honored

    # Capacity returns: the same traffic succeeds after undrain.
    assert admin.undrain(0)["ok"]
    assert admin.undrain(1)["ok"]
    after = admin.one({"op": "get", "key": "warm"})
    assert after["ok"] and after["value"] == 1


def test_duplicate_rid_applied_once_across_failover():
    """A write retried with the same rid after its backend died and was
    restored from an older image must be applied exactly once."""
    cluster, apps, proxy_app, proxy = _fleet(backends=2)
    admin = AdminClient(cluster, str(proxy_app.pods[0].ip))
    for i in range(5):
        assert admin.put(f"seed{i}", i)["ok"]
    cluster.run_for(0.2)
    for app in apps:
        cluster.checkpoint_app(app)

    # The contested write lands *after* the committed image.
    first = admin.one({"op": "put", "key": "hot", "value": "v1",
                       "rid": "dup-1"})
    assert first["ok"]

    # Kill backend 1 and restore it from the image that predates the
    # write; the proxy log-replays the gap while the client retries.
    victim = apps[1]
    pod = victim.pods[0]
    pod_name, node = pod.name, pod.node
    cluster.destroy_pod(pod)
    cluster.run_for(1.0)  # probe silence crosses down_after_s
    assert proxy.backend_downs >= 1
    assert proxy.backends[1]["state"] != "up"
    restore_pod(cluster, victim, pod_name, node)
    cluster.run_until(lambda: proxy.backends[1]["state"] == "up",
                      limit=20.0, step=0.01)

    retry = admin.one({"op": "put", "key": "hot", "value": "v1",
                       "rid": "dup-1"})
    assert retry["ok"]
    assert retry.get("seq") == first.get("seq")  # cached, not re-stamped
    assert proxy.dups_served >= 1
    cluster.run_for(0.3)
    servers = [cluster.app_programs(app)[0] for app in apps]
    assert servers[0].store == servers[1].store
    assert servers[0].store["hot"] == "v1"
    for server in servers:  # replay delivered it exactly once per replica
        assert "dup-1" in server.applied


def corrupter(probe_key):
    """A ``corrupt=`` hook: the restored kv store reads ``probe_key``
    back wrong."""
    def corrupt(pod):
        for proc in pod.processes():
            store = getattr(proc.program, "store", None)
            if isinstance(store, dict):
                store[probe_key] = "corrupted"
    return corrupt


@pytest.mark.parametrize("diverges", [False, True],
                         ids=["promotes", "cannot-roll-back"])
def test_canary_of_a_never_checkpointed_backend(diverges):
    """With no version before the canary's own, a canary that passes is
    promoted from nothing, and one that diverges has nothing to roll
    back to: a typed error saying so, not a missing-checkpoint one."""
    cluster, apps, proxy_app, _proxy = _fleet(backends=2)
    admin = AdminClient(cluster, str(proxy_app.pods[0].ip))
    assert cluster.store.versions(apps[1].pods[0].name) == []
    if not diverges:
        report = canary_restore(cluster, admin, apps[1], 1)
        assert report.promoted
        assert report.from_version is None
        assert report.to_version == 1
        return
    with pytest.raises(RolloutError) as err:
        canary_restore(cluster, admin, apps[1], 1, probe_key="canary.test",
                       corrupt=corrupter("canary.test"))
    assert err.value.rolled_back is False
    assert "no pre-canary version" in str(err.value)


def test_canary_rollback_restores_pre_canary_state():
    """A canary whose restored state diverges at the read-back probe is
    rolled back to the bit-identical pre-canary image (then re-synced)."""
    cluster, apps, proxy_app, proxy = _fleet(backends=2)
    admin = AdminClient(cluster, str(proxy_app.pods[0].ip))
    for i in range(6):
        assert admin.put(f"base{i}", i)["ok"]
    cluster.run_for(0.2)
    for app in apps:
        cluster.checkpoint_app(app)
    pre_digest = _store_digest(cluster.app_programs(apps[1])[0].store)

    probe_key = "canary.test"
    with pytest.raises(RolloutError) as err:
        canary_restore(cluster, admin, apps[1], 1, probe_key=probe_key,
                       corrupt=corrupter(probe_key))
    assert err.value.stage == "read-back"
    assert err.value.rolled_back
    assert err.value.got == "corrupted"

    cluster.run_until(lambda: proxy.backends[1]["state"] == "up",
                      limit=20.0, step=0.01)
    cluster.run_for(0.3)  # sync replay re-delivers the sentinel
    stores = [cluster.app_programs(app)[0].store for app in apps]
    assert stores[0] == stores[1]
    assert stores[1][probe_key] != "corrupted"
    # Minus the sentinel the canary wrote, state is the pre-canary image.
    rolled = dict(stores[1])
    del rolled[probe_key]
    assert _store_digest(rolled) == pre_digest


def test_serve_gauntlet_smoke():
    """One small end-to-end run of the harness with a canary promote."""
    report = run_serve(backends=2, clients=2, sessions=3,
                       requests_per_session=3, rounds=1, canary=True)
    assert report["ok"]
    assert report["client_errors"] == 0
    assert report["replicas_consistent"]
    assert report["canary"]["promoted"]
    assert report["slo"]["overall"]["requests"] == 2 * 3 * 3

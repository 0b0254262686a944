"""Image store bookkeeping and coordinator/agent protocol edges."""

import pytest

from repro.cruz.cluster import CruzCluster
from repro.cruz.protocol import ControlMessage
from repro.cruz.storage import ImageStore
from repro.errors import CheckpointError, CoordinationError
from repro.simos.filesystem import SharedFileSystem
from repro.zap.image import CheckpointImage
from repro.net.addresses import Ipv4Address, MacAddress

from tests.test_cruz_coordination import (
    make_cluster,
    ring_app,
    run_app_to_completion,
    workers_of,
)
from repro.apps.ring import validate_ring


def make_image(pod_name="p", state_bytes=1000):
    return CheckpointImage(
        pod_name=pod_name, taken_at=0.0,
        ip=Ipv4Address.parse("10.1.1.9"), mac=MacAddress.ordinal(9),
        fake_mac=MacAddress.ordinal(9), own_wire_mac=True,
        next_vpid=1, next_vipc=1, state_bytes=state_bytes)


def test_store_versions_increment():
    store = ImageStore(SharedFileSystem())
    assert store.save(make_image()) == 1
    assert store.save(make_image()) == 2
    assert store.versions("p") == [1, 2]
    assert store.latest_version("p") == 2


def test_store_load_specific_and_latest():
    store = ImageStore(SharedFileSystem())
    store.save(make_image(state_bytes=111))
    store.save(make_image(state_bytes=222))
    assert store.load("p", version=1).state_bytes == 111
    assert store.load("p").state_bytes == 222


def test_store_missing_raises():
    store = ImageStore(SharedFileSystem())
    with pytest.raises(CheckpointError, match="no checkpoints"):
        store.latest_version("ghost")
    store.save(make_image())
    with pytest.raises(CheckpointError, match="no checkpoint v5"):
        store.load("p", version=5)


def test_store_discard_rolls_back_latest():
    store = ImageStore(SharedFileSystem())
    store.save(make_image(state_bytes=1))
    version = store.save(make_image(state_bytes=2))
    store.discard("p", version)
    assert store.latest_version("p") == 1
    assert store.load("p").state_bytes == 1


def test_store_prune_keeps_newest():
    fs = SharedFileSystem()
    store = ImageStore(fs)
    for index in range(5):
        store.save(make_image(state_bytes=index))
    removed = store.prune("p", keep=2)
    assert removed == 3
    assert store.load("p", version=4).state_bytes == 3
    with pytest.raises(CheckpointError):
        store.load("p", version=1)


def test_images_namespaced_by_pod():
    store = ImageStore(SharedFileSystem())
    store.save(make_image("a", state_bytes=1))
    store.save(make_image("b", state_bytes=2))
    assert store.load("a").state_bytes == 1
    assert store.load("b").state_bytes == 2


# ---------------------------------------------------------------------------
# Coordinator / agent protocol edges
# ---------------------------------------------------------------------------

def test_unknown_pod_aborts_round():
    cluster = make_cluster(2, coordinator_timeout_s=5.0)
    ring_app(cluster, 2, max_token=50000)
    cluster.run_for(0.2)
    members = [(cluster.nodes[0].stack.eth0.ip, "no-such-pod")]
    task = cluster.sim.process(cluster.coordinator._run_round(
        ControlMessage(kind="CHECKPOINT", epoch=0), members))
    with pytest.raises(CoordinationError, match="no pod 'no-such-pod'"):
        cluster.sim.run_until_complete(task, limit=1e6)


def test_epochs_isolate_sequential_rounds():
    cluster = make_cluster(2)
    app = ring_app(cluster, 2, max_token=50000)
    cluster.run_for(0.2)
    first = cluster.checkpoint_app(app)
    second = cluster.checkpoint_app(app)
    assert first.epoch != second.epoch
    assert first.committed and second.committed


def test_optimized_round_message_count_is_linear_too():
    cluster = make_cluster(4)
    app = ring_app(cluster, 4)
    cluster.run_for(0.2)
    before = cluster.coordination_message_count()
    cluster.checkpoint_app(app, optimized=True)
    # checkpoint + comm-disabled + continue + done = 4 per node.
    assert cluster.coordination_message_count() - before == 16


def test_checkpoint_failure_then_retry_succeeds():
    cluster = make_cluster(3, coordinator_timeout_s=2.0)
    app = ring_app(cluster, 3, max_token=100000)
    cluster.run_for(0.2)
    cluster.agents[2].crashed = True
    with pytest.raises(CoordinationError):
        cluster.checkpoint_app(app)
    cluster.run_for(0.2)  # aborts land, filters drop, pods resume
    cluster.agents[2].crashed = False
    stats = cluster.checkpoint_app(app)
    assert stats.committed
    # And the images are restorable.
    cluster.crash_app(app)
    cluster.restart_app(app)
    assert all(any(p.is_alive for p in pod.processes())
               for pod in app.pods)


def test_stale_control_messages_are_ignored():
    cluster = make_cluster(2)
    app = ring_app(cluster, 2, max_token=50000)
    cluster.run_for(0.2)
    # Inject a bogus DONE for an epoch the coordinator never started.
    coordinator = cluster.coordinator
    coordinator._on_message(
        ControlMessage(kind="DONE", epoch=999, pod_name="x",
                       node_name="node0"), None)
    stats = cluster.checkpoint_app(app)
    assert stats.committed


def test_agent_ignores_non_control_datagrams():
    cluster = make_cluster(2)
    agent = cluster.agents[0]
    handled_before = agent.messages_handled
    from repro.cruz.protocol import AGENT_PORT
    cluster.nodes[1].stack.udp.send(
        cluster.nodes[1].stack.eth0.ip, 12345,
        cluster.nodes[0].stack.eth0.ip, AGENT_PORT, b"garbage")
    cluster.run_for(0.1)
    assert agent.messages_handled == handled_before


def test_two_apps_checkpoint_independently():
    cluster = make_cluster(4)
    app_a = ring_app(cluster, 2, max_token=4000, name="ring-a")
    app_b = cluster.launch_app_factory(
        "ring-b", 2,
        __import__("repro.apps.ring", fromlist=["ring_factory"])
        .ring_factory(2, port=9600, max_token=4000, padding=64,
                      work_per_hop_s=0.0005),
        node_indices=[2, 3])
    cluster.run_for(0.3)
    stats_a = cluster.checkpoint_app(app_a)
    stats_b = cluster.checkpoint_app(app_b)
    assert stats_a.committed and stats_b.committed
    run_app_to_completion(cluster, app_a)
    run_app_to_completion(cluster, app_b)
    validate_ring(workers_of(cluster, app_a))
    validate_ring(workers_of(cluster, app_b))

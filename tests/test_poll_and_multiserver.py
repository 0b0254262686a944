"""poll() semantics and the event-driven multi-client kv server."""

import pytest

from repro.apps.kvserver import KvClient, KvServer
from repro.cruz.cluster import CruzCluster
from repro.simos.program import PhasedProgram
from repro.simos.syscalls import Exit, sys


def make_cluster(n, **kwargs):
    kwargs.setdefault("time_wait_s", 0.5)
    return CruzCluster(n, **kwargs)


class PollOnce(PhasedProgram):
    """Polls a pipe with a timeout; records readiness and timing."""

    initial_phase = "pipe"

    def __init__(self, timeout):
        super().__init__()
        self.timeout = timeout
        self.result = None
        self.finished_at = None

    def phase_pipe(self, result):
        self.goto("poll")
        return sys("pipe")

    def phase_poll(self, result):
        self.rfd, self.wfd = result
        self.goto("done")
        return sys("poll", [self.rfd], timeout=self.timeout)

    def phase_done(self, result):
        self.result = result
        self.goto("stamp")
        return sys("gettime")

    def phase_stamp(self, result):
        self.finished_at = result
        return Exit(0)


def test_poll_timeout_expires_with_empty_result():
    cluster = make_cluster(1)
    proc = cluster.nodes[0].spawn(PollOnce(timeout=0.5))
    cluster.run()
    assert proc.program.result == []
    assert proc.program.finished_at == pytest.approx(0.5, abs=0.01)


def test_poll_zero_timeout_is_nonblocking():
    cluster = make_cluster(1)
    proc = cluster.nodes[0].spawn(PollOnce(timeout=0.0))
    cluster.run()
    assert proc.program.result == []
    assert proc.program.finished_at < 0.01


def test_poll_wakes_on_pipe_data():
    class Waker(PhasedProgram):
        initial_phase = "sleep"

        def __init__(self, target):
            super().__init__()
            self.target = target

        def phase_sleep(self, result):
            self.goto("poke")
            return sys("sleep", 0.3)

        def phase_poke(self, result):
            pipe = self.target.fds.get(self.target.program.wfd).obj
            pipe.buffer.extend(b"!")
            pipe.wake_readers()
            return Exit(0)

    cluster = make_cluster(1)
    poller = cluster.nodes[0].spawn(PollOnce(timeout=None))
    cluster.run_for(0.1)
    cluster.nodes[0].spawn(Waker(poller))
    cluster.run()
    assert poller.program.result == [poller.program.rfd]
    # Waker spawned at t=0.1 and sleeps 0.3 before poking.
    assert poller.program.finished_at == pytest.approx(0.4, abs=0.05)


def client_requests(tag, n):
    reqs = [{"op": "put", "key": f"{tag}{i}", "value": f"{tag}:{i}"}
            for i in range(n)]
    reqs += [{"op": "get", "key": f"{tag}{i}"} for i in range(n)]
    return reqs


def test_multi_server_serves_concurrent_clients():
    cluster = make_cluster(3)
    pod = cluster.create_pod(0, "kvm")
    server = pod.spawn(KvServer())
    clients = []
    for index, tag in enumerate(("a", "b", "c")):
        node = cluster.nodes[1] if index % 2 else cluster.nodes[2]
        clients.append((tag, node.spawn(
            KvClient(str(pod.ip), client_requests(tag, 40),
                     think_time_s=0.001 * (index + 1)))))
    cluster.run_until(
        lambda: all(not c.is_alive for _t, c in clients),
        limit=120, step=0.1)
    for tag, client in clients:
        assert client.exit_code == 0
        gets = client.program.responses[40:]
        assert [r["value"] for r in gets] == \
            [f"{tag}:{i}" for i in range(40)]
    assert server.program.clients_accepted == 3
    assert server.program.requests_served == 3 * 80


def test_multi_server_survives_live_migration_with_three_clients():
    """Migration must preserve ALL concurrent connections at once."""
    cluster = make_cluster(3)
    pod = cluster.create_pod(0, "kvm")
    pod.spawn(KvServer())
    clients = []
    for index, tag in enumerate(("x", "y", "z")):
        node = cluster.nodes[2] if index % 2 else cluster.coordinator_node
        clients.append((tag, node.spawn(
            KvClient(str(pod.ip), client_requests(tag, 60),
                     think_time_s=0.002))))
    cluster.run_for(0.05)
    assert all(0 < c.program.index < 120 for _t, c in clients)
    new_pod = cluster.migrate_pod(pod, target_node_index=1)
    cluster.run_until(
        lambda: all(not c.is_alive for _t, c in clients),
        limit=240, step=0.25)
    for tag, client in clients:
        assert client.exit_code == 0
        gets = client.program.responses[60:]
        assert [r["value"] for r in gets] == \
            [f"{tag}:{i}" for i in range(60)]
    server = new_pod.processes()[0]
    assert server.program.requests_served == 3 * 120


def test_multi_server_checkpoint_while_blocked_in_poll():
    cluster = make_cluster(2)
    pod = cluster.create_pod(0, "kvm")
    proc = pod.spawn(KvServer())
    cluster.run_for(0.5)  # idle: blocked in poll with no clients
    assert proc.current_syscall is not None
    assert proc.current_syscall.name == "poll"
    from repro.cruz.netstate import CruzSocketCodec
    from repro.zap.checkpoint import CheckpointEngine, scrub_pod_network
    from repro.zap.restart import RestartEngine
    from repro.zap.virtualization import uninstall_pod
    engine = CheckpointEngine(CruzSocketCodec())
    task = cluster.sim.process(engine.checkpoint(pod, resume=False))
    image = cluster.sim.run_until_complete(task, limit=1e6)
    scrub_pod_network(pod)
    pod.kill_all()
    uninstall_pod(pod)
    restore = cluster.sim.process(
        RestartEngine(CruzSocketCodec()).restart(
            image, cluster.nodes[1], resume=True))
    new_pod = cluster.sim.run_until_complete(restore, limit=1e6)
    # A client can connect to the restored poll loop.
    client = cluster.coordinator_node.spawn(
        KvClient(str(new_pod.ip), [{"op": "put", "key": "k", "value": 9},
                                   {"op": "get", "key": "k"}]))
    cluster.run_until(lambda: not client.is_alive, limit=60, step=0.1)
    assert client.exit_code == 0
    assert client.program.responses[-1]["value"] == 9

"""poll() semantics and the event-driven multi-client kv server."""

import pytest

from repro.apps.kvserver import KvClient, KvServer
from repro.cluster import Cluster
from repro.cruz.cluster import CruzCluster
from repro.errors import SyscallError
from repro.simos.program import PhasedProgram
from repro.simos.syscalls import Exit, sys

from tests.programs import EchoServer, Scripted


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


# -- a blocked poll is one wait, and leaves nothing behind -------------------

def pushed(cluster):
    return cluster.sim.stats()["pushed"]


def test_poll_timeout_leaves_no_waiter_on_the_watched_object():
    """Every timed-out poll used to leave its event on the pipe for
    good; the process's exit then pushed all of them through the queue."""
    held = {}

    def program():
        rfd, _wfd = yield sys("pipe")
        held["rfd"] = rfd
        for _ in range(499):
            yield sys("poll", [rfd], timeout=0.001)
        yield sys("sleep", 1.0)
        yield sys("poll", [rfd], timeout=0.001)

    cluster = Cluster(1)
    proc = cluster.nodes[0].spawn(Scripted(program()))
    cluster.run_for(0.9)        # 499 polls of 1 ms done, asleep
    pipe = proc.fds.get(held["rfd"]).obj
    assert pipe.read_waiters == []
    before = pushed(cluster)
    cluster.run()
    assert proc.exit_code == 0
    # The poll's syscall cost, its deadline, its one event; the exit.
    assert pushed(cluster) - before == 5


@pytest.mark.parametrize("tiebreak", ["fifo", "lifo"])
def test_blocked_poll_costs_the_same_pushes_for_1_and_64_descriptors(
        tiebreak):

    def pushes_to_wake_and_exit(n_fds):
        held = {}

        def program():
            rfds = []
            for _ in range(n_fds):
                rfd, _wfd = yield sys("pipe")
                rfds.append(rfd)
            held["rfds"] = rfds
            held["ready"] = yield sys("poll", rfds, timeout=30.0)

        cluster = Cluster(1, tiebreak=tiebreak)
        proc = cluster.nodes[0].spawn(Scripted(program()))
        cluster.run_for(0.1)
        assert proc.current_syscall.name == "poll"
        before = pushed(cluster)
        last = held["rfds"][-1]
        proc.fds.get(last).obj.write(b"!")
        cluster.run()
        assert held["ready"] == [last] and proc.exit_code == 0
        assert cluster.sim.now < 1.0    # nobody waited for the deadline
        return pushed(cluster) - before

    assert pushes_to_wake_and_exit(1) == pushes_to_wake_and_exit(64) == 3


def test_poll_deadline_is_cancelled_when_the_poll_is_woken():
    held = {}

    def program():
        ufd = yield sys("socket", "udp")
        yield sys("bind", ufd, None, 5000)
        held["ufd"] = ufd
        for _ in range(300):
            yield sys("poll", [ufd], timeout=30.0)
            yield sys("recvfrom", ufd)

    cluster = Cluster(1)
    proc = cluster.nodes[0].spawn(Scripted(program()))
    cluster.run_for(0.001)
    sock = proc.fds.get(held["ufd"]).obj
    for _ in range(300):
        assert proc.current_syscall.name == "poll"
        sock._on_datagram(b"x", None, 0, None)
        cluster.run_for(0.001)
    assert proc.exit_code == 0
    stats = cluster.sim.stats()
    assert stats["live"] == 0           # was 300 deadlines, 30 s each
    assert stats["cancelled"] == 300
    assert stats["peak_live"] <= 2
    cluster.run()
    assert cluster.sim.now < 1.0


def test_poll_on_a_regular_file_is_ready_at_once():
    """A kind with no readiness rule used to be waited on for ever."""
    held = {}

    def program():
        fd = yield sys("open", "/data/log", "w")
        rfd, _wfd = yield sys("pipe")
        held["fds"] = (fd, rfd)
        held["ready"] = yield sys("poll", [rfd, fd], timeout=None)

    cluster = Cluster(1)
    proc = cluster.nodes[0].spawn(Scripted(program()))
    cluster.run()
    assert proc.exit_code == 0
    assert held["ready"] == [held["fds"][0]]
    assert cluster.sim.now < 0.001


def test_poll_on_a_bad_descriptor_is_ebadf_before_anything_is_registered():
    held = {}

    def program():
        rfd, wfd = yield sys("pipe")
        held["pipe"] = rfd
        gone, _w = yield sys("pipe")
        yield sys("close", gone)
        held["closed"] = yield sys("poll", [rfd, gone], timeout=None)
        held["unknown"] = yield sys("poll", [rfd, 99], timeout=5.0)
        yield sys("sleep", 1.0)

    cluster = Cluster(1)
    proc = cluster.nodes[0].spawn(Scripted(program()))
    cluster.run_for(0.5)
    for result in (held["closed"], held["unknown"]):
        assert isinstance(result, SyscallError) and result.errno == "EBADF"
    assert proc.fds.get(held["pipe"]).obj.read_waiters == []
    assert cluster.sim.stats()["live"] == 1     # the sleep, no deadline


class FourWayPoller(PhasedProgram):
    """Opens a pipe, a listener, a UDP socket and a connection to a peer,
    then blocks in one poll over all four and records what it returns."""

    initial_phase = "pipe"
    TCP_PORT, UDP_PORT, TIMEOUT = 7400, 7401, 30.0

    def __init__(self, peer_ip, peer_port):
        super().__init__()
        self.peer_ip, self.peer_port = peer_ip, peer_port
        self.results = []

    def phase_pipe(self, result):
        self.goto("listener")
        return sys("pipe")

    def phase_listener(self, result):
        self.rfd, self.wfd = result
        self.goto("listener_bind")
        return sys("socket", "tcp")

    def phase_listener_bind(self, result):
        self.lfd = result
        self.goto("listener_listen")
        return sys("bind", self.lfd, None, self.TCP_PORT)

    def phase_listener_listen(self, result):
        self.goto("udp")
        return sys("listen", self.lfd, 4)

    def phase_udp(self, result):
        self.goto("udp_bind")
        return sys("socket", "udp")

    def phase_udp_bind(self, result):
        self.ufd = result
        self.goto("peer")
        return sys("bind", self.ufd, None, self.UDP_PORT)

    def phase_peer(self, result):
        self.goto("peer_connect")
        return sys("socket", "tcp")

    def phase_peer_connect(self, result):
        self.cfd = result
        self.goto("poll")
        return sys("connect", self.cfd, self.peer_ip, self.peer_port)

    def phase_poll(self, result):
        assert result is None, result
        self.goto("polled")
        return sys("poll", [self.rfd, self.lfd, self.cfd, self.ufd],
                   timeout=self.TIMEOUT)

    def phase_polled(self, result):
        self.results.append(result)
        self.goto("finish")
        return sys("sleep", 0.05)

    def phase_finish(self, result):
        return Exit(0)


def waiter_lists(proc):
    """Every list a poll by ``proc`` over its four fds registers on."""
    program = proc.program
    objs = [proc.fds.get(fd).obj for fd in
            (program.rfd, program.lfd, program.cfd, program.ufd)]
    return [obj.read_waiters for obj in objs] + [
        proc.fds.get(program.lfd).obj.listener._pending_notify]


def blocked_four_way_poller(cluster, spawn):
    """A FourWayPoller (started by ``spawn``) blocked in its poll, with
    the five lists that now hold its one event."""
    peer = cluster.nodes[1]
    peer.spawn(EchoServer(7500))
    proc = spawn(FourWayPoller(str(peer.stack.eth0.ip), 7500))
    cluster.run_for(0.3)
    assert proc.current_syscall.name == "poll"
    lists = waiter_lists(proc)
    (event,) = lists[0]
    assert all(waiters == [event] for waiters in lists)
    return proc, lists


def test_sigkill_of_a_blocked_poll_withdraws_the_wait():
    cluster = Cluster(2, time_wait_s=0.5)
    node = cluster.nodes[0]
    proc, lists = blocked_four_way_poller(cluster, node.spawn)
    cancelled = cluster.sim.stats()["cancelled"]
    node.signal_now(proc.pid, "SIGKILL")
    cluster.run_for(0.001)
    assert proc.exit_code == -9 and proc.program.results == []
    assert all(waiters == [] for waiters in lists)
    assert cluster.sim.stats()["cancelled"] == cancelled + 1
    cluster.run()
    assert cluster.sim.now < FourWayPoller.TIMEOUT


def test_sigstop_then_data_then_sigcont_returns_the_ready_fds_once():
    cluster = Cluster(2, time_wait_s=0.5)
    node = cluster.nodes[0]
    proc, lists = blocked_four_way_poller(cluster, node.spawn)
    program = proc.program
    cancelled = cluster.sim.stats()["cancelled"]
    node.signal_now(proc.pid, "SIGSTOP")
    proc.fds.get(program.ufd).obj._on_datagram(b"x", None, 0, None)
    proc.fds.get(program.rfd).obj.write(b"!")
    cluster.run_for(0.01)
    # Woken into the stop gate: nothing returned, nothing left behind.
    assert proc.stopped and program.results == []
    assert all(waiters == [] for waiters in lists)
    assert cluster.sim.stats()["cancelled"] == cancelled + 1
    node.signal_now(proc.pid, "SIGCONT")
    cluster.run()
    assert program.results == [[program.rfd, program.ufd]]
    assert proc.exit_code == 0
    assert cluster.sim.now < FourWayPoller.TIMEOUT


def test_checkpoint_of_a_blocked_poll_restores_into_one_fresh_wait():
    cluster = make_cluster(3)
    pod = cluster.create_pod(0, "four")
    proc, lists = blocked_four_way_poller(cluster, pod.spawn)
    new_pod = cluster.migrate_pod(pod, target_node_index=2, live=False)
    # The source process died in its poll and took its wait with it.
    assert proc.exit_code == -9 and proc.program.results == []
    assert all(waiters == [] for waiters in lists)
    cluster.run_for(0.1)
    (restored,) = new_pod.processes()
    program = restored.program
    assert restored.current_syscall.name == "poll"
    assert program.results == []
    fresh = waiter_lists(restored)
    (event,) = fresh[0]
    assert all(waiters == [event] for waiters in fresh)
    restored.fds.get(program.ufd).obj._on_datagram(b"x", None, 0, None)
    cluster.run_for(0.2)
    assert program.results == [[program.ufd]]
    assert restored.exit_code == 0
    assert all(waiters == [] for waiters in fresh)

"""A stop lands on a syscall boundary: the image holds the whole process.

§4.1 stops a pod with SIGSTOP before capturing it. The stop is asked for
at one instant and the capture follows a few microseconds later, so a
call whose cost sleep ends in between returns while the process is
stopping. Its return value is part of the process, like a register: the
image must carry it, or the restored program is stepped with the wrong
value (a pipe's descriptors, a write's count, the bytes a read consumed).

One pod on a plain ``Cluster`` — no Cruz coordinator — runs one program.
The stop lands before a chosen call's cost sleep, inside it, or after
its handler returned; the pod is captured, killed and restored on
another node, and what the program and its peer end up with must equal
an undisturbed twin's.
"""

import functools

import pytest

from repro.cluster import Cluster
from repro.cruz.netstate import CruzSocketCodec
from repro.simos.costs import DEFAULT_COSTS
from repro.simos.program import Program
from repro.simos.syscalls import Exit, sys
from repro.zap.checkpoint import CheckpointEngine, scrub_pod_network
from repro.zap.restart import RestartEngine
from repro.zap.virtualization import uninstall_pod

from tests.programs import Scripted
from tests.test_zap_virtualization import make_pod

#: Sleep on each side of the call under test: the stop lands inside one.
GAP = 5e-3
PORT = 7100
#: Simulated time every run gets; each scenario is done well before it.
HORIZON = 3.0
#: A forked child's exit code.
CHILD_CODE = 7


class R:
    """An argument standing for result ``index`` (or its ``item``)."""

    def __init__(self, index, item=None):
        self.index, self.item = index, item

    def of(self, results):
        value = results[self.index]
        return value if self.item is None else value[self.item]


class Calls(Program):
    """Issues ``calls`` in order and keeps every result it is handed. A
    forked child (handed ``("child", 0)``) naps and exits instead."""

    name = "calls"

    def __init__(self, *calls):
        self.calls = list(calls)
        self.issued = 0
        self.results = []
        self.code = 0

    def step(self, result):
        if self.issued:
            self.results.append(result)
        if result == ("child", 0):
            self.calls[self.issued:] = [("sleep", GAP)]
            self.code = CHILD_CODE
        if self.issued == len(self.calls):
            return Exit(self.code)
        name, *args = self.calls[self.issued]
        self.issued += 1
        return sys(name, *[arg.of(self.results) if isinstance(arg, R)
                           else arg for arg in args])


def tcp_server(saw, _pod_ip, reply=b""):
    fd = yield sys("socket", "tcp")
    yield sys("bind", fd, None, PORT)
    yield sys("listen", fd)
    conn, _peer = yield sys("accept", fd)
    if reply:
        yield sys("send", conn, reply)
    while (data := (yield sys("recv", conn, 65536))):
        saw.append(data)
    yield sys("close", conn)


def tcp_client(saw, pod_ip):
    yield sys("sleep", GAP / 2)
    fd = yield sys("socket", "tcp")
    yield sys("connect", fd, pod_ip, PORT)
    yield sys("send", fd, b"hello")
    while (data := (yield sys("recv", fd, 65536))):
        saw.append(data)
    yield sys("close", fd)


def udp_sink(saw, _pod_ip):
    fd = yield sys("socket", "udp")
    yield sys("bind", fd, None, PORT)
    while (yield sys("poll", [fd], timeout=1.0)):
        payload, _ip, _port = yield sys("recvfrom", fd)
        saw.append(payload)


#: name -> (the program's calls, the index of the call under test, the
#: peer on the third node). ``PEER`` in a call is the peer's address.
PEER = "PEER"
SCENARIOS = {
    "pipe": ([("sleep", GAP), ("pipe",), ("sleep", GAP),
              ("write", R(1, 1), b"ping"), ("read", R(1, 0), 16)], 1, None),
    "pipe-write": ([("pipe",), ("sleep", GAP),
                    ("write", R(0, 1), b"0123456789"), ("sleep", GAP),
                    ("read", R(0, 0), 64)], 2, None),
    "pipe-read": ([("pipe",), ("write", R(0, 1), b"queued"), ("sleep", GAP),
                   ("read", R(0, 0), 64), ("sleep", GAP),
                   ("write", R(0, 1), b"!"), ("read", R(0, 0), 64)], 3, None),
    "fork": ([("sleep", GAP), ("fork",), ("sleep", GAP),
              ("waitpid", R(1, 1))], 1, None),
    "send": ([("sleep", GAP), ("socket", "tcp"), ("connect", R(1), PEER, PORT),
              ("sleep", GAP), ("send", R(1), b"x" * 1000), ("sleep", GAP),
              ("close", R(1))], 4, tcp_server),
    "recv": ([("sleep", GAP), ("socket", "tcp"), ("connect", R(1), PEER, PORT),
              ("sleep", GAP), ("recv", R(1), 64), ("sleep", GAP),
              ("close", R(1))], 4,
             functools.partial(tcp_server, reply=b"queued bytes")),
    "accept": ([("socket", "tcp"), ("bind", R(0), None, PORT),
                ("listen", R(0)), ("sleep", GAP), ("accept", R(0)),
                ("sleep", GAP), ("recv", R(4, 0), 64),
                ("close", R(4, 0))], 4, tcp_client),
    "sendto": ([("socket", "udp"), ("sleep", GAP),
                ("sendto", R(0), b"datagram", PEER, PORT), ("sleep", GAP)],
               2, udp_sink),
}


def run(scenario, stop_at=None):
    """Run ``scenario`` for ``HORIZON``; with ``stop_at``, migrate its pod
    from node 0 to node 1 by a checkpoint started then. Returns what the
    pod's programs and the peer ended with, and the instants the call
    under test's handler ran at."""
    calls, target, peer = SCENARIOS[scenario]
    cluster = Cluster(3, time_wait_s=0.5)
    pod = make_pod(cluster, 0)
    saw = []
    peer_ip = str(cluster.nodes[2].stack.eth0.ip)
    if peer is not None:
        cluster.nodes[2].spawn(Scripted(peer(saw, str(pod.ip))))
    pod.spawn(Calls(*[tuple(peer_ip if arg == PEER else arg
                              for arg in call) for call in calls]))
    handled = []
    name = calls[target][0]
    handler = cluster.nodes[0]._handlers[name]

    def probe(node, proc, call):
        if isinstance(proc.program, Calls) and \
                proc.program.issued == target + 1:
            handled.append(node.sim.now)
        return (yield from handler(node, proc, call))

    cluster.nodes[0]._handlers[name] = probe
    task = None
    if stop_at is not None:
        codec = CruzSocketCodec()
        task = cluster.sim.process(
            migrate(cluster, pod, stop_at, CheckpointEngine(codec),
                    RestartEngine(codec)))
    cluster.run_for(HORIZON)
    if task is not None:
        pod = task.value
    ended = sorted((proc.exit_code, repr(proc.program.results))
                   for proc in pod.processes())
    return ended, saw, handled


def migrate(cluster, pod, stop_at, ckpt, rst):
    yield cluster.sim.timeout(stop_at)
    image = yield from ckpt.checkpoint(pod, resume=False)
    scrub_pod_network(pod)
    pod.kill_all()
    uninstall_pod(pod)
    restored = yield from rst.restart(image, cluster.nodes[1], resume=True)
    return restored


@functools.lru_cache(maxsize=None)
def twin(scenario):
    return run(scenario)


@pytest.mark.parametrize("where", ["before", "inside", "after"])
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_a_stop_anywhere_around_a_call_changes_nothing(scenario, where):
    ended, saw, handled = twin(scenario)
    assert len(handled) == 1, "the call under test ran once"
    assert all(code in (0, CHILD_CODE) for code, _ in ended)
    cost = DEFAULT_COSTS.syscall_time + DEFAULT_COSTS.pod_syscall_overhead
    issued = handled[0] - cost
    stop_at = {"before": issued - cost / 2,
               "inside": issued + cost / 2,
               "after": handled[0] + cost / 2}[where]
    moved, moved_saw, moved_handled = run(scenario, stop_at)
    # The handler ran on the first node exactly when the twin's did,
    # unless the stop came before the call was issued.
    assert moved_handled == ([] if where == "before" else handled)
    assert moved == ended
    assert moved_saw == saw

"""The kernel's ``poll`` against the handler it replaced.

``tests/reference_poll.py`` is the old per-descriptor ``AnyOf`` wait.
Both handlers are driven by the same seeded script — pipe writers, TCP
clients that connect, talk and close, datagrams, a pipe's last writer
closing, timeouts of ``None``/0/δ, arrivals on two descriptors at one
instant — and must hand the program the same fds at the same simulated
instants, under each tie-break.
"""

import random

import pytest

from repro.cluster import Cluster
from repro.simos.syscalls import sys

from tests.programs import Scripted
from tests.reference_poll import install_reference_poll

TCP_PORT = 7000
UDP_PORT = 7001
TICK = 0.0005           # arrivals sit on a grid so instants collide
TIMEOUTS = (None, 0.0, 0.0007, None, 0.003, 0.0)


def poller(sim, log):
    """Watch three pipes, a listener, a UDP socket and every accepted
    connection; consume whatever a poll reports; stop on b"quit"."""
    kinds = {}
    for _ in range(3):
        rfd, _wfd = yield sys("pipe")
        kinds[rfd] = "pipe"
    lfd = yield sys("socket", "tcp")
    yield sys("bind", lfd, None, TCP_PORT)
    yield sys("listen", lfd, 8)
    kinds[lfd] = "listener"
    ufd = yield sys("socket", "udp")
    yield sys("bind", ufd, None, UDP_PORT)
    kinds[ufd] = "udp"
    polls = 0
    while True:
        timeout = TIMEOUTS[polls % len(TIMEOUTS)]
        polls += 1
        ready = yield sys("poll", list(kinds), timeout=timeout)
        log.append((sim.now, tuple(ready)))
        for fd in ready:
            kind = kinds[fd]
            if kind == "listener":
                newfd, _peer = yield sys("accept", fd)
                kinds[newfd] = "conn"
            elif kind == "udp":
                payload, _ip, _port = yield sys("recvfrom", fd)
                if payload == b"quit":
                    return 0
            else:
                data = yield sys("read" if kind == "pipe" else "recv",
                                 fd, 4096)
                if data == b"":
                    yield sys("close", fd)
                    del kinds[fd]


def tcp_client(server_ip, start, gaps):
    yield sys("sleep", start)
    fd = yield sys("socket", "tcp")
    yield sys("connect", fd, server_ip, TCP_PORT)
    for index, gap in enumerate(gaps):
        yield sys("send", fd, b"m%d" % index)
        yield sys("sleep", gap)
    yield sys("close", fd)
    return 0


def datagram_sender(server_ip, gaps, quit_at):
    fd = yield sys("socket", "udp")
    elapsed = 0.0
    for index, gap in enumerate(gaps):
        yield sys("sleep", gap)
        elapsed += gap
        yield sys("sendto", fd, b"d%d" % index, server_ip, UDP_PORT)
    yield sys("sleep", quit_at - elapsed)
    yield sys("sendto", fd, b"quit", server_ip, UDP_PORT)
    return 0


def run_script(seed, tiebreak, reference):
    rng = random.Random(seed)
    cluster = Cluster(2, tiebreak=tiebreak, time_wait_s=0.5)
    sim = cluster.sim
    node = cluster.nodes[0]
    if reference:
        install_reference_poll(node)
    log = []
    proc = node.spawn(Scripted(poller(sim, log)))
    cluster.run_for(0.001)      # set-up done, first polls under way
    pipes = [d.obj for _fd, d in proc.fds.items() if d.obj.kind == "pipe"
             and "w" in d.mode]
    assert len(pipes) == 3

    def grid(low, high):
        return rng.randrange(int(low / TICK), int(high / TICK)) * TICK

    for pipe in pipes:
        for _ in range(12):
            sim.call_at(grid(0.002, 0.08), pipe.write, b"p")
    for _ in range(6):
        # Two descriptors become ready in one callback, and in two
        # callbacks that share an instant.
        first, second = rng.sample(pipes, 2)
        when = grid(0.002, 0.08)
        sim.call_at(when, lambda a=first, b=second: (a.write(b"x"),
                                                     b.write(b"y")))
        when = grid(0.002, 0.08)
        sim.call_at(when, first.write, b"x")
        sim.call_at(when, second.write, b"y")
    sim.call_at(0.09, pipes[0].close_side, "w")     # EOF on one pipe

    server_ip = str(node.stack.eth0.ip)
    for _ in range(4):
        cluster.nodes[1].spawn(Scripted(tcp_client(
            server_ip, grid(0.002, 0.05),
            [grid(TICK, 0.01) for _ in range(rng.randrange(1, 5))])))
    cluster.nodes[1].spawn(Scripted(datagram_sender(
        server_ip, [grid(TICK, 0.01) for _ in range(10)], quit_at=0.12)))
    cluster.run_until(lambda: not proc.is_alive, limit=5.0)
    assert proc.exit_code == 0
    return log


@pytest.mark.parametrize("tiebreak", ["fifo", "lifo"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_poll_matches_the_reference_handler(seed, tiebreak):
    # The script's same-instant callbacks are a schedule race by design
    # (lifo runs the poller between them), so the two tie-breaks differ
    # from each other; the two handlers must not, under either.
    expected = run_script(seed, tiebreak, reference=True)
    assert {0, 1, 2} <= {len(ready) for _now, ready in expected}
    assert len(expected) > 100
    assert run_script(seed, tiebreak, reference=False) == expected

"""The TCP streaming benchmark of §6 (Fig. 6).

A transmitting pod sends data through one TCP connection to a receiving pod
at maximum rate. The receiver logs every delivery through the ``log``
syscall so the harness can compute the paper's 10 ms sliding-window rate
curve around a checkpoint.
"""

from __future__ import annotations

from typing import List, Optional

from repro.simos.program import PhasedProgram
from repro.simos.syscalls import Exit, sys

STREAM_PORT = 9800
CHUNK = 65536


class StreamSender(PhasedProgram):
    """Connects to the receiver and sends as fast as TCP accepts."""

    name = "stream-sender"
    initial_phase = "socket"

    def __init__(self, receiver_ip: str, total_bytes: int):
        super().__init__()
        self.receiver_ip = receiver_ip
        self.total_bytes = total_bytes
        self.port = STREAM_PORT
        self.sent = 0
        self.fd: Optional[int] = None

    def phase_socket(self, result):
        self.goto("connect")
        return sys("socket", "tcp")

    def phase_connect(self, result):
        self.fd = result
        self.goto("send")
        return sys("connect", self.fd, self.receiver_ip, self.port)

    def phase_send(self, result):
        if isinstance(result, int):
            self.sent += result
        if self.sent >= self.total_bytes:
            self.goto("finish")
            return sys("close", self.fd)
        chunk = min(CHUNK, self.total_bytes - self.sent)
        return sys("send", self.fd, b"\x00" * chunk)

    def phase_finish(self, result):
        return Exit(0)


class StreamReceiver(PhasedProgram):
    """Accepts one connection and drains it, logging every delivery."""

    name = "stream-receiver"
    initial_phase = "socket"

    def __init__(self):
        super().__init__()
        self.port = STREAM_PORT
        #: Listen on every address (kept: the attribute is pickled).
        self.bind_ip = None
        self.received = 0
        self.fd: Optional[int] = None
        self.conn_fd: Optional[int] = None

    def phase_socket(self, result):
        self.goto("bind")
        return sys("socket", "tcp")

    def phase_bind(self, result):
        self.fd = result
        self.goto("listen")
        return sys("bind", self.fd, self.bind_ip, self.port)

    def phase_listen(self, result):
        self.goto("accept")
        return sys("listen", self.fd, 1)

    def phase_accept(self, result):
        self.goto("drain")
        return sys("accept", self.fd)

    def phase_drain(self, result):
        if isinstance(result, tuple):
            self.conn_fd = result[0]
            return sys("recv", self.conn_fd, CHUNK)
        if result == b"":
            self.goto("finish")
            return sys("close", self.conn_fd)
        self.received += len(result)
        self.goto("log")
        return sys("log", "rx", nbytes=len(result))

    def phase_log(self, result):
        self.goto("drain")
        return sys("recv", self.conn_fd, CHUNK)

    def phase_finish(self, result):
        return Exit(0)


def stream_factory(total_bytes: int):
    """Two-rank factory: rank 0 receives, rank 1 transmits."""

    def make(rank: int, peer_ips: List[str]):
        if rank == 0:
            return StreamReceiver()
        return StreamSender(receiver_ip=peer_ips[0],
                            total_bytes=total_bytes)

    return make

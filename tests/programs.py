"""Small application programs used across the test suite.

All of them follow the checkpointable state-machine discipline: every bit of
mutable state is an instance attribute — except :class:`Scripted`, which
wraps a live generator and so can never be checkpointed.
"""

from __future__ import annotations

from repro.errors import SyscallError
from repro.simos.program import PhasedProgram, Program
from repro.simos.syscalls import Exit, MSG_PEEK, sys


class ComputeLoop(PhasedProgram):
    """Do ``iterations`` chunks of CPU work, logging each."""

    name = "compute-loop"
    initial_phase = "work"

    def __init__(self, iterations: int, work_s: float = 0.01):
        super().__init__()
        self.iterations = iterations
        self.work_s = work_s
        self.done = 0

    def phase_work(self, result):
        if self.done >= self.iterations:
            return Exit(0)
        self.done += 1
        return sys("compute", self.work_s)


class Sleeper(Program):
    name = "sleeper"

    def __init__(self, duration: float):
        self.duration = duration
        self.slept = False

    def step(self, result):
        if not self.slept:
            self.slept = True
            return sys("sleep", self.duration)
        return Exit(0)


class EchoServer(PhasedProgram):
    """Accept one connection and echo everything until EOF."""

    name = "echo-server"
    initial_phase = "socket"

    def __init__(self, port: int, bind_ip=None):
        super().__init__()
        self.port = port
        self.bind_ip = bind_ip
        self.fd = None
        self.conn_fd = None
        self.bytes_echoed = 0
        self.chunk = b""

    def phase_socket(self, result):
        self.goto("bind")
        return sys("socket", "tcp")

    def phase_bind(self, result):
        self.fd = result
        self.goto("listen")
        return sys("bind", self.fd, self.bind_ip, self.port)

    def phase_listen(self, result):
        self.goto("accept")
        return sys("listen", self.fd, 8)

    def phase_accept(self, result):
        self.goto("read")
        return sys("accept", self.fd)

    def phase_read(self, result):
        if isinstance(result, tuple):  # fresh from accept
            self.conn_fd = result[0]
        self.goto("reply")
        return sys("recv", self.conn_fd, 65536)

    def phase_reply(self, result):
        if result == b"":
            self.goto("finish")
            return sys("close", self.conn_fd)
        self.chunk = result
        self.bytes_echoed += len(result)
        self.goto("after_reply")
        return sys("send", self.conn_fd, self.chunk)

    def phase_after_reply(self, result):
        sent = result
        if sent < len(self.chunk):
            self.chunk = self.chunk[sent:]
            self.goto("after_reply")
            return sys("send", self.conn_fd, self.chunk)
        self.goto("reply")
        return sys("recv", self.conn_fd, 65536)

    def phase_finish(self, result):
        return Exit(0)


class EchoClient(PhasedProgram):
    """Send each message, collect its echo, record the replies.

    Uses non-blocking sends interleaved with blocking receives so that
    arbitrarily large messages cannot deadlock against an echoing peer.
    """

    name = "echo-client"
    initial_phase = "socket"

    def __init__(self, server_ip: str, port: int, messages):
        super().__init__()
        self.server_ip = server_ip
        self.port = port
        self.messages = [bytes(m) for m in messages]
        self.replies = []
        self.fd = None
        self.index = 0
        self.buffer = b""
        self.unsent = b""

    def phase_socket(self, result):
        self.goto("connect")
        return sys("socket", "tcp")

    def phase_connect(self, result):
        self.fd = result
        self.unsent = self.messages[0] if self.messages else b""
        self.goto("pump")
        return sys("connect", self.fd, self.server_ip, self.port)

    def phase_pump(self, result):
        if isinstance(result, SyscallError):
            if result.errno != "EAGAIN":
                return Exit(1)
            # Send buffer full: the echo pipeline is saturated; drain it.
            return sys("recv", self.fd, 65536)
        if isinstance(result, int):
            self.unsent = self.unsent[result:]
        elif isinstance(result, bytes):
            if result == b"":
                return Exit(1)  # peer closed early
            self.buffer += result
        expected = self.messages[self.index]
        if len(self.buffer) >= len(expected):
            self.replies.append(self.buffer[:len(expected)])
            self.buffer = self.buffer[len(expected):]
            self.index += 1
            if self.index >= len(self.messages):
                self.goto("finish")
                return sys("close", self.fd)
            self.unsent = self.messages[self.index]
        if self.unsent:
            from repro.simos.syscalls import MSG_DONTWAIT
            return sys("send", self.fd, self.unsent, flags=MSG_DONTWAIT)
        return sys("recv", self.fd, 65536)

    def phase_finish(self, result):
        return Exit(0)


class PipeProducer(PhasedProgram):
    name = "pipe-producer"
    initial_phase = "write"

    def __init__(self, wfd: int, payload: bytes):
        super().__init__()
        self.wfd = wfd
        self.remaining = payload

    def phase_write(self, result):
        if isinstance(result, int):
            self.remaining = self.remaining[result:]
        if not self.remaining:
            self.goto("finish")
            return sys("close", self.wfd)
        return sys("write", self.wfd, self.remaining)

    def phase_finish(self, result):
        return Exit(0)


class PipeConsumer(PhasedProgram):
    name = "pipe-consumer"
    initial_phase = "read"

    def __init__(self, rfd: int):
        super().__init__()
        self.rfd = rfd
        self.received = b""

    def phase_read(self, result):
        if isinstance(result, bytes):
            if result == b"":
                return Exit(0)
            self.received += result
        return sys("read", self.rfd, 4096)


class ShmIncrementer(PhasedProgram):
    """Increment a shared counter under a semaphore, ``rounds`` times."""

    name = "shm-incrementer"
    initial_phase = "setup_shm"

    def __init__(self, key: int, rounds: int, work_s: float = 0.0):
        super().__init__()
        self.key = key
        self.rounds = rounds
        self.work_s = work_s
        self.shmid = None
        self.semid = None
        self.done = 0
        self.value = None

    def phase_setup_shm(self, result):
        self.goto("setup_sem")
        return sys("shmget", self.key, 4096)

    def phase_setup_sem(self, result):
        self.shmid = result
        self.goto("acquire")
        return sys("semget", self.key, 1)

    def phase_acquire(self, result):
        self.semid = result
        if self.done >= self.rounds:
            return Exit(0)
        self.goto("fetch")
        return sys("semop", self.semid, -1)

    def phase_fetch(self, result):
        self.goto("store")
        return sys("shm_read", self.shmid, "counter")

    def phase_store(self, result):
        self.value = (result or 0) + 1
        self.goto("release")
        return sys("shm_write", self.shmid, "counter", self.value)

    def phase_release(self, result):
        self.done += 1
        self.goto("work")
        return sys("semop", self.semid, +1)

    def phase_work(self, result):
        self.goto("acquire_next")
        if self.work_s > 0:
            return sys("compute", self.work_s)
        return sys("gettime")

    def phase_acquire_next(self, result):
        if self.done >= self.rounds:
            return Exit(0)
        self.goto("fetch")
        return sys("semop", self.semid, -1)


class SlowPipeline(PhasedProgram):
    """Writes into a pipe, sleeps, then reads it back (pipe-state tests)."""

    name = "slow-pipeline"
    initial_phase = "pipe"

    def __init__(self):
        super().__init__()
        self.got = None
        self.rfd = None
        self.wfd = None

    def phase_pipe(self, result):
        self.goto("write")
        return sys("pipe")

    def phase_write(self, result):
        self.rfd, self.wfd = result
        self.goto("sleep")
        return sys("write", self.wfd, b"buffered-in-kernel")

    def phase_sleep(self, result):
        self.goto("read")
        return sys("sleep", 1.0)

    def phase_read(self, result):
        self.goto("done")
        return sys("read", self.rfd, 100)

    def phase_done(self, result):
        self.got = result
        return Exit(0)


class FailingProgram(Program):
    """Issues a syscall that fails, records the errno, exits."""

    name = "failing"

    def __init__(self):
        self.errno = None
        self.asked = False

    def step(self, result):
        if not self.asked:
            self.asked = True
            return sys("recv", 999, 100)  # EBADF
        if isinstance(result, SyscallError):
            self.errno = result.errno
        return Exit(0)


class PeekThenRead(PhasedProgram):
    """recv with MSG_PEEK then a consuming recv; used for §4.1 semantics."""

    name = "peek-then-read"
    initial_phase = "socket"

    def __init__(self, port: int):
        super().__init__()
        self.port = port
        self.fd = None
        self.conn_fd = None
        self.peeked = None
        self.consumed = None

    def phase_socket(self, result):
        self.goto("bind")
        return sys("socket", "tcp")

    def phase_bind(self, result):
        self.fd = result
        self.goto("listen")
        return sys("bind", self.fd, None, self.port)

    def phase_listen(self, result):
        self.goto("accept")
        return sys("listen", self.fd)

    def phase_accept(self, result):
        self.goto("peek")
        return sys("accept", self.fd)

    def phase_peek(self, result):
        self.conn_fd = result[0]
        self.goto("read")
        return sys("recv", self.conn_fd, 5, flags=MSG_PEEK)

    def phase_read(self, result):
        self.peeked = result
        self.goto("finish")
        return sys("recv", self.conn_fd, 100)

    def phase_finish(self, result):
        self.consumed = result
        return Exit(0)


class Scripted(Program):
    """A program written as a generator: it yields syscalls and is sent
    their results; its return value is the exit code. For kernel-level
    tests that never checkpoint the process (a generator cannot be
    pickled)."""

    name = "scripted"

    def __init__(self, generator):
        self.generator = generator
        self.started = False

    def step(self, result):
        try:
            if self.started:
                return self.generator.send(result)
            self.started = True
            return next(self.generator)
        except StopIteration as stop:
            return Exit(stop.value or 0)

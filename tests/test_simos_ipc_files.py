"""Pipes, files, shared memory, semaphores."""

import pytest

from repro.cluster import Cluster
from repro.errors import SyscallError
from repro.simos.program import PhasedProgram
from repro.simos.syscalls import Exit, sys

from tests.programs import PipeConsumer, PipeProducer, ShmIncrementer


def make_cluster(n=1):
    return Cluster(n, time_wait_s=0.5)


class PipeParent(PhasedProgram):
    """Creates a pipe, spawns producer and consumer children sharing it."""

    initial_phase = "pipe"

    def __init__(self, payload: bytes):
        super().__init__()
        self.payload = payload
        self.rfd = None
        self.wfd = None
        self.consumer = None
        self.producer_pid = None
        self.consumer_pid = None

    def phase_pipe(self, result):
        self.goto("spawn_producer")
        return sys("pipe")

    def phase_spawn_producer(self, result):
        self.rfd, self.wfd = result
        self.goto("spawn_consumer")
        return sys("spawn", PipeProducer(self.wfd, self.payload),
                   inherit_fds=[self.wfd])

    def phase_spawn_consumer(self, result):
        self.producer_pid = result
        self.consumer = PipeConsumer(self.rfd)
        self.goto("close_w")
        return sys("spawn", self.consumer, inherit_fds=[self.rfd])

    def phase_close_w(self, result):
        self.consumer_pid = result
        # Parent must drop its own pipe ends so EOF propagates.
        self.goto("close_r")
        return sys("close", self.wfd)

    def phase_close_r(self, result):
        self.goto("wait")
        return sys("close", self.rfd)

    def phase_wait(self, result):
        self.goto("done")
        return sys("waitpid", self.consumer_pid)

    def phase_done(self, result):
        return Exit(0)


def test_pipe_producer_consumer_with_eof():
    cluster = make_cluster()
    payload = bytes(range(251)) * 1000  # > pipe capacity: forces blocking
    proc = cluster.nodes[0].spawn(PipeParent(payload))
    cluster.run()
    assert proc.exit_code == 0
    assert proc.program.consumer.received == payload


def test_pipe_write_after_reader_close_is_epipe():
    class Epipe(PhasedProgram):
        initial_phase = "pipe"

        def __init__(self):
            super().__init__()
            self.errno = None

        def phase_pipe(self, result):
            self.goto("close_reader")
            return sys("pipe")

        def phase_close_reader(self, result):
            self.rfd, self.wfd = result
            self.goto("write")
            return sys("close", self.rfd)

        def phase_write(self, result):
            self.goto("check")
            return sys("write", self.wfd, b"doomed")

        def phase_check(self, result):
            if isinstance(result, SyscallError):
                self.errno = result.errno
            return Exit(0)

    cluster = make_cluster()
    proc = cluster.nodes[0].spawn(Epipe())
    cluster.run()
    assert proc.program.errno == "EPIPE"


class FileRoundtrip(PhasedProgram):
    initial_phase = "open_w"

    def __init__(self, path: str, data: bytes):
        super().__init__()
        self.path = path
        self.data = data
        self.fd = None
        self.read_back = None

    def phase_open_w(self, result):
        self.goto("write")
        return sys("open", self.path, "w")

    def phase_write(self, result):
        self.fd = result
        self.goto("seek")
        return sys("write", self.fd, self.data)

    def phase_seek(self, result):
        self.goto("read")
        return sys("seek", self.fd, 0)

    def phase_read(self, result):
        self.goto("close")
        return sys("read", self.fd, len(self.data) * 2)

    def phase_close(self, result):
        self.read_back = result
        self.goto("done")
        return sys("close", self.fd)

    def phase_done(self, result):
        return Exit(0)


def test_file_write_seek_read():
    cluster = make_cluster()
    proc = cluster.nodes[0].spawn(FileRoundtrip("/data/test.bin", b"hello"))
    cluster.run()
    assert proc.program.read_back == b"hello"
    assert cluster.fs.read_at("/data/test.bin", 0, 100) == b"hello"


def test_whole_file_pair_accounts_like_the_offset_calls():
    """read_file/write_file are create+write_at / read_at(0, size) with
    the same bytes and the same byte accounting."""
    from repro.simos.filesystem import SharedFileSystem

    whole, offset = SharedFileSystem(), SharedFileSystem()
    whole.write_file("/r", b"record")
    offset.create("/r")
    offset.write_at("/r", 0, b"record")
    assert whole.read_file("/r") == offset.read_at("/r", 0, 6) == b"record"
    assert offset.read_file("/r") == b"record"  # bytearray-backed too
    assert (whole.bytes_written, whole.bytes_read) == (6, 6)
    assert (offset.bytes_written, offset.bytes_read) == (6, 12)
    with pytest.raises(SyscallError):
        whole.read_file("/absent")


def test_filesystem_shared_across_nodes():
    cluster = make_cluster(n=2)
    writer = cluster.nodes[0].spawn(
        FileRoundtrip("/shared/x", b"from-node0"))
    cluster.run()
    assert writer.exit_code == 0

    class Reader(PhasedProgram):
        initial_phase = "open"

        def __init__(self):
            super().__init__()
            self.content = None

        def phase_open(self, result):
            self.goto("read")
            return sys("open", "/shared/x", "r")

        def phase_read(self, result):
            self.fd = result
            self.goto("done")
            return sys("read", self.fd, 100)

        def phase_done(self, result):
            self.content = result
            return Exit(0)

    reader = cluster.nodes[1].spawn(Reader())
    cluster.run()
    assert reader.program.content == b"from-node0"


def test_open_missing_file_is_enoent():
    cluster = make_cluster()

    class OpenMissing(PhasedProgram):
        initial_phase = "open"

        def __init__(self):
            super().__init__()
            self.errno = None

        def phase_open(self, result):
            self.goto("check")
            return sys("open", "/nope", "r")

        def phase_check(self, result):
            if isinstance(result, SyscallError):
                self.errno = result.errno
            return Exit(0)

    proc = cluster.nodes[0].spawn(OpenMissing())
    cluster.run()
    assert proc.program.errno == "ENOENT"


def test_shared_memory_and_semaphore_mutual_exclusion():
    cluster = make_cluster()
    node = cluster.nodes[0]
    rounds = 25
    workers = [node.spawn(ShmIncrementer(key=7, rounds=rounds))
               for _ in range(4)]
    cluster.run()
    assert all(w.exit_code == 0 for w in workers)
    shmid = node.ipc.shmget(7, 4096)
    assert node.ipc.shm_lookup(shmid).payload["counter"] == 4 * rounds


def test_semaphore_blocks_until_posted():
    cluster = make_cluster()
    node = cluster.nodes[0]

    class Waiter(PhasedProgram):
        initial_phase = "get"

        def __init__(self):
            super().__init__()
            self.finished_at = None

        def phase_get(self, result):
            self.goto("wait")
            return sys("semget", 99, 0)

        def phase_wait(self, result):
            self.semid = result
            self.goto("stamp")
            return sys("semop", self.semid, -1)

        def phase_stamp(self, result):
            self.goto("done")
            return sys("gettime")

        def phase_done(self, result):
            self.finished_at = result
            return Exit(0)

    class Poster(PhasedProgram):
        initial_phase = "sleep"

        def phase_sleep(self, result):
            self.goto("get")
            return sys("sleep", 1.0)

        def phase_get(self, result):
            self.goto("post")
            return sys("semget", 99, 0)

        def phase_post(self, result):
            self.semid = result
            self.goto("done")
            return sys("semop", self.semid, +1)

        def phase_done(self, result):
            return Exit(0)

    waiter = node.spawn(Waiter())
    node.spawn(Poster())
    cluster.run()
    assert waiter.program.finished_at == pytest.approx(1.0, abs=0.01)


def test_ipc_ids_stable_by_key():
    cluster = make_cluster()
    node = cluster.nodes[0]
    a = node.ipc.shmget(1, 100)
    b = node.ipc.shmget(1, 100)
    assert a == b
    node.ipc.shm_remove(a)
    c = node.ipc.shmget(1, 100)
    assert c != a  # new physical id after removal

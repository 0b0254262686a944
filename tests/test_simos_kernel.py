"""Kernel tests: processes, scheduling, signals, errors."""

import pytest

from repro.cluster import Cluster
from repro.simos.process import (
    ProcessState,
    SIGCONT,
    SIGKILL,
    SIGSTOP,
)
from repro.simos.program import PhasedProgram
from repro.simos.syscalls import Exit, sys

from tests.programs import ComputeLoop, FailingProgram, Sleeper


def make_cluster(n=1, **kwargs):
    kwargs.setdefault("time_wait_s", 0.5)
    return Cluster(n, **kwargs)


def test_spawn_run_exit():
    cluster = make_cluster()
    node = cluster.nodes[0]
    proc = node.spawn(ComputeLoop(iterations=3, work_s=0.1))
    cluster.run()
    assert proc.exit_code == 0
    assert proc.program.done == 3
    assert proc.cpu_seconds == pytest.approx(0.3)


def test_compute_respects_cpu_capacity():
    """3 one-second jobs on a 2-CPU node need ~2 s of makespan."""
    cluster = make_cluster(cpus_per_node=2)
    node = cluster.nodes[0]
    for _ in range(3):
        node.spawn(ComputeLoop(iterations=1, work_s=1.0))
    cluster.run()
    assert 2.0 <= cluster.sim.now < 2.1


def test_sleep_does_not_consume_cpu():
    cluster = make_cluster(cpus_per_node=1)
    node = cluster.nodes[0]
    sleepers = [node.spawn(Sleeper(1.0)) for _ in range(5)]
    cluster.run()
    assert all(p.exit_code == 0 for p in sleepers)
    assert cluster.sim.now < 1.1  # sleeps overlap


def test_pids_are_unique_and_increasing():
    cluster = make_cluster()
    node = cluster.nodes[0]
    procs = [node.spawn(Sleeper(0.01)) for _ in range(4)]
    pids = [p.pid for p in procs]
    assert pids == sorted(pids)
    assert len(set(pids)) == 4


def test_syscall_error_delivered_as_result():
    cluster = make_cluster()
    node = cluster.nodes[0]
    proc = node.spawn(FailingProgram())
    cluster.run()
    assert proc.exit_code == 0
    assert proc.program.errno == "EBADF"


def test_unknown_syscall_is_enosys():
    class Weird(FailingProgram):
        def step(self, result):
            if not self.asked:
                self.asked = True
                return sys("frobnicate")
            from repro.errors import SyscallError
            if isinstance(result, SyscallError):
                self.errno = result.errno
            return Exit(0)

    cluster = make_cluster()
    proc = cluster.nodes[0].spawn(Weird())
    cluster.run()
    assert proc.program.errno == "ENOSYS"


def test_sigstop_freezes_progress_and_sigcont_resumes():
    cluster = make_cluster()
    node = cluster.nodes[0]
    proc = node.spawn(ComputeLoop(iterations=100, work_s=0.01))
    cluster.run_for(0.105)
    done_at_stop = proc.program.done
    node.signal_now(proc.pid, SIGSTOP)
    cluster.run_for(0.5)
    # One in-flight compute may finish, but no further steps run.
    assert proc.program.done <= done_at_stop + 1
    assert proc.state == ProcessState.STOPPED
    node.signal_now(proc.pid, SIGCONT)
    cluster.run()
    assert proc.program.done == 100
    assert proc.exit_code == 0


def test_sigkill_terminates_blocked_process():
    class BlockForever(PhasedProgram):
        initial_phase = "pipe"

        def __init__(self):
            super().__init__()
            self.rfd = None

        def phase_pipe(self, result):
            self.goto("read")
            return sys("pipe")

        def phase_read(self, result):
            if isinstance(result, tuple):
                self.rfd = result[0]
            return sys("read", self.rfd, 10)

    cluster = make_cluster()
    node = cluster.nodes[0]
    proc = node.spawn(BlockForever())
    cluster.run_for(0.1)
    assert proc.state == ProcessState.BLOCKED
    node.kill(proc.pid, SIGKILL)
    cluster.run_for(0.1)
    assert proc.exit_code == -9


def test_sigkill_of_blocked_readers_leaves_no_waiter_on_the_pipe():
    """A read that blocks waits on one event on the pipe; a kill
    mid-wait used to leave it there for good, one per process."""
    from repro.simos.files import Descriptor, Pipe

    from tests.programs import Scripted

    def reader():
        yield sys("read", 3, 10)

    cluster = make_cluster()
    node = cluster.nodes[0]
    pipe = Pipe(cluster.sim)
    procs = []
    for _ in range(200):
        proc = node.spawn(Scripted(reader()))
        proc.fds.install_at(3, Descriptor(pipe, mode="r"))
        procs.append(proc)
    cluster.run_for(0.1)
    assert all(proc.state == ProcessState.BLOCKED for proc in procs)
    assert len(pipe.read_waiters) == 200
    for proc in procs:
        node.signal_now(proc.pid, SIGKILL)
    cluster.run_for(0.1)
    assert all(proc.exit_code == -9 for proc in procs)
    assert pipe.read_waiters == []


def test_sigkill_while_paying_a_syscalls_cost():
    """The cost is a bare queue entry; the one a kill leaves behind fires
    with nobody to resume."""
    cluster = make_cluster()
    node = cluster.nodes[0]
    proc = node.spawn(Sleeper(1.0))
    cluster.sim.step()          # the first step is taken: paying for it
    assert proc.current_syscall.name == "sleep" and cluster.sim.now == 0.0
    node.signal_now(proc.pid, SIGKILL)
    cluster.run()
    assert proc.exit_code == -9
    assert cluster.sim.now < 1.0        # the sleep itself never began


def test_waitpid_returns_child_exit_code():
    class Parent(PhasedProgram):
        initial_phase = "spawn"

        def __init__(self):
            super().__init__()
            self.child_pid = None
            self.child_code = None

        def phase_spawn(self, result):
            self.goto("wait")
            return sys("spawn", Sleeper(0.05))

        def phase_wait(self, result):
            self.child_pid = result
            self.goto("done")
            return sys("waitpid", self.child_pid)

        def phase_done(self, result):
            self.child_code = result
            return Exit(0)

    cluster = make_cluster()
    proc = cluster.nodes[0].spawn(Parent())
    cluster.run()
    assert proc.program.child_code == 0


def test_exit_closes_descriptors():
    class LeaveOpen(PhasedProgram):
        initial_phase = "pipe"

        def phase_pipe(self, result):
            self.goto("done")
            return sys("pipe")

        def phase_done(self, result):
            self.pipe_fds = result
            return Exit(0)

    cluster = make_cluster()
    node = cluster.nodes[0]
    proc = node.spawn(LeaveOpen())
    cluster.run()
    assert len(proc.fds) == 0


def test_gettime_tracks_simulation_clock():
    class Clocky(PhasedProgram):
        initial_phase = "sleep"

        def __init__(self):
            super().__init__()
            self.t = None

        def phase_sleep(self, result):
            self.goto("ask")
            return sys("sleep", 2.5)

        def phase_ask(self, result):
            self.goto("done")
            return sys("gettime")

        def phase_done(self, result):
            self.t = result
            return Exit(0)

    cluster = make_cluster()
    proc = cluster.nodes[0].spawn(Clocky())
    cluster.run()
    assert proc.program.t == pytest.approx(2.5, abs=0.01)


def test_memory_accounting_syscalls():
    class Mapper(PhasedProgram):
        initial_phase = "map"

        def phase_map(self, result):
            self.goto("touch")
            return sys("mmap", "grid", 1 << 20)

        def phase_touch(self, result):
            self.goto("done")
            return sys("mtouch", "grid", fraction=0.5)

        def phase_done(self, result):
            return Exit(0)

    cluster = make_cluster()
    node = cluster.nodes[0]
    proc = node.spawn(Mapper())
    cluster.run()
    assert proc.memory.resident_bytes == 1 << 20
    assert proc.memory.dirty_bytes() > 0


def test_reserve_pid_skips_taken_ids():
    cluster = make_cluster()
    node = cluster.nodes[0]
    node.reserve_pid(50)
    proc = node.spawn(Sleeper(0.01))
    assert proc.pid == 51

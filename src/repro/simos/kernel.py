"""The per-node kernel: processes, syscall dispatch, scheduling.

A :class:`Node` owns one :class:`~repro.simos.netstack.NetworkStack`, an IPC
namespace, a CPU pool, and a process table. Application programs run as
explicit state machines; the kernel drives each through a simulation
coroutine that executes its syscalls, blocking on events where Unix would
block.

The Zap layer hooks in through ``interposer_for``: if the owning pod
provides an interposer, every syscall is passed through it for rewriting
(bind/connect/ioctl, §4.2) and every result for translation (virtual PIDs).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Union

from repro.errors import SyscallError
from repro.net.addresses import ANY_IP, Ipv4Address
from repro.net.nic import Nic
from repro.sim.core import Event, Interrupt, SimProcess, Simulator
from repro.sim.resources import Resource
from repro.sim.trace import Trace
from repro.simos.costs import DEFAULT_COSTS
from repro.simos.files import (
    Descriptor,
    Pipe,
    RegularFile,
    WouldBlock,
)
from repro.simos.filesystem import SharedFileSystem
from repro.simos.ipc import IpcNamespace
from repro.simos.netstack import NetworkStack
from repro.simos.process import (
    ProcessControlBlock,
    ProcessState,
    SIGKILL,
    SIGSTOP,
)
from repro.simos.program import Program
from repro.simos.sockets import TcpSocket, UdpSocket
from repro.tcp.state import SYNCHRONISED_STATES, TcpState
from repro.simos.syscalls import (
    Exit,
    MSG_DONTWAIT,
    SIOCGIFHWADDR,
    Syscall,
)


def as_ip(value: Union[str, Ipv4Address, None]) -> Ipv4Address:
    if value is None:
        return ANY_IP
    if isinstance(value, Ipv4Address):
        return value
    return Ipv4Address.parse(value)


class SyscallInterposer:
    """Interface the Zap layer implements to wrap the syscall table."""

    def rewrite(self, proc: ProcessControlBlock,
                call: Syscall) -> Syscall:
        return call

    def translate_result(self, proc: ProcessControlBlock, call: Syscall,
                         result: Any) -> Any:
        return result


class Node:
    """One machine of the cluster."""

    def __init__(self, sim: Simulator, name: str, nic: Nic,
                 fs: SharedFileSystem,
                 trace: Optional[Trace] = None, cpus: int = 2,
                 time_wait_s: float = 60.0, iss_seed: int = 1):
        self.sim = sim
        self.name = name
        self.fs = fs
        self.costs = DEFAULT_COSTS
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.stack = NetworkStack(sim, name, nic, time_wait_s=time_wait_s,
                                  iss_seed=iss_seed)
        # TCP connections report retransmit/drain telemetry into the
        # node's trace hub (spans + typed metrics).
        self.stack.tcp.telemetry = self.trace
        self.ipc = IpcNamespace(sim)
        self.cpu = Resource(sim, cpus, name=f"{name}.cpu")
        self.processes: Dict[int, ProcessControlBlock] = {}
        self._next_pid = 1
        self._tasks: Dict[int, SimProcess] = {}
        #: syscall name -> handler, called ``handler(node, proc, call)``:
        #: this node's copy of the class's table.
        self._handlers: Dict[str, Callable] = dict(_HANDLERS)
        #: pod_id -> interposer; registered by the Zap layer.
        self.interposers: Dict[int, SyscallInterposer] = {}

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------

    def allocate_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def reserve_pid(self, pid: int) -> None:
        """Force the allocator past ``pid`` (used by tests simulating
        pid-collision scenarios)."""
        self._next_pid = max(self._next_pid, pid + 1)

    def spawn(self, program: Program, name: str = "", pod=None,
              ppid: int = 0) -> ProcessControlBlock:
        """Create a process and start running it."""
        pid = self.allocate_pid()
        proc = ProcessControlBlock(self.sim, pid, program, name=name,
                                   ppid=ppid)
        if pod is not None:
            proc.pod = pod
        self.processes[pid] = proc
        task = self.sim.process(self._loop(proc), name=f"{self.name}:pid"
                                                       f"{pid}")
        self._tasks[pid] = task
        return proc

    def kill(self, pid: int, sig: str) -> None:
        proc = self.processes.get(pid)
        if proc is None:
            raise SyscallError("ESRCH", f"pid {pid}")
        self.sim.call_later(self.costs.signal_delivery,
                            self._deliver_signal, proc, sig)

    def signal_now(self, pid: int, sig: str) -> None:
        """Immediate (same-instant) signal delivery, used by the kernel
        itself (e.g. the checkpoint path stopping a pod)."""
        proc = self.processes.get(pid)
        if proc is None:
            raise SyscallError("ESRCH", f"pid {pid}")
        self._deliver_signal(proc, sig)

    def _deliver_signal(self, proc: ProcessControlBlock, sig: str) -> None:
        proc.signal(sig)
        if sig in (SIGKILL, "SIGTERM"):
            task = self._tasks.get(proc.pid)
            if task is not None and task.is_alive:
                task.interrupt("killed")

    def reap(self, pid: int) -> None:
        """Remove a zombie (or force-remove any process record)."""
        proc = self.processes.pop(pid, None)
        self._tasks.pop(pid, None)
        if proc is not None and proc.exit_code is None:
            proc.mark_exited(-9)

    def interposer_for(
            self, proc: ProcessControlBlock) -> Optional[SyscallInterposer]:
        if proc.pod is None:
            return None
        return self.interposers.get(proc.pod.pod_id)

    # ------------------------------------------------------------------
    # The process execution loop
    # ------------------------------------------------------------------

    def _stop_gate(self, proc: ProcessControlBlock) -> Generator:
        while proc.stopped and not proc.killed:
            proc.state = ProcessState.STOPPED
            yield proc.wait_continue()
        if not proc.killed:
            proc.state = ProcessState.RUNNABLE

    def _loop(self, proc: ProcessControlBlock) -> Generator:
        """Run ``proc`` a syscall at a time. Its next step lives in its PCB
        only (``current_syscall``, ``pending_result``): a result is stored
        the moment its handler returns, so a capture at any yield has it."""
        exit_code = 0
        try:
            while True:
                if proc.stopped:
                    yield from self._stop_gate(proc)
                elif not proc.killed:
                    proc.state = ProcessState.RUNNABLE
                if proc.killed:
                    exit_code = -9
                    break
                call = proc.current_syscall
                if call is None:
                    try:
                        step = proc.program.step(proc.pending_result)
                    except Exception as exc:  # noqa: BLE001 - app crash
                        # An application bug kills the process, not the
                        # node (the kernel survives a segfault).
                        proc.crash_exception = exc
                        self.trace.spans.instant(
                            "proc.crash", node=self.name, pid=proc.pid,
                            error=repr(exc))
                        exit_code = -11  # SIGSEGV-style
                        break
                    proc.pending_result = None
                    if isinstance(step, Exit):
                        exit_code = step.code
                        break
                    call = proc.current_syscall = step
                proc.syscall_count += 1
                interposer = self.interposer_for(proc)
                try:
                    cost = self.costs.syscall_time
                    if interposer is not None:
                        call = interposer.rewrite(proc, call)
                        cost += self.costs.pod_syscall_overhead
                    handler = self._handlers.get(call.name)
                    if handler is None:
                        raise SyscallError("ENOSYS", call.name)
                    yield cost
                    result = yield from handler(self, proc, call)
                    if interposer is not None:
                        result = interposer.translate_result(
                            proc, call, result)
                except SyscallError as err:
                    result = err
                proc.pending_result = result
                proc.current_syscall = None
        except Interrupt:
            exit_code = -9
        except GeneratorExit:
            # Kills arrive as throw(Interrupt), never close(): only the
            # garbage collector finalizing a dropped simulator raises
            # this. Cleaning up now would allocate events that point
            # back into the garbage and keep the whole cluster alive
            # for another collector pass, so just let the frame die.
            raise
        except BaseException:
            self._reap(proc)
            raise
        self._reap(proc)
        proc.mark_exited(exit_code)
        return exit_code

    def _reap(self, proc: ProcessControlBlock) -> None:
        self._cleanup(proc)
        if self.trace.sanitizer is not None:
            self.trace.sanitizer.check_process_exit(
                self.name, proc, time=self.sim.now)

    def _cleanup(self, proc: ProcessControlBlock) -> None:
        for fd in proc.fds.fds():
            try:
                self._close_descriptor(proc.fds.remove(fd))
            except SyscallError:  # cruz: noqa[CRZ003]
                # Teardown double-close (e.g. both pipe ends already
                # gone) is benign; the descriptor was removed above.
                pass

    def _close_descriptor(self, descriptor: Descriptor) -> None:
        obj = descriptor.obj
        if isinstance(obj, Pipe):
            if "r" in descriptor.mode:
                obj.close_side("r")
            if "w" in descriptor.mode:
                obj.close_side("w")
        elif isinstance(obj, (TcpSocket, UdpSocket)):
            obj.close()

    def _blocking(self, proc: ProcessControlBlock, attempt: Callable,
                  waiters: List[Event], name: str) -> Generator:
        """Run ``attempt`` until it stops raising WouldBlock, waiting on
        an event ``name`` in ``waiters`` (the object's read or write
        waiters) between tries. However the wait ends — woken, killed,
        collected — the event leaves the list, as a blocked poll's does."""
        while True:
            try:
                return attempt()
            except WouldBlock:
                proc.state = ProcessState.BLOCKED
                woken = self.sim.event(name)
                waiters.append(woken)
                try:
                    yield woken
                finally:
                    # A wake swaps the list out; then it is gone already.
                    if woken in waiters:
                        waiters.remove(woken)
                yield from self._stop_gate(proc)
                if proc.killed:
                    raise SyscallError("EINTR", "killed")

    # ------------------------------------------------------------------
    # fd helpers
    # ------------------------------------------------------------------

    def _descriptor(self, proc: ProcessControlBlock, fd: int) -> Descriptor:
        return proc.fds.get(fd)

    def _tcp_socket(self, proc: ProcessControlBlock, fd: int) -> TcpSocket:
        obj = self._descriptor(proc, fd).obj
        if not isinstance(obj, TcpSocket):
            raise SyscallError("ENOTSOCK", f"fd {fd}")
        return obj

    def _udp_socket(self, proc: ProcessControlBlock, fd: int) -> UdpSocket:
        obj = self._descriptor(proc, fd).obj
        if not isinstance(obj, UdpSocket):
            raise SyscallError("ENOTSOCK", f"fd {fd}")
        return obj

    # ------------------------------------------------------------------
    # Syscall handlers. Each is a generator: ``yield`` to block, ``return``
    # the result.
    # ------------------------------------------------------------------

    # -- time & CPU ------------------------------------------------------

    def _sys_compute(self, proc, call) -> Generator:
        (seconds,) = call.args
        grant = self.cpu.request()
        try:
            yield grant
            yield self.sim.timeout(seconds)
        except GeneratorExit:
            # Collector-time only (see _loop): the CPU is garbage too.
            raise
        except BaseException:
            # Killed while queued for or holding a CPU: withdraw the
            # request (a granted one is released) so the slot is never
            # kept by a dead process.
            self.cpu.cancel(grant)
            raise
        self.cpu.release()
        proc.cpu_seconds += seconds
        return None

    def _sys_sleep(self, proc, call) -> Generator:
        (seconds,) = call.args
        yield self.sim.timeout(seconds)
        return None

    def _sys_gettime(self, proc, call) -> Generator:
        return self.sim.now
        yield  # pragma: no cover - makes this a generator

    # -- identity ----------------------------------------------------------

    def _sys_getpid(self, proc, call) -> Generator:
        return proc.pid
        yield  # pragma: no cover

    def _sys_getppid(self, proc, call) -> Generator:
        return proc.ppid
        yield  # pragma: no cover

    # -- process control ---------------------------------------------------

    def _child(self, proc: ProcessControlBlock, program: Program,
               name: str, fds) -> ProcessControlBlock:
        """A new process in ``proc``'s pod sharing its descriptors
        ``fds``. A stop that reached ``proc`` while the call ran reaches
        the child too, as a group stop reaches both sides of a fork."""
        child = self.spawn(program, name=name, pod=proc.pod, ppid=proc.pid)
        if proc.stopped:
            child.signal(SIGSTOP)
        for fd in fds:
            descriptor = proc.fds.get(fd)
            child.fds.install_at(
                fd, Descriptor(descriptor.obj, descriptor.mode))
            if isinstance(descriptor.obj, Pipe):
                if "r" in descriptor.mode:
                    descriptor.obj.readers += 1
                if "w" in descriptor.mode:
                    descriptor.obj.writers += 1
        if proc.pod is not None:
            proc.pod.adopt(child)
        return child

    def _sys_spawn(self, proc, call) -> Generator:
        (program,) = call.args
        child = self._child(proc, program, call.kwargs.get("name", ""),
                            call.kwargs.get("inherit_fds", ()))
        return child.pid
        yield  # pragma: no cover

    def _sys_fork(self, proc, call) -> Generator:
        """fork() — duplicate the calling process.

        The parent's step receives ``("parent", child_pid)``; the child —
        a deep copy of the program, memory accounting and descriptor
        table — receives ``("child", 0)`` as its first result. Sockets
        and pipes are shared objects, as on Unix.
        """
        import copy
        child = self._child(proc, copy.deepcopy(proc.program), proc.name,
                            proc.fds.fds())
        child.pending_result = ("child", 0)
        child.memory = proc.memory.snapshot()
        return ("parent", child.pid)
        yield  # pragma: no cover

    def _sys_kill(self, proc, call) -> Generator:
        pid, sig = call.args
        self.kill(pid, sig)
        return None
        yield  # pragma: no cover

    def _sys_waitpid(self, proc, call) -> Generator:
        (pid,) = call.args
        target = self.processes.get(pid)
        if target is None:
            raise SyscallError("ECHILD", f"pid {pid}")
        code = yield target.exit_event
        return code

    def _sys_log(self, proc, call) -> Generator:
        (message,) = call.args
        self.trace.spans.instant("app.log", node=self.name, pid=proc.pid,
                                 message=message, **call.kwargs)
        return None
        yield  # pragma: no cover

    # -- memory accounting ---------------------------------------------------

    def _sys_mmap(self, proc, call) -> Generator:
        name, nbytes = call.args
        proc.memory.allocate(name, nbytes)
        return None
        yield  # pragma: no cover

    def _sys_munmap(self, proc, call) -> Generator:
        (name,) = call.args
        proc.memory.free(name)
        return None
        yield  # pragma: no cover

    def _sys_mtouch(self, proc, call) -> Generator:
        (name,) = call.args
        proc.memory.touch(name, call.kwargs.get("fraction", 1.0))
        return None
        yield  # pragma: no cover

    # -- pipes and files -----------------------------------------------------

    def _sys_pipe(self, proc, call) -> Generator:
        pipe = Pipe(self.sim)
        rfd = proc.fds.install(Descriptor(pipe, mode="r"))
        wfd = proc.fds.install(Descriptor(pipe, mode="w"))
        return (rfd, wfd)
        yield  # pragma: no cover

    def _sys_open(self, proc, call) -> Generator:
        path, mode = call.args
        regular = RegularFile(self.sim, self.fs, path, mode)
        return proc.fds.install(Descriptor(regular, mode=mode))
        yield  # pragma: no cover

    def _sys_read(self, proc, call) -> Generator:
        fd, nbytes = call.args
        descriptor = self._descriptor(proc, fd)
        obj = descriptor.obj
        if isinstance(obj, RegularFile):
            return obj.read(nbytes)
        if isinstance(obj, Pipe):
            if "r" not in descriptor.mode:
                raise SyscallError("EBADF", "not open for reading")
            result = yield from self._blocking(
                proc, lambda: obj.read(nbytes), obj.read_waiters,
                "readable")
            return result
        raise SyscallError("EBADF", f"fd {fd} not readable")

    def _sys_write(self, proc, call) -> Generator:
        fd, data = call.args
        descriptor = self._descriptor(proc, fd)
        obj = descriptor.obj
        if isinstance(obj, RegularFile):
            if data:
                # Stable-storage writes pay disk latency + bandwidth.
                yield self.sim.timeout(
                    self.costs.disk_op_latency +
                    len(data) / self.costs.disk_write_bandwidth)
            return obj.write(data)
        if isinstance(obj, Pipe):
            if "w" not in descriptor.mode:
                raise SyscallError("EBADF", "not open for writing")
            result = yield from self._blocking(
                proc, lambda: obj.write(data), obj.write_waiters,
                "writable")
            return result
        raise SyscallError("EBADF", f"fd {fd} not writable")

    def _sys_seek(self, proc, call) -> Generator:
        fd, offset = call.args
        obj = self._descriptor(proc, fd).obj
        if not isinstance(obj, RegularFile):
            raise SyscallError("ESPIPE", f"fd {fd}")
        return obj.seek(offset)
        yield  # pragma: no cover

    def _sys_unlink(self, proc, call) -> Generator:
        (path,) = call.args
        self.fs.unlink(path)
        return None
        yield  # pragma: no cover

    def _sys_close(self, proc, call) -> Generator:
        (fd,) = call.args
        self._close_descriptor(proc.fds.remove(fd))
        return None
        yield  # pragma: no cover

    # -- sockets ---------------------------------------------------------

    def _sys_socket(self, proc, call) -> Generator:
        kind = call.args[0] if call.args else "tcp"
        if kind == "tcp":
            sock: Any = TcpSocket(self.sim, self.stack)
        elif kind == "udp":
            sock = UdpSocket(self.sim, self.stack)
        else:
            raise SyscallError("EINVAL", f"socket type {kind}")
        return proc.fds.install(Descriptor(sock))
        yield  # pragma: no cover

    def _sys_bind(self, proc, call) -> Generator:
        fd, ip, port = call.args
        obj = self._descriptor(proc, fd).obj
        if isinstance(obj, (TcpSocket, UdpSocket)):
            obj.bind(as_ip(ip), port)
            return None
        raise SyscallError("ENOTSOCK", f"fd {fd}")
        yield  # pragma: no cover

    def _sys_listen(self, proc, call) -> Generator:
        fd = call.args[0]
        backlog = call.args[1] if len(call.args) > 1 else 16
        self._tcp_socket(proc, fd).listen(backlog)
        return None
        yield  # pragma: no cover

    def _sys_accept(self, proc, call) -> Generator:
        (fd,) = call.args
        sock = self._tcp_socket(proc, fd)
        if sock.listener is None:
            raise SyscallError("EINVAL", "accept on non-listening socket")
        connection = yield sock.listener.accept()
        child = TcpSocket(self.sim, self.stack)
        child.adopt(connection)
        newfd = proc.fds.install(Descriptor(child))
        tcb = connection.tcb
        return (newfd, (str(tcb.remote_ip), tcb.remote_port))

    def _sys_connect(self, proc, call) -> Generator:
        fd, ip, port = call.args
        sock = self._tcp_socket(proc, fd)
        bind_ip = call.kwargs.get("bind_ip")
        if bind_ip is not None and sock.bound is None:
            # The Zap connect wrapper: "invokes bind prior to the original
            # function" so the socket originates from the pod's VIF (§4.2).
            local_ip = as_ip(bind_ip)
            sock.bind(local_ip, self.stack.tcp.allocate_port(local_ip))
        connection = sock.start_connect(as_ip(ip), port)
        if call.kwargs.get("nonblock"):
            # O_NONBLOCK connect: the handshake proceeds in the
            # background; the caller watches it with ``connstat`` (an
            # event-driven daemon must never stall its whole loop on one
            # peer's handshake timeout).
            return None
        try:
            yield connection.established_event
        except Exception as exc:  # refused (RST) or handshake timeout
            sock.connection = None
            raise SyscallError("ECONNREFUSED", str(exc))
        return None

    def _sys_connstat(self, proc, call) -> Generator:
        """connstat(fd) -> "connecting" | "established" | "failed".

        The SO_ERROR-after-nonblocking-connect idiom. A socket whose
        in-flight handshake was torn down (refused, handshake timeout, or
        a checkpoint/restore that scrubbed the embryo — an unsynchronised
        connection is restored as merely *bound*) reports "failed"; the
        caller closes the fd and retries with a fresh socket.
        """
        (fd,) = call.args
        sock = self._tcp_socket(proc, fd)
        connection = sock.connection
        if connection is None:
            return "failed"
        state = connection.tcb.state
        if state in SYNCHRONISED_STATES:
            return "established"
        if state in (TcpState.SYN_SENT, TcpState.SYN_RCVD):
            return "connecting"
        sock.connection = None  # CLOSED embryo: reusable after re-socket
        return "failed"
        yield  # pragma: no cover

    def _sys_send(self, proc, call) -> Generator:
        fd, data = call.args
        flags = call.kwargs.get("flags", 0)
        sock = self._tcp_socket(proc, fd)
        if flags & MSG_DONTWAIT:
            try:
                return sock.send(data)
            except WouldBlock:
                raise SyscallError("EAGAIN", "send would block")
        result = yield from self._blocking(
            proc, lambda: sock.send(data), sock.write_waiters, "writable")
        return result

    def _sys_recv(self, proc, call) -> Generator:
        fd, max_bytes = call.args
        flags = call.kwargs.get("flags", 0)
        sock = self._tcp_socket(proc, fd)
        if flags & MSG_DONTWAIT:
            try:
                return sock.recv(max_bytes, flags)
            except WouldBlock:
                raise SyscallError("EAGAIN", "recv would block")
        result = yield from self._blocking(
            proc, lambda: sock.recv(max_bytes, flags), sock.read_waiters,
            "readable")
        return result

    def _sys_sendto(self, proc, call) -> Generator:
        fd, payload, ip, port = call.args
        sock = self._udp_socket(proc, fd)
        sock.sendto(payload, as_ip(ip), port,
                    src_ip=call.kwargs.get("src_ip"),
                    payload_size=call.kwargs.get("size"))
        return None
        yield  # pragma: no cover

    def _sys_recvfrom(self, proc, call) -> Generator:
        (fd,) = call.args
        sock = self._udp_socket(proc, fd)
        result = yield from self._blocking(
            proc, sock.recvfrom, sock.read_waiters, "readable")
        payload, src_ip, src_port = result
        return (payload, str(src_ip), src_port)

    def _sys_poll(self, proc, call) -> Generator:
        """poll(fds, timeout=None) -> list of fds readable right now.

        A socket is "readable" when data (or a pending accept, or EOF)
        is available; a pipe when it has bytes or its writers are gone;
        a regular file always. ``timeout`` of None blocks until
        something is ready; a number bounds the wait (0 = pure poll).

        The descriptors are resolved once, so a bad one is ``EBADF``
        before anything is registered. A blocked poll is one event put
        on every watched object's waiter list, plus at most one deadline
        timer that succeeds the same event; whichever way the wait ends
        — woken, killed, collected — the event is withdrawn from every
        list still holding it and the timer is cancelled.
        """
        (fds,) = call.args
        timeout = call.kwargs.get("timeout")
        resolve = proc.fds.get
        watched = [(fd, resolve(fd).obj) for fd in fds]
        listeners = [obj.listener for _fd, obj in watched
                     if isinstance(obj, TcpSocket)
                     and obj.listener is not None]
        sim = self.sim
        deadline = None if timeout is None else sim.now + timeout
        while True:
            ready = [fd for fd, obj in watched if obj.poll_readable()]
            if ready:
                return ready
            if deadline is not None and sim.now >= deadline:
                return []
            proc.state = ProcessState.BLOCKED
            woken = sim.event("poll")
            joined = [obj.read_waiters for _fd, obj in watched]
            joined += [listener._pending_notify for listener in listeners]
            for waiters in joined:
                waiters.append(woken)
            timer = None if deadline is None else sim.call_later(
                max(0.0, deadline - sim.now), self._poll_expired, woken)
            try:
                yield woken
            finally:
                # A list its owner has swapped out since is no longer
                # anybody's; taking the event off it is harmless.
                for waiters in joined:
                    if woken in waiters:
                        waiters.remove(woken)
                if timer is not None:
                    sim.cancel(timer)
            yield from self._stop_gate(proc)
            if proc.killed:
                raise SyscallError("EINTR", "killed")

    @staticmethod
    def _poll_expired(woken) -> None:
        if not woken.triggered:
            woken.succeed()

    def _sys_setsockopt(self, proc, call) -> Generator:
        fd, option, value = call.args
        self._tcp_socket(proc, fd).set_option(option, value)
        return None
        yield  # pragma: no cover

    def _sys_getsockopt(self, proc, call) -> Generator:
        fd, option = call.args
        return self._tcp_socket(proc, fd).get_option(option)
        yield  # pragma: no cover

    def _sys_getsockname(self, proc, call) -> Generator:
        (fd,) = call.args
        sock = self._tcp_socket(proc, fd)
        if sock.connection is not None:
            tcb = sock.connection.tcb
            return (str(tcb.local_ip), tcb.local_port)
        if sock.bound is not None:
            ip, port = sock.bound
            return (str(ip), port)
        raise SyscallError("EINVAL", "socket has no name")
        yield  # pragma: no cover

    def _sys_getpeername(self, proc, call) -> Generator:
        (fd,) = call.args
        sock = self._tcp_socket(proc, fd)
        if sock.connection is None:
            raise SyscallError("ENOTCONN", "no peer")
        tcb = sock.connection.tcb
        return (str(tcb.remote_ip), tcb.remote_port)
        yield  # pragma: no cover

    # -- SysV IPC ------------------------------------------------------------

    def _sys_shmget(self, proc, call) -> Generator:
        key, size = call.args
        return self.ipc.shmget(key, size)
        yield  # pragma: no cover

    def _sys_shm_write(self, proc, call) -> Generator:
        shmid, field, value = call.args
        self.ipc.shm_lookup(shmid).payload[field] = value
        return None
        yield  # pragma: no cover

    def _sys_shm_read(self, proc, call) -> Generator:
        shmid, field = call.args
        return self.ipc.shm_lookup(shmid).payload.get(field)
        yield  # pragma: no cover

    def _sys_semget(self, proc, call) -> Generator:
        key = call.args[0]
        initial = call.args[1] if len(call.args) > 1 else 0
        return self.ipc.semget(key, initial)
        yield  # pragma: no cover

    def _sys_semop(self, proc, call) -> Generator:
        semid, delta = call.args
        semaphore = self.ipc.sem_lookup(semid)
        if not semaphore.op(delta):
            proc.state = ProcessState.BLOCKED
            waiter = semaphore.wait_event(delta)
            try:
                yield waiter
            except BaseException:
                semaphore.cancel_wait(waiter)
                raise
        return None

    def on_pod_exit(self, pod) -> None:
        """Reclaim a departing pod's SysV IPC and run pod-exit checks.

        Pod-private shm/sem keys embed the pod id in their top bits
        (``key >> 32``), so everything the pod ever created is found
        here and released — segments must not outlive the pod (their
        contents live on in checkpoint images, and a restart re-creates
        them via ``restore_shm``/``restore_sem``). The sanitizer then
        verifies the pause/resume pairing and that nothing in the pod's
        key namespace survived.
        """
        for shmid in [segment.shmid for segment in self.ipc.shm.values()
                      if segment.key >> 32 == pod.pod_id]:
            self.ipc.shm_remove(shmid)
        for semid in [sem.semid for sem in self.ipc.sem.values()
                      if sem.key >> 32 == pod.pod_id]:
            self.ipc.sem_remove(semid)
        if self.trace.sanitizer is not None:
            self.trace.sanitizer.check_pod_exit(pod, time=self.sim.now)

    # -- device control --------------------------------------------------------

    def _sys_ioctl(self, proc, call) -> Generator:
        request, arg = call.args
        if request == SIOCGIFHWADDR:
            interface = self.stack.interfaces.get(arg)
            return interface.mac
        raise SyscallError("EINVAL", f"ioctl {request}")
        yield  # pragma: no cover

    def __repr__(self) -> str:
        return f"<Node {self.name} procs={len(self.processes)}>"


#: Every ``Node._sys_<name>`` method as the plain function, by ``name``:
#: built once, copied by each node.
_HANDLERS: Dict[str, Callable] = {
    name[len("_sys_"):]: handler for name, handler in vars(Node).items()
    if name.startswith("_sys_")}

"""The reference ``poll``: one event per descriptor under an ``AnyOf``.

The body of ``Node._sys_poll`` as it stood before a blocked poll became
one shared event — verbatim, with ``self`` spelled ``node``, and with
``Listener.wait_pending``, ``TcpSocket.recv_available`` and
``KernelObject.wait_readable`` (which only this handler used) moved
here. It re-resolves every descriptor per scan, asks readiness through
the ``isinstance`` ladder, allocates a ``wait_readable`` event per
descriptor (plus one per listener and a ``Timeout``) and withdraws none
of them. That is exactly the behaviour the
kernel's handler must reproduce as seen by a program — the same fds at
the same simulated instants — so this stays the plain per-descriptor wait
and is not to be optimised.

Install it with ``install_reference_poll(node)``.
"""

from repro.errors import SyscallError
from repro.simos.files import Pipe
from repro.simos.process import ProcessState
from repro.simos.sockets import TcpSocket, UdpSocket


def _wait_pending(listener):
    """Event that fires when the accept queue is (or becomes) non-empty,
    without consuming anything (poll semantics)."""
    event = listener.stack.sim.event(f"pending(:{listener.port})")
    if listener.accept_queue:
        event.succeed()
    else:
        listener._pending_notify.append(event)
    return event


def _wait_readable(obj):
    event = obj.sim.event("readable")
    obj.read_waiters.append(event)
    return event


def _recv_available(sock):
    conn = sock.connection
    backlog = len(sock.alternate)
    if conn is not None:
        backlog += conn.available
    return backlog


def reference_sys_poll(node, proc, call):
    (fds,) = call.args
    timeout = call.kwargs.get("timeout")

    def ready_now():
        ready = []
        for fd in fds:
            obj = node._descriptor(proc, fd).obj
            if isinstance(obj, TcpSocket):
                if _recv_available(obj) > 0:
                    ready.append(fd)
                elif obj.listener is not None and \
                        obj.listener.accept_queue:
                    ready.append(fd)
                elif obj.connection is not None and (
                        obj.connection.peer_closed or
                        obj.connection.state.value in
                        ("CLOSED", "TIME_WAIT")):
                    ready.append(fd)
            elif isinstance(obj, UdpSocket):
                if obj.queue:
                    ready.append(fd)
            elif isinstance(obj, Pipe):
                if obj.buffer or obj.writers == 0:
                    ready.append(fd)
        return ready

    deadline = None if timeout is None else node.sim.now + timeout
    while True:
        ready = ready_now()
        if ready:
            return ready
        if deadline is not None and node.sim.now >= deadline:
            return []
        proc.state = ProcessState.BLOCKED
        waiters = []
        for fd in fds:
            obj = node._descriptor(proc, fd).obj
            if isinstance(obj, TcpSocket) and obj.listener is not None:
                waiters.append(_wait_pending(obj.listener))
            waiters.append(_wait_readable(obj))
        if deadline is not None:
            waiters.append(node.sim.timeout(
                max(0.0, deadline - node.sim.now)))
        yield node.sim.any_of(waiters)
        yield from node._stop_gate(proc)
        if proc.killed:
            raise SyscallError("EINTR", "killed")


def install_reference_poll(node):
    node._handlers["poll"] = reference_sys_poll

"""Socket kernel objects bridging the syscall layer to TCP/UDP.

The TCP socket carries the *alternate buffer* of §4.1: on restart, Cruz
parks the checkpointed receive-buffer bytes here, outside TCP, and the
interposed ``recv`` drains it before touching the real receive buffer. When
every socket's alternate buffer is empty the interception is dropped (a
plain flag here; the Zap layer flips it).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import SyscallError
from repro.net.addresses import ANY_IP, Ipv4Address
from repro.sim.core import Simulator
from repro.simos.files import KernelObject, WouldBlock
from repro.simos.netstack import NetworkStack
from repro.simos.syscalls import (
    MSG_PEEK,
    SO_CORK,
    SO_KEEPALIVE,
    SO_NODELAY,
    SO_RCVBUF,
    SO_REUSEADDR,
    SO_SNDBUF,
)
from repro.tcp.connection import TcpConnection
from repro.tcp.options import SocketOptions
from repro.tcp.stack import Listener
from repro.tcp.state import TcpState

#: Connection states in which a read returns at once with EOF.
_READ_OVER_STATES = (TcpState.CLOSED, TcpState.TIME_WAIT)


class TcpSocket(KernelObject):
    """A stream socket in one of: fresh, bound, listening, connected."""

    kind = "tcp_socket"

    def __init__(self, sim: Simulator, stack: NetworkStack):
        super().__init__(sim)
        self.stack = stack
        self.options = SocketOptions()
        self.bound: Optional[Tuple[Ipv4Address, int]] = None
        self.listener: Optional[Listener] = None
        self.connection: Optional[TcpConnection] = None
        self.closed = False
        #: §4.1 alternate buffer: restored receive data delivered first.
        self.alternate = bytearray()
        self.recv_intercepted = False

    # -- state transitions ------------------------------------------------

    def bind(self, ip: Ipv4Address, port: int) -> None:
        if self.bound is not None:
            raise SyscallError("EINVAL", "socket already bound")
        self.bound = (ip, port)

    def listen(self, backlog: int) -> None:
        if self.listener is not None or self.connection is not None:
            raise SyscallError("EINVAL", "socket busy")
        if self.bound is None:
            raise SyscallError("EINVAL", "listen before bind")
        ip, port = self.bound
        self.listener = self.stack.tcp.listen(
            ip, port, backlog=backlog, options=self.options)

    def start_connect(self, remote_ip: Ipv4Address,
                      remote_port: int) -> TcpConnection:
        if self.connection is not None:
            raise SyscallError("EISCONN", "socket already connected")
        local_ip, local_port = self.bound if self.bound is not None \
            else (ANY_IP, None)
        if local_ip == ANY_IP:
            iface = self.stack.eth0
            if iface.ip is None:
                raise SyscallError("EADDRNOTAVAIL", "node has no address")
            local_ip = iface.ip
        self.connection = self.stack.tcp.connect(
            local_ip, remote_ip, remote_port,
            local_port=local_port if local_port else None,
            options=self.options)
        self._wire_connection()
        return self.connection

    def adopt(self, connection: TcpConnection) -> None:
        """Wrap an accepted or restored connection."""
        self.connection = connection
        self.bound = (connection.tcb.local_ip, connection.tcb.local_port)
        self.options = connection.tcb.options
        self._wire_connection()

    def _wire_connection(self) -> None:
        self.connection.on_readable.append(self.wake_readers)
        self.connection.on_writable.append(self.wake_writers)

        def on_close():
            self.wake_readers()
            self.wake_writers()

        self.connection.on_close.append(on_close)

    # -- data path -------------------------------------------------------

    def send(self, data: bytes) -> int:
        conn = self._require_connection()
        accepted = conn.send(data)
        if accepted == 0:
            raise WouldBlock
        return accepted

    def recv(self, max_bytes: int, flags: int = 0) -> bytes:
        """The interposable receive path.

        Order per §4.1: drain the alternate buffer first; fall through to
        the real receive buffer only when it is empty.
        """
        peek = bool(flags & MSG_PEEK)
        if self.alternate:
            chunk = bytes(self.alternate[:max_bytes])
            if not peek:
                del self.alternate[:len(chunk)]
                if not self.alternate:
                    # "the interception of the socket read system call is
                    # removed when the alternate buffers ... become empty"
                    self.recv_intercepted = False
            # A checkpoint taken now must concatenate alternate + TCP
            # buffers; recv never mixes them in one call (keeps ordering).
            return chunk
        conn = self._require_connection()
        chunk = conn.read(max_bytes, peek=peek)
        if chunk:
            return chunk
        if conn.peer_closed or conn.state.value in ("CLOSED", "TIME_WAIT"):
            return b""
        raise WouldBlock

    def poll_readable(self) -> bool:
        """Data (restored or received), a pending accept, or EOF."""
        if self.alternate:
            return True
        conn = self.connection
        if conn is not None and (
                conn.receive_buffer.data or conn.peer_closed
                or conn.tcb.state in _READ_OVER_STATES):
            return True
        listener = self.listener
        return listener is not None and bool(listener.accept_queue)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.listener is not None:
            self.listener.close()
        if self.connection is not None:
            self.connection.close()
        self.wake_readers()
        self.wake_writers()

    # -- options -----------------------------------------------------------

    _OPTION_FIELDS = {
        SO_NODELAY: ("nagle_enabled", True),   # inverted
        SO_CORK: ("cork", False),
        SO_SNDBUF: ("send_buffer_bytes", False),
        SO_RCVBUF: ("recv_buffer_bytes", False),
        SO_KEEPALIVE: ("keepalive", False),
        SO_REUSEADDR: ("reuse_addr", False),
    }

    def set_option(self, option: str, value) -> None:
        field_info = self._OPTION_FIELDS.get(option)
        if field_info is None:
            raise SyscallError("ENOPROTOOPT", option)
        field, inverted = field_info
        if inverted:
            value = not value
        self.options = self.options.set(**{field: value})
        if self.connection is not None:
            self.connection.tcb.options = \
                self.connection.tcb.options.set(**{field: value})
            if option in (SO_NODELAY, SO_CORK):
                self.connection._output()  # flush anything Nagle/CORK held
            if option == SO_KEEPALIVE and value:
                self.connection.start_keepalive()

    def get_option(self, option: str):
        field_info = self._OPTION_FIELDS.get(option)
        if field_info is None:
            raise SyscallError("ENOPROTOOPT", option)
        field, inverted = field_info
        options = self.connection.tcb.options if self.connection is not None \
            else self.options
        value = getattr(options, field)
        return (not value) if inverted else value

    def _require_connection(self) -> TcpConnection:
        if self.connection is None:
            raise SyscallError("ENOTCONN", "socket not connected")
        return self.connection


class UdpSocket(KernelObject):
    """A datagram socket."""

    kind = "udp_socket"

    def __init__(self, sim: Simulator, stack: NetworkStack):
        super().__init__(sim)
        self.stack = stack
        self.bound: Optional[Tuple[Ipv4Address, int]] = None
        self.queue = []
        self.closed = False

    def bind(self, ip: Ipv4Address, port: int) -> None:
        if self.bound is not None:
            raise SyscallError("EINVAL", "socket already bound")
        self.stack.udp.bind(port, self._on_datagram)
        self.bound = (ip, port)

    def _on_datagram(self, payload, src_ip, src_port, dst_ip) -> None:
        self.queue.append((payload, src_ip, src_port))
        self.wake_readers()

    def sendto(self, payload, dst_ip: Ipv4Address, dst_port: int,
               src_ip: Optional[Ipv4Address] = None,
               payload_size: Optional[int] = None) -> None:
        if src_ip is None:
            src_ip = self.bound[0] if self.bound is not None else ANY_IP
        src_port = self.bound[1] if self.bound is not None else 0
        self.stack.udp.send(src_ip, src_port, dst_ip, dst_port, payload,
                            payload_size=payload_size)

    def poll_readable(self) -> bool:
        return bool(self.queue)

    def recvfrom(self):
        if not self.queue:
            raise WouldBlock
        return self.queue.pop(0)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.bound is not None:
            self.stack.udp.unbind(self.bound[1])
        self.wake_readers()

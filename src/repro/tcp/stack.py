"""Per-host TCP stack: demux, listeners, port allocation, RST generation."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SyscallError, TcpError
from repro.net.addresses import ANY_IP, Ipv4Address
from repro.net.packet import (IpPacket, PROTO_TCP, TCP_ACK, TCP_RST, TCP_SYN, TcpSegment)
from repro.sim.core import Event, Simulator
from repro.tcp.connection import TcpConnection
from repro.tcp.options import SocketOptions
from repro.tcp.state import TcpState, TransmissionControlBlock

SendPacketFn = Callable[[IpPacket], None]

EPHEMERAL_FIRST = 32768
EPHEMERAL_LAST = 60999


class Listener:
    """A passive socket: accepts incoming connections on a port."""

    def __init__(self, stack: "TcpStack", local_ip: Ipv4Address, port: int,
                 backlog: int, options: SocketOptions):
        self.stack = stack
        self.local_ip = local_ip
        self.port = port
        self.backlog = backlog
        self.options = options
        self.accept_queue: List[TcpConnection] = []
        self._waiters: List[Event] = []
        #: Events of blocked polls watching this listener: succeeded when
        #: a connection is queued, consuming nothing. The poll puts its
        #: event here and takes it back.
        self._pending_notify: List[Event] = []
        self.embryos: List[TcpConnection] = []
        self.closed = False

    def accept(self) -> Event:
        """Event that succeeds with an established :class:`TcpConnection`."""
        event = self.stack.sim.event(f"accept(:{self.port})")
        if self.accept_queue:
            event.succeed(self.accept_queue.pop(0))
        else:
            self._waiters.append(event)
        return event

    def _connection_ready(self, connection: TcpConnection) -> None:
        if connection in self.embryos:
            self.embryos.remove(connection)
        if self.closed:
            connection.abort()
            return
        while self._waiters:
            waiter = self._waiters.pop(0)
            if not waiter.triggered:
                waiter.succeed(connection)
                return
        self.accept_queue.append(connection)
        notify, self._pending_notify = self._pending_notify, []
        for event in notify:
            if not event.triggered:
                event.succeed()

    def close(self) -> None:
        self.closed = True
        self.stack.remove_listener(self)
        for embryo in list(self.embryos):
            embryo.abort()
        for waiter in self._waiters:
            if not waiter.triggered:
                waiter.fail(SyscallError("EINVAL", "listener closed"))
        self._waiters.clear()


class TcpStack:
    """All TCP state for one host (or one restored pod's share of it)."""

    def __init__(self, sim: Simulator, send_packet: SendPacketFn,
                 name: str = "", time_wait_s: float = 60.0,
                 iss_seed: int = 1):
        self.sim = sim
        self.send_packet = send_packet
        self.name = name
        self.time_wait_s = time_wait_s
        self.connections: Dict[Tuple, TcpConnection] = {}
        self.listeners: Dict[Tuple[Ipv4Address, int], Listener] = {}
        self._next_ephemeral = EPHEMERAL_FIRST
        self._iss = iss_seed * 100_000 + 1
        self.rst_sent = 0
        self.segments_received = 0
        #: Cluster telemetry hub (``Node.trace``); propagated onto every
        #: connection registered with this stack.
        self.telemetry = None

    # -- helpers ----------------------------------------------------------

    def _next_iss(self) -> int:
        self._iss += 64_000
        return self._iss

    def allocate_port(self, local_ip: Ipv4Address) -> int:
        for _ in range(EPHEMERAL_LAST - EPHEMERAL_FIRST + 1):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > EPHEMERAL_LAST:
                self._next_ephemeral = EPHEMERAL_FIRST
            if not self._port_in_use(local_ip, port):
                return port
        raise TcpError("ephemeral ports exhausted")

    def _port_in_use(self, local_ip: Ipv4Address, port: int) -> bool:
        if (local_ip, port) in self.listeners or (ANY_IP, port) in \
                self.listeners:
            return True
        return any(key[0] == local_ip and key[1] == port
                   for key in self.connections)

    def _transmit_for(self, connection: TcpConnection):
        def transmit(segment: TcpSegment, src: Ipv4Address,
                     dst: Ipv4Address) -> None:
            self.send_packet(IpPacket(src, dst, PROTO_TCP, segment))
        return transmit

    def register(self, connection: TcpConnection) -> None:
        key = connection.tcb.four_tuple
        if key in self.connections:
            raise TcpError(f"connection {key} already registered")
        self.connections[key] = connection
        if self.telemetry is not None and connection.telemetry is None:
            connection.telemetry = self.telemetry
            connection.telemetry_node = self.name
        connection.on_teardown(self._forget)

    def _forget(self, connection: TcpConnection) -> None:
        self.connections.pop(connection.tcb.four_tuple, None)

    # -- application API ---------------------------------------------------

    def listen(self, local_ip: Ipv4Address, port: int, backlog: int = 16,
               options: Optional[SocketOptions] = None) -> Listener:
        key = (local_ip, port)
        if key in self.listeners:
            raise SyscallError("EADDRINUSE", f"port {port} in use")
        listener = Listener(self, local_ip, port, backlog,
                            options or SocketOptions())
        self.listeners[key] = listener
        return listener

    def remove_listener(self, listener: Listener) -> None:
        self.listeners.pop((listener.local_ip, listener.port), None)

    def connect(self, local_ip: Ipv4Address, remote_ip: Ipv4Address,
                remote_port: int, local_port: Optional[int] = None,
                options: Optional[SocketOptions] = None) -> TcpConnection:
        """Active open; returns the (not yet established) connection."""
        if local_port is None:
            local_port = self.allocate_port(local_ip)
        tcb = TransmissionControlBlock(
            local_ip=local_ip, local_port=local_port,
            remote_ip=remote_ip, remote_port=remote_port,
            iss=self._next_iss(), options=options or SocketOptions())
        connection = TcpConnection(
            self.sim, tcb, lambda *a: None,
            name=f"{self.name}:{local_port}->{remote_ip}:{remote_port}",
            time_wait_s=self.time_wait_s)
        connection.transmit = self._transmit_for(connection)
        self.register(connection)
        connection.open_active()
        return connection

    def adopt_restored(self, connection: TcpConnection) -> None:
        """Register a connection recreated from a checkpoint image."""
        connection.transmit = self._transmit_for(connection)
        self.register(connection)

    def release(self, connection: TcpConnection) -> None:
        """Detach a connection without closing it (pod migration)."""
        self.connections.pop(connection.tcb.four_tuple, None)

    # -- packet input -------------------------------------------------------

    def on_packet(self, packet: IpPacket) -> None:
        segment = packet.payload
        if not isinstance(segment, TcpSegment):
            return
        self.segments_received += 1
        key = (packet.dst, segment.dst_port, packet.src, segment.src_port)
        connection = self.connections.get(key)
        if connection is not None:
            connection.on_segment(segment)
            return
        listener = self.listeners.get((packet.dst, segment.dst_port)) \
            or self.listeners.get((ANY_IP, segment.dst_port))
        if listener is not None and segment.flags & TCP_SYN \
                and not segment.flags & TCP_ACK:
            self._passive_open(listener, packet, segment)
            return
        if not segment.flags & TCP_RST:
            self._send_rst(packet, segment)

    def _passive_open(self, listener: Listener, packet: IpPacket,
                      segment: TcpSegment) -> None:
        if len(listener.embryos) + len(listener.accept_queue) >= \
                listener.backlog:
            return  # silently drop: client will retransmit SYN
        tcb = TransmissionControlBlock(
            local_ip=packet.dst, local_port=segment.dst_port,
            remote_ip=packet.src, remote_port=segment.src_port,
            iss=self._next_iss(), options=listener.options)
        tcb.irs = segment.seq
        tcb.rcv_nxt = segment.seq + 1
        tcb.snd_wnd = segment.window
        tcb.state = TcpState.SYN_RCVD
        connection = TcpConnection(
            self.sim, tcb, lambda *a: None,
            name=f"{self.name}:{tcb.local_port}<-{tcb.remote_ip}:"
                 f"{tcb.remote_port}",
            time_wait_s=self.time_wait_s)
        connection.transmit = self._transmit_for(connection)
        connection.receive_buffer.rcv_nxt = tcb.rcv_nxt
        self.register(connection)
        listener.embryos.append(connection)
        connection.established_event.callbacks.append(
            lambda event: listener._connection_ready(connection)
            if event.ok else None)
        connection.open_passive_reply()

    def _send_rst(self, packet: IpPacket, segment: TcpSegment) -> None:
        self.rst_sent += 1
        if segment.flags & TCP_ACK:
            rst = TcpSegment(
                src_port=segment.dst_port, dst_port=segment.src_port,
                seq=segment.ack, ack=0, flags=TCP_RST, window=0)
        else:
            rst = TcpSegment(
                src_port=segment.dst_port, dst_port=segment.src_port,
                seq=0, ack=segment.seq + segment.seq_len,
                flags=TCP_RST | TCP_ACK, window=0)
        self.send_packet(IpPacket(
            src=packet.dst, dst=packet.src, protocol=PROTO_TCP, payload=rst))

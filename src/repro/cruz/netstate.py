"""Cruz's network-state checkpoint/restart (§4.1) — the first contribution.

Capture (on a frozen socket):

* receive side — read the buffered byte stream "on behalf of the
  application" with ``MSG_PEEK`` semantics (non-destructive), concatenating
  any alternate-buffer remnant from a previous restore;
* send side — walk the send buffer's kernel structure recording the
  application data *and the packet boundaries* (Linux expects ACKs on
  packet boundaries);
* connection — save a TCB copy adjusted by two sequence-number changes so
  it describes empty buffers (see
  :meth:`~repro.tcp.state.TransmissionControlBlock.snapshot_for_checkpoint`).

Restore:

* recreate the socket and install the saved TCB (empty buffers);
* re-issue one send per recorded packet with the Nagle algorithm and
  TCP_CORK disabled, preserving boundaries;
* park the saved receive bytes in the socket's *alternate buffer*, which
  the interposed ``recv`` drains before the real receive buffer;
* packets dropped around the checkpoint are recovered by TCP
  retransmission — no channel flushing anywhere.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CheckpointError
from repro.simos.kernel import Node
from repro.simos.sockets import TcpSocket
from repro.tcp.connection import TcpConnection
from repro.tcp.state import (
    SYNCHRONISED_STATES,
    TcpState,
    TransmissionControlBlock,
)
from repro.zap.pod import Pod
from repro.zap.socket_codec import SocketCodec


def capture_connection(
        connection: TcpConnection,
        alternate: bytes = b"") -> Dict[str, Any]:
    """Capture one live connection's full state (must be frozen)."""
    if not connection.frozen:
        raise CheckpointError(
            "connection must be frozen (network locks held) during capture")
    tcb = connection.tcb
    # Receive side: MSG_PEEK-style non-destructive read of everything the
    # application has not consumed, after any alternate-buffer remnant.
    undelivered = connection.read(1 << 62, peek=True)
    recv_data = bytes(alternate) + undelivered
    # Send side: the kernel-structure walk, boundaries preserved.
    send_segments: List[Tuple[int, bytes]] = connection.send_buffer.walk()
    pending = bytes(connection.send_buffer.pending)
    snapshot = tcb.snapshot_for_checkpoint()
    return {
        "kind": "connected",
        "options": tcb.options,
        "bound": (tcb.local_ip, tcb.local_port),
        "tcb": snapshot,
        "send_segments": send_segments,
        "pending": pending,
        "recv_data": recv_data,
        "close_requested": connection._close_requested,
    }


def restore_connection(node: Node, detail: Dict[str, Any],
                       name: str = "") -> TcpConnection:
    """Recreate a connection from a captured detail dict."""
    tcb: TransmissionControlBlock = replace(detail["tcb"])
    connection = TcpConnection.restore(
        node.sim, tcb, transmit=lambda *a: None, name=name,
        time_wait_s=node.stack.tcp.time_wait_s)
    node.stack.tcp.adopt_restored(connection)
    # Re-issue the recorded packets through the send path with boundary
    # preservation pinned (Nagle/CORK off), then any unsegmented tail.
    original_options = tcb.options
    tcb.options = original_options.with_boundaries_pinned()
    try:
        for _seq, payload in detail["send_segments"]:
            connection.send_exact(payload)
        pending = detail["pending"]
        if pending:
            accepted = connection.send_buffer.accept(pending)
            if accepted != len(pending):
                raise CheckpointError("restored send buffer overflow")
    finally:
        tcb.options = original_options
    if detail.get("close_requested"):
        connection.close()
    else:
        connection._output()
    return connection


class CruzSocketCodec(SocketCodec):
    """The full socket codec: everything BasicZapCodec refuses."""

    def capture_tcp(self, sock: TcpSocket) -> Dict[str, Any]:
        connection = sock.connection
        if connection is not None and \
                connection.tcb.state in SYNCHRONISED_STATES:
            return capture_connection(connection,
                                      alternate=bytes(sock.alternate))
        if sock.listener is not None:
            queued = []
            for pending in sock.listener.accept_queue:
                pending.freeze()
                try:
                    queued.append(capture_connection(pending))
                finally:
                    pending.unfreeze()
            return {
                "kind": "listening",
                "options": sock.options,
                "bound": sock.bound,
                "backlog": sock.listener.backlog,
                "queued": queued,
            }
        # Fresh, bound, or mid-handshake (SYN_SENT/SYN_RCVD): a connection
        # that has not synchronised is restored as a bound socket; the
        # restartable `connect` syscall re-initiates the handshake.
        return {
            "kind": "bound" if sock.bound is not None else "fresh",
            "options": sock.options,
            "bound": sock.bound,
            "backlog": 0,
            "queued": [],
        }

    def restore_tcp(self, node: Node, pod: Optional[Pod],
                    detail: Dict[str, Any]) -> TcpSocket:
        sock = TcpSocket(node.sim, node.stack)
        sock.options = detail["options"]
        kind = detail["kind"]
        if kind == "connected":
            connection = restore_connection(
                node, detail,
                name=f"{node.name}:restored:{detail['bound'][1]}")
            sock.adopt(connection)
            recv_data = detail["recv_data"]
            if recv_data:
                sock.alternate = bytearray(recv_data)
                sock.recv_intercepted = True
            return sock
        if detail["bound"] is not None:
            bind_ip = pod.ip if pod is not None else detail["bound"][0]
            sock.bind(bind_ip, detail["bound"][1])
        if kind == "listening":
            sock.listen(detail["backlog"])
            for queued_detail in detail["queued"]:
                connection = restore_connection(
                    node, queued_detail,
                    name=f"{node.name}:requeued:{detail['bound'][1]}")
                # Bytes received before the accept, unread as they were.
                connection.receive_buffer.data += queued_detail["recv_data"]
                sock.listener.accept_queue.append(connection)
        return sock

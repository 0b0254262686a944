"""The MPI-like programming layer.

:class:`MpiProgram` gives checkpointable state-machine programs MPI-style
primitives over plain TCP sockets:

* ``send_to(dst, payload)`` / ``recv_from(src)`` — point-to-point, FIFO per
  peer, length-prefixed pickled payloads;
* ``barrier()`` — all ranks synchronise through rank 0;
* ``allreduce(value)`` — sum/min/max reduction through rank 0;
* ``bcast(value)`` — rank 0 to all.

Setup builds a full mesh: every rank listens on a common port, connects to
all lower ranks (retrying while peers are still booting), then accepts all
higher ranks, identifying each by a hello record. There is no location
directory and no reconnection logic anywhere — after a Cruz restart the
restored TCP connections simply keep working, which is the point.

Subclasses implement ``phase_*`` handlers as usual and drive the library
with the helper methods, each of which takes a ``then=`` continuation
phase. The operation's result is delivered as that phase's ``result``.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Dict, List, Optional

from repro.errors import ReproError, SyscallError
from repro.simos.program import PhasedProgram
from repro.simos.syscalls import Exit, sys

LENGTH_FORMAT = ">Q"
LENGTH_BYTES = struct.calcsize(LENGTH_FORMAT)
HELLO_FORMAT = ">I"
HELLO_BYTES = struct.calcsize(HELLO_FORMAT)

#: Delay before retrying a refused connect during mesh setup.
CONNECT_RETRY_DELAY = 0.01


def _encode(payload: Any) -> bytes:
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return struct.pack(LENGTH_FORMAT, len(blob)) + blob


class MpiProgram(PhasedProgram):
    """Base class for rank-parallel programs."""

    name = "mpi-program"
    initial_phase = "mpi_boot"

    def __init__(self, rank: int, peer_ips: List[str], port: int = 9700):
        super().__init__()
        self.rank = rank
        self.peer_ips = list(peer_ips)
        self.size = len(peer_ips)
        self.port = port
        self.listen_fd: Optional[int] = None
        self.peer_fds: Dict[int, int] = {}
        self.rx: Dict[int, bytes] = {r: b"" for r in range(self.size)}
        self._connect_target = 0
        self._accept_remaining = 0
        self._op: Optional[Dict[str, Any]] = None
        self._pending_hello = b""
        # Library accounting (tests check transparency, not the app).
        self.mpi_sends = 0
        self.mpi_receives = 0

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------

    def on_mpi_ready(self, result):
        """First user hook: the mesh is up. Must return a Syscall/Exit."""
        raise NotImplementedError

    def send_to(self, dst: int, payload: Any, then: str):
        """Queue a message to ``dst``; continue at phase ``then``."""
        if dst == self.rank:
            raise ReproError("send_to self")
        self._op = {"kind": "send", "peer": dst,
                    "buf": _encode(payload), "then": then}
        return self._run_op(None)

    def recv_from(self, src: int, then: str):
        """Receive the next message from ``src``; its payload is the
        ``result`` delivered to phase ``then``."""
        if src == self.rank:
            raise ReproError("recv_from self")
        self._op = {"kind": "recv", "peer": src, "then": then}
        return self._run_op(None)

    def barrier(self, then: str):
        """Synchronise all ranks (fan-in to rank 0, fan-out)."""
        plan = self._barrier_plan()
        self._op = {"kind": "seq", "plan": plan, "index": 0,
                    "then": then, "value": None}
        return self._run_op(None)

    def allreduce(self, value: Any, op: str, then: str):
        """Reduce ``value`` across ranks; every rank gets the result."""
        plan = self._allreduce_plan()
        self._op = {"kind": "seq", "plan": plan, "index": 0,
                    "then": then, "value": value, "reduce": op,
                    "gathered": []}
        return self._run_op(None)

    def bcast(self, value: Any, then: str):
        """Broadcast rank 0's ``value`` to everyone."""
        if self.rank == 0:
            plan = [("send", dst, "value") for dst in range(1, self.size)]
        else:
            plan = [("recv_value", 0)]
        self._op = {"kind": "seq", "plan": plan, "index": 0,
                    "then": then, "value": value}
        return self._run_op(None)

    def reduce(self, value: Any, op: str, then: str):
        """Reduce to rank 0 only (other ranks receive ``None``)."""
        if self.rank == 0:
            plan = [("recv_gather", src) for src in range(1, self.size)]
            plan += [("reduce",)]
        else:
            plan = [("send", 0, "value"), ("clear_value",)]
        self._op = {"kind": "seq", "plan": plan, "index": 0,
                    "then": then, "value": value, "reduce": op,
                    "gathered": []}
        return self._run_op(None)

    def gather(self, value: Any, then: str):
        """Rank 0 receives ``[rank0_value, ..., rankN-1_value]``; other
        ranks receive ``None``."""
        if self.rank == 0:
            plan = [("recv_gather", src) for src in range(1, self.size)]
            plan += [("combine_gather",)]
        else:
            plan = [("send", 0, "value"), ("clear_value",)]
        self._op = {"kind": "seq", "plan": plan, "index": 0,
                    "then": then, "value": value, "gathered": []}
        return self._run_op(None)

    def scatter(self, values, then: str):
        """Rank 0 distributes ``values[i]`` to rank ``i``; every rank's
        result is its own element. Non-root ranks pass ``None``."""
        if self.rank == 0:
            if values is None or len(values) != self.size:
                raise ReproError(
                    f"scatter needs exactly {self.size} values on rank 0")
            plan = [("send_item", dst) for dst in range(1, self.size)]
            plan += [("take_item", 0)]
        else:
            plan = [("recv_value", 0)]
        self._op = {"kind": "seq", "plan": plan, "index": 0,
                    "then": then, "value": None,
                    "items": list(values) if values is not None else None}
        return self._run_op(None)

    def sendrecv(self, dst: int, payload: Any, src: int, then: str):
        """Send to ``dst`` and receive from ``src`` (halo-exchange
        primitive); the received payload is the result."""
        plan = [("send_payload", dst), ("recv_value", src)]
        self._op = {"kind": "seq", "plan": plan, "index": 0,
                    "then": then, "value": None, "payload": payload}
        return self._run_op(None)

    def mpi_exit(self):
        return Exit(0)

    # -- collective plans ---------------------------------------------------

    def _barrier_plan(self):
        if self.rank == 0:
            plan = [("recv_discard", src) for src in range(1, self.size)]
            plan += [("send", dst, None) for dst in range(1, self.size)]
        else:
            plan = [("send", 0, None), ("recv_discard", 0)]
        return plan

    def _allreduce_plan(self):
        if self.rank == 0:
            plan = [("recv_gather", src) for src in range(1, self.size)]
            plan += [("reduce",)]
            plan += [("send", dst, "value") for dst in range(1, self.size)]
        else:
            plan = [("send", 0, "value"), ("recv_value", 0)]
        return plan

    # ------------------------------------------------------------------
    # Mesh setup phases
    # ------------------------------------------------------------------

    def phase_mpi_boot(self, result):
        self.goto("mpi_bind")
        return sys("socket", "tcp")

    def phase_mpi_bind(self, result):
        self.listen_fd = result
        self.goto("mpi_listen")
        return sys("bind", self.listen_fd, None, self.port)

    def phase_mpi_listen(self, result):
        self.goto("mpi_connect_next")
        return sys("listen", self.listen_fd, self.size)

    def phase_mpi_connect_next(self, result):
        if self._connect_target >= self.rank:
            self._accept_remaining = self.size - 1 - self.rank
            self.goto("mpi_accept_next")
            return self.phase_mpi_accept_next(None)
        self.goto("mpi_connect")
        return sys("socket", "tcp")

    def phase_mpi_connect(self, result):
        self._connect_fd = result
        self.goto("mpi_hello")
        return sys("connect", self._connect_fd,
                   self.peer_ips[self._connect_target], self.port)

    def phase_mpi_hello(self, result):
        if isinstance(result, SyscallError):
            # Peer not listening yet: retry after a short sleep.
            self.goto("mpi_retry_sleep")
            return sys("close", self._connect_fd)
        self.peer_fds[self._connect_target] = self._connect_fd
        self.goto("mpi_hello_sent")
        return sys("send", self._connect_fd,
                   struct.pack(HELLO_FORMAT, self.rank))

    def phase_mpi_retry_sleep(self, result):
        self.goto("mpi_retry_connect")
        return sys("sleep", CONNECT_RETRY_DELAY)

    def phase_mpi_retry_connect(self, result):
        self.goto("mpi_connect")
        return sys("socket", "tcp")

    def phase_mpi_hello_sent(self, result):
        # Every real MPI-over-TCP disables Nagle: small halo/ack messages
        # must not wait behind delayed ACKs.
        self.goto("mpi_connected")
        return sys("setsockopt", self._connect_fd, "TCP_NODELAY", True)

    def phase_mpi_connected(self, result):
        self._connect_target += 1
        self.goto("mpi_connect_next")
        return self.phase_mpi_connect_next(None)

    def phase_mpi_accept_next(self, result):
        if self._accept_remaining <= 0:
            self.goto("mpi_ready")
            return self.phase_mpi_ready(None)
        self.goto("mpi_accepted")
        return sys("accept", self.listen_fd)

    def phase_mpi_accepted(self, result):
        self._hello_fd = result[0]
        self._pending_hello = b""
        self.goto("mpi_read_hello")
        return sys("recv", self._hello_fd, HELLO_BYTES)

    def phase_mpi_read_hello(self, result):
        self._pending_hello += result
        if len(self._pending_hello) < HELLO_BYTES:
            return sys("recv", self._hello_fd,
                       HELLO_BYTES - len(self._pending_hello))
        peer = struct.unpack(HELLO_FORMAT, self._pending_hello)[0]
        self.peer_fds[peer] = self._hello_fd
        self._accept_remaining -= 1
        self.goto("mpi_accepted_nodelay")
        return sys("setsockopt", self._hello_fd, "TCP_NODELAY", True)

    def phase_mpi_accepted_nodelay(self, result):
        self.goto("mpi_accept_next")
        return self.phase_mpi_accept_next(None)

    def phase_mpi_ready(self, result):
        return self.on_mpi_ready(result)

    # ------------------------------------------------------------------
    # Operation driver
    # ------------------------------------------------------------------

    def _finish_op(self, value):
        op = self._op
        self._op = None
        self.goto(op["then"])
        handler = getattr(self, f"phase_{op['then']}")
        return handler(value)

    def _run_op(self, result):
        op = self._op
        if op["kind"] == "send":
            self.goto("mpi_op_send")
            return self.phase_mpi_op_send(None)
        if op["kind"] == "recv":
            self.goto("mpi_op_recv")
            return self.phase_mpi_op_recv(None)
        if op["kind"] == "seq":
            return self._advance_seq(None)
        raise ReproError(f"unknown mpi op {op['kind']!r}")

    # -- point-to-point send ------------------------------------------------

    def phase_mpi_op_send(self, result):
        op = self._op
        if isinstance(result, int):
            op["buf"] = op["buf"][result:]
        if op["buf"]:
            return sys("send", self.peer_fds[op["peer"]], op["buf"])
        self.mpi_sends += 1
        if op.get("seq_parent") is not None:
            return self._seq_step_done(None)
        return self._finish_op(None)

    # -- point-to-point receive -----------------------------------------------

    def phase_mpi_op_recv(self, result):
        op = self._op
        peer = op["peer"]
        if isinstance(result, bytes):
            if result == b"":
                raise ReproError(
                    f"rank {self.rank}: peer {peer} closed mid-message")
            self.rx[peer] += result
        message = self._try_decode(peer)
        if message is None:
            return sys("recv", self.peer_fds[peer], 65536)
        self.mpi_receives += 1
        if op.get("seq_parent") is not None:
            return self._seq_step_done(message[0])
        return self._finish_op(message[0])

    def _try_decode(self, peer: int):
        buffer = self.rx[peer]
        if len(buffer) < LENGTH_BYTES:
            return None
        length = struct.unpack(LENGTH_FORMAT, buffer[:LENGTH_BYTES])[0]
        if len(buffer) < LENGTH_BYTES + length:
            return None
        blob = buffer[LENGTH_BYTES:LENGTH_BYTES + length]
        self.rx[peer] = buffer[LENGTH_BYTES + length:]
        return (pickle.loads(blob),)

    # -- collective sequencing ---------------------------------------------

    def _advance_seq(self, incoming):
        op = self._op
        plan = op["plan"]
        if op["index"] >= len(plan):
            return self._finish_op(op["value"])
        step = plan[op["index"]]
        op["index"] += 1
        kind = step[0]
        if kind == "send":
            _kind, dst, what = step
            payload = op["value"] if what == "value" else None
            self._sub = {"kind": "send", "peer": dst,
                         "buf": _encode(payload), "seq_parent": True}
            return self._start_sub()
        if kind == "send_item":
            dst = step[1]
            self._sub = {"kind": "send", "peer": dst,
                         "buf": _encode(op["items"][dst]),
                         "seq_parent": True}
            return self._start_sub()
        if kind == "send_payload":
            dst = step[1]
            self._sub = {"kind": "send", "peer": dst,
                         "buf": _encode(op["payload"]),
                         "seq_parent": True}
            return self._start_sub()
        if kind in ("recv_discard", "recv_value", "recv_gather"):
            src = step[1]
            self._sub = {"kind": "recv", "peer": src, "seq_parent": True,
                         "role": kind}
            return self._start_sub()
        if kind == "reduce":
            op["value"] = self._reduce([op["value"]] + op["gathered"],
                                       op["reduce"])
            return self._advance_seq(None)
        if kind == "combine_gather":
            op["value"] = [op["value"]] + op["gathered"]
            return self._advance_seq(None)
        if kind == "take_item":
            op["value"] = op["items"][step[1]]
            return self._advance_seq(None)
        if kind == "clear_value":
            op["value"] = None
            return self._advance_seq(None)
        raise ReproError(f"unknown collective step {kind!r}")

    def _start_sub(self):
        sub = self._sub
        parent = self._op
        sub["parent"] = parent
        sub["then"] = parent["then"]  # not used; parent resumes instead
        self._op = sub
        if sub["kind"] == "send":
            self.goto("mpi_op_send")
            return self.phase_mpi_op_send(None)
        self.goto("mpi_op_recv")
        return self.phase_mpi_op_recv(None)

    def _seq_step_done(self, value):
        sub = self._op
        parent = sub["parent"]
        self._op = parent
        role = sub.get("role")
        if role == "recv_value":
            parent["value"] = value
        elif role == "recv_gather":
            parent["gathered"].append(value)
        return self._advance_seq(value)

    @staticmethod
    def _reduce(values, op: str):
        if op == "sum":
            total = values[0]
            for value in values[1:]:
                total = total + value
            return total
        if op == "min":
            return min(values)
        if op == "max":
            return max(values)
        raise ReproError(f"unknown reduce op {op!r}")

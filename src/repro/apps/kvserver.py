"""A key-value server and client.

The "database-style" workload: a stateful TCP server inside a pod serving
a client that is *outside* any pod (e.g. a customer on another machine).
Migrating the server must be invisible to that client — the paper's
motivating maintenance/migration scenario (§1).

Wire protocol: newline-free, length-prefixed pickled request/response
dicts, e.g. ``{"op": "put", "key": k, "value": v}`` →
``{"ok": True, "value": ...}``. Requests may carry a request ID
(``"rid"``) — mutating ops are then applied exactly once (a bounded
dedup cache absorbs client retries and proxy re-dispatch) — and a
replication sequence number (``"seq"``, stamped by ``repro.apps.kvproxy``);
every response echoes the rid plus the server's high-water ``seq`` so a
load balancer can track replica sync state. ``{"op": "ping"}`` is the
liveness/sync probe.
"""

from __future__ import annotations

import pickle
import struct
from typing import Dict, List, Optional, Tuple

from repro.errors import SyscallError
from repro.simos.program import PhasedProgram
from repro.simos.syscalls import MSG_DONTWAIT, Exit, sys

KV_PORT = 9900
LENGTH_FORMAT = ">I"
LENGTH_BYTES = struct.calcsize(LENGTH_FORMAT)

#: Mutating-request IDs remembered for duplicate suppression. Retries are
#: near-in-time (client deadlines, proxy failover re-dispatch), so a
#: bounded window is safe; eviction is FIFO.
DEDUP_CAP = 8192


def encode(obj) -> bytes:
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return struct.pack(LENGTH_FORMAT, len(blob)) + blob


def try_decode(buffer: bytes) -> Tuple[Optional[object], bytes]:
    if len(buffer) < LENGTH_BYTES:
        return None, buffer
    length = struct.unpack(LENGTH_FORMAT, buffer[:LENGTH_BYTES])[0]
    if len(buffer) < LENGTH_BYTES + length:
        return None, buffer
    obj = pickle.loads(buffer[LENGTH_BYTES:LENGTH_BYTES + length])
    return obj, buffer[LENGTH_BYTES + length:]


class KvServerMulti(PhasedProgram):
    """An event-driven key-value server: many concurrent clients, one
    process, ``poll``-based — the architecture of a real network daemon.

    Being checkpointable requires nothing special: the poll loop is just
    another restartable syscall, and every connection's parse state lives
    in instance attributes.
    """

    name = "kv-server-multi"
    initial_phase = "socket"

    def __init__(self):
        super().__init__()
        self.port = KV_PORT
        self.backlog = 16
        self.store: Dict[str, object] = {}
        self.requests_served = 0
        self.clients_accepted = 0
        self.fd = None
        #: fd -> per-connection receive parse buffer.
        self.rx: Dict[int, bytes] = {}
        #: fd -> per-session request count (session = one connection).
        self.session_requests: Dict[int, int] = {}
        self.sessions_closed = 0
        self.ready: List[int] = []
        self.current_fd = None
        self.tx = b""
        self.applied: Dict[str, dict] = {}
        self.applied_order: List[str] = []
        self.duplicates_suppressed = 0
        self.last_seq = 0

    def phase_socket(self, result):
        self.goto("bind")
        return sys("socket", "tcp")

    def phase_bind(self, result):
        self.fd = result
        self.goto("listen")
        return sys("bind", self.fd, None, self.port)

    def phase_listen(self, result):
        self.goto("poll")
        return sys("listen", self.fd, self.backlog)

    def phase_poll(self, result):
        self.goto("dispatch")
        return sys("poll", [self.fd] + sorted(self.rx))

    def phase_dispatch(self, result):
        if isinstance(result, list):
            self.ready = result
        if not self.ready:
            self.goto("poll")
            return self.phase_poll(None)
        fd = self.ready.pop(0)
        if fd == self.fd:
            self.goto("accepted")
            return sys("accept", self.fd)
        self.current_fd = fd
        self.goto("received")
        return sys("recv", fd, 65536, flags=MSG_DONTWAIT)

    def phase_accepted(self, result):
        conn_fd = result[0]
        self.rx[conn_fd] = b""
        self.session_requests[conn_fd] = 0
        self.clients_accepted += 1
        self.goto("dispatch")
        return self.phase_dispatch(None)

    def phase_received(self, result):
        fd = self.current_fd
        if isinstance(result, SyscallError) or result is None:
            self.goto("dispatch")
            return self.phase_dispatch(None)
        if result == b"":
            del self.rx[fd]
            self.session_requests.pop(fd, None)
            self.sessions_closed += 1
            self.goto("dispatch")
            return sys("close", fd)
        self.rx[fd] += result
        self.tx = b""
        request, self.rx[fd] = try_decode(self.rx[fd])
        while request is not None:
            self.session_requests[fd] = \
                self.session_requests.get(fd, 0) + 1
            self.tx += encode(self._apply(request))
            request, self.rx[fd] = try_decode(self.rx[fd])
        if self.tx:
            self.goto("replied")
            return sys("send", fd, self.tx)
        self.goto("dispatch")
        return self.phase_dispatch(None)

    def phase_replied(self, result):
        fd = self.current_fd
        self.tx = self.tx[result:]
        if self.tx:
            return sys("send", fd, self.tx)
        self.goto("dispatch")
        return self.phase_dispatch(None)

    def _apply(self, request: dict) -> dict:
        self.requests_served += 1
        op = request.get("op")
        rid = request.get("rid")
        if op == "ping":
            response = {"ok": True, "pong": True}
        elif rid is not None and rid in self.applied:
            # A retried mutation (client deadline retry, proxy failover
            # re-dispatch, or sync replay overlap): applied exactly once,
            # the cached response is replayed.
            self.duplicates_suppressed += 1
            response = dict(self.applied[rid])
            response["dup"] = True
        else:
            response = self._apply_op(op, request)
            seq = request.get("seq")
            if seq is not None:
                self.last_seq = max(self.last_seq, seq)
            if rid is not None and op in ("put", "delete"):
                self.applied[rid] = dict(response)
                self.applied_order.append(rid)
                if len(self.applied_order) > DEDUP_CAP:
                    self.applied.pop(self.applied_order.pop(0), None)
        if rid is not None:
            # Tagged (proxied) traffic echoes rid + replica sync state;
            # bare legacy requests keep the original response shape.
            response["rid"] = rid
            response["seq"] = self.last_seq
        return response

    def _apply_op(self, op, request: dict) -> dict:
        if op == "put":
            self.store[request["key"]] = request["value"]
            return {"ok": True}
        if op == "get":
            key = request["key"]
            return {"ok": key in self.store,
                    "value": self.store.get(key)}
        if op == "delete":
            return {"ok": self.store.pop(request["key"], None)
                    is not None}
        if op == "count":
            return {"ok": True, "value": len(self.store)}
        return {"ok": False, "error": f"bad op {op!r}", "code": 400}


#: One server, two names, both pinned from outside this module: the
#: frozen ``benchmarks/perf/probes.py`` imports ``KvServer``, and
#: ``KvServerMulti`` is the class path pickled into every fleet
#: backend's image — its length is part of ``state_bytes``, so it feeds
#: the committed SLO baseline and ``serve_fleet``'s ``sim_digest``.
KvServer = KvServerMulti


class KvClient(PhasedProgram):
    """Issues a scripted list of requests, one at a time.

    With an injected seeded ``rng`` (a ``random.Random`` from the
    cluster's :class:`~repro.sim.rand.RandomStreams`), connection
    failures are retried with capped exponential backoff plus jitter and
    the current request is re-sent on the fresh connection (give requests
    ``"rid"`` keys to make the retry exactly-once server-side). The
    ``reconnects``/``retries`` counters surface the recovery work to
    harnesses and spans. Without an rng the legacy behavior stands:
    refused → ``Exit(2)``, mid-stream EOF → ``Exit(1)``.
    """

    name = "kv-client"
    initial_phase = "socket"
    #: Consecutive failures tolerated, and the reconnect backoff range.
    MAX_ATTEMPTS = 8
    BACKOFF_BASE_S = 0.05
    BACKOFF_CAP_S = 2.0

    def __init__(self, server_ip: str, requests: List[dict],
                 think_time_s: float = 0.0, rng=None):
        super().__init__()
        self.server_ip = server_ip
        self.port = KV_PORT
        self.requests = list(requests)
        self.think_time_s = think_time_s
        self.rng = rng
        self.responses: List[dict] = []
        self.rx = b""
        self.unsent = b""
        self.fd = None
        self.index = 0
        #: Consecutive failures since the last successful response.
        self.attempts = 0
        self.reconnects = 0
        self.retries = 0

    def phase_socket(self, result):
        self.goto("connect")
        return sys("socket", "tcp")

    def phase_connect(self, result):
        self.fd = result
        self.goto("next_request")
        return sys("connect", self.fd, self.server_ip, self.port)

    def _failed(self, exit_code: int, retrying: bool):
        """Common failure tail: backoff-reconnect or legacy exit."""
        if self.rng is None or self.attempts >= self.MAX_ATTEMPTS:
            return Exit(exit_code)
        self.attempts += 1
        self.reconnects += 1
        if retrying:
            self.retries += 1
        self.rx = b""
        self.goto("backoff")
        return sys("close", self.fd)

    def phase_backoff(self, result):
        delay = min(self.BACKOFF_CAP_S,
                    self.BACKOFF_BASE_S * 2 ** (self.attempts - 1))
        self.goto("socket")
        return sys("sleep", delay * (0.5 + self.rng.random()))

    def phase_next_request(self, result):
        if isinstance(result, SyscallError):
            # Connection refused (or reset mid-handshake).
            return self._failed(2, retrying=self.index > 0)
        if self.index >= len(self.requests):
            self.goto("finish")
            return sys("close", self.fd)
        self.unsent = encode(self.requests[self.index])
        self.goto("sending")
        return sys("send", self.fd, self.unsent)

    def phase_sending(self, result):
        if isinstance(result, SyscallError):
            return self._failed(1, retrying=True)
        self.unsent = self.unsent[result:]
        if self.unsent:
            return sys("send", self.fd, self.unsent)
        self.goto("awaiting")
        return sys("recv", self.fd, 65536)

    def phase_awaiting(self, result):
        if isinstance(result, SyscallError) or result == b"":
            return self._failed(1, retrying=True)
        self.rx += result
        response, self.rx = try_decode(self.rx)
        if response is None:
            return sys("recv", self.fd, 65536)
        self.responses.append(response)
        self.index += 1
        self.attempts = 0
        if self.think_time_s:
            self.goto("thinking")
            return sys("sleep", self.think_time_s)
        self.goto("next_request")
        return self.phase_next_request(None)

    def phase_thinking(self, result):
        self.goto("next_request")
        return self.phase_next_request(None)

    def phase_finish(self, result):
        return Exit(0)


def build_session_script(rng, client_id: int, sessions: int,
                         requests_per_session: int,
                         write_ratio: float = 0.5) -> List[dict]:
    """Generate a seeded, interleaved multi-session request script.

    Each logical session owns a private key space (``s{client}.{sid}.*``);
    its first request is always a ``put`` so later reads hit. Sessions are
    interleaved by a seeded shuffle, so consecutive wire requests usually
    belong to different sessions — the access pattern of a proxy fronting
    thousands of independent clients. Every request carries a globally
    unique ``rid`` (exactly-once handle) and its session id.
    """
    order: List[int] = []
    for sid in range(sessions):
        order.extend([sid] * requests_per_session)
    rng.shuffle(order)
    written: Dict[int, List[str]] = {sid: [] for sid in range(sessions)}
    script: List[dict] = []
    for n, sid in enumerate(order):
        rid = f"c{client_id}-{n}"
        keys = written[sid]
        if not keys or rng.random() < write_ratio:
            key = f"s{client_id}.{sid}.k{len(keys)}"
            keys.append(key)
            script.append({"op": "put", "key": key,
                           "value": f"v{client_id}-{n}",
                           "rid": rid, "sid": sid})
        else:
            key = keys[rng.randrange(len(keys))]
            script.append({"op": "get", "key": key,
                           "rid": rid, "sid": sid})
    return script


class KvSessionClient(PhasedProgram):
    """Sessionful load generator with request IDs, deadlines and retries.

    Drives a seeded multi-session script (see :func:`build_session_script`)
    against one endpoint — normally the proxy — and measures what a *user*
    experiences while Cruz checkpoints, migrates and fails over the fleet
    underneath:

    * every request has a per-attempt **deadline**; a miss closes the
      connection, backs off (capped exponential + jitter from the seeded
      rng) and re-sends the same ``rid`` on a fresh connection, so the
      server/proxy dedup path is exercised, not assumed;
    * typed **shed** responses (``code == 503``) are retried in place on
      the same connection after a short jittered pause;
    * per-request **samples** ``{"start", "end", "op", "status",
      "attempts"}`` (status ``ok`` / ``shed`` / ``error``) feed the SLO
      recorder, with ``reconnects``/``retries``/``sheds``/
      ``deadline_misses`` counters alongside.

    Transport failures retry forever (capped backoff): in the simulated
    cluster recovery is guaranteed, and the harness bounds total time.
    """

    name = "kv-session-client"
    initial_phase = "socket"
    #: Sheds of one request tolerated before it is reported ``shed``,
    #: and the reconnect / shed-retry backoff range.
    SHED_PATIENCE = 25
    BACKOFF_BASE_S = 0.02
    BACKOFF_CAP_S = 0.5

    def __init__(self, server_ip: str, script: List[dict], rng,
                 deadline_s: float = 1.5, think_time_s: float = 0.0):
        super().__init__()
        self.server_ip = server_ip
        self.port = KV_PORT
        self.script = list(script)
        self.rng = rng
        self.deadline_s = deadline_s
        self.think_time_s = think_time_s
        self.fd = None
        self.rx = b""
        self.unsent = b""
        self.index = 0
        #: Sim-time the *first* attempt of the current request started
        #: (None = no request in flight); latency spans reconnects.
        self.start_s = None
        self.attempt_deadline = 0.0
        self.attempts = 0
        self.pending_status = "ok"
        self.samples: List[dict] = []
        self.responses_ok = 0
        self.errors = 0
        self.sheds = 0
        self.deadline_misses = 0
        self.reconnects = 0
        self.retries = 0

    # -- connection management ------------------------------------------

    def phase_socket(self, result):
        self.goto("connected")
        return sys("socket", "tcp")

    def phase_connected(self, result):
        if isinstance(result, SyscallError):
            return self._transport_fail()
        if isinstance(result, int):
            self.fd = result
            return sys("connect", self.fd, self.server_ip, self.port)
        self.goto("start")
        return self.phase_start(None)

    def _transport_fail(self, miss: bool = False):
        """Reconnect after close + capped exponential backoff."""
        if miss:
            self.deadline_misses += 1
        self.attempts += 1
        self.reconnects += 1
        if self.start_s is not None:
            self.retries += 1
        self.rx = b""
        self.goto("backoff")
        return sys("close", self.fd)

    def phase_backoff(self, result):
        delay = min(self.BACKOFF_CAP_S,
                    self.BACKOFF_BASE_S * 2 ** min(self.attempts - 1, 10))
        self.goto("socket")
        return sys("sleep", delay * (0.5 + self.rng.random()))

    # -- request lifecycle ----------------------------------------------

    def phase_start(self, result):
        if self.index >= len(self.script):
            self.goto("finish")
            return sys("close", self.fd)
        self.goto("stamped")
        return sys("gettime")

    def phase_stamped(self, result):
        if self.start_s is None:
            self.start_s = result
        self.attempt_deadline = result + self.deadline_s
        self.unsent = encode(self.script[self.index])
        self.goto("sending")
        return sys("send", self.fd, self.unsent)

    def phase_sending(self, result):
        if isinstance(result, SyscallError):
            return self._transport_fail()
        self.unsent = self.unsent[result:]
        if self.unsent:
            return sys("send", self.fd, self.unsent)
        self.goto("prewait")
        return sys("gettime")

    def phase_prewait(self, result):
        remaining = self.attempt_deadline - result
        if remaining <= 0:
            return self._transport_fail(miss=True)
        self.goto("waiting")
        return sys("poll", [self.fd], timeout=remaining)

    def phase_waiting(self, result):
        if isinstance(result, SyscallError):
            return self._transport_fail()
        if not result:
            return self._transport_fail(miss=True)
        self.goto("receiving")
        return sys("recv", self.fd, 65536, flags=MSG_DONTWAIT)

    def phase_receiving(self, result):
        if isinstance(result, SyscallError) or result is None:
            self.goto("prewait")
            return sys("gettime")
        if result == b"":
            return self._transport_fail()
        self.rx += result
        rid = self.script[self.index]["rid"]
        response, self.rx = try_decode(self.rx)
        while response is not None:
            if response.get("rid") == rid:
                return self._handle_response(response)
            # Stale frame from an abandoned attempt: drop it.
            response, self.rx = try_decode(self.rx)
        self.goto("prewait")
        return sys("gettime")

    def _handle_response(self, response: dict):
        if response.get("code") == 503:
            self.sheds += 1
            self.attempts += 1
            if self.attempts >= self.SHED_PATIENCE:
                self.pending_status = "shed"
                self.goto("end_stamp")
                return sys("gettime")
            delay = self.BACKOFF_BASE_S * (0.5 + self.rng.random())
            self.goto("shed_backoff")
            return sys("sleep", delay)
        if response.get("ok"):
            self.responses_ok += 1
            self.pending_status = "ok"
        else:
            self.errors += 1
            self.pending_status = "error"
        self.goto("end_stamp")
        return sys("gettime")

    def phase_shed_backoff(self, result):
        self.goto("stamped")
        return sys("gettime")

    def phase_end_stamp(self, result):
        request = self.script[self.index]
        self.samples.append({
            "start": self.start_s,
            "end": result,
            "op": request["op"],
            "status": self.pending_status,
            "attempts": self.attempts + 1,
        })
        self.index += 1
        self.start_s = None
        self.attempts = 0
        if self.think_time_s:
            self.goto("thinking")
            return sys("sleep",
                       self.think_time_s * (0.5 + self.rng.random()))
        self.goto("start")
        return self.phase_start(None)

    def phase_thinking(self, result):
        self.goto("start")
        return self.phase_start(None)

    def phase_finish(self, result):
        return Exit(0)

"""A TCP load-balancing proxy fronting a replicated kv fleet.

The serving tier of the paper's motivating scenario (§1): clients talk
to one stable address while Cruz checkpoints, migrates and fails over
the pods *behind* it. The proxy is itself an ordinary
:class:`~repro.simos.program.PhasedProgram` in its own pod — it gets
checkpointed and restored like everything else, so all of its state
(windows, in-flight tables, the replication log) must live in plain
picklable attributes.

Design (one event loop, one syscall per step):

* **poll → wake → tick → act.** ``poll`` watches the listen socket,
  every client and every live backend with a bounded timeout; ``wake``
  turns ready fds into queued actions; ``tick`` (time from ``gettime``)
  runs housekeeping — reconnects due, ``connstat`` for in-flight
  nonblocking connects, health probes, suspect/down transitions, queue
  expiry and dispatch; ``act`` drains the action queue, one syscall per
  action, routing each result back through a handler.

* **Health.** Every backend response refreshes liveness; periodic pings
  probe idle links. ``suspect`` (no traffic for ``suspect_after_s``)
  stops new reads; ``down`` (``down_after_s``, chosen to ride out a
  checkpoint pause plus one retransmit) clears the connection and
  re-dials with capped exponential backoff + jitter from the injected
  seeded rng. Connects are nonblocking (``connect(..., nonblock=True)``
  + ``connstat``) so one dead backend never stalls the loop.

* **Writes** are stamped with a proxy sequence number, appended to a
  bounded replication log and fanned to every attached backend; the
  client is answered on the *first* ack (which also advances
  ``committed_seq``). A backend that (re)connects starts ``syncing``:
  a ping learns its applied high-water seq, the gap is replayed from
  the log (server-side rid dedup absorbs overlap) and it is promoted
  to ``up`` only once fully caught up — until then it serves no reads.

* **Reads** go to the least-outstanding ``up`` backend whose
  ``acked_seq`` has reached ``committed_seq`` (read-your-writes), ties
  to the lowest index. Saturation (per-backend windows full, bounded
  pending queue full or entry expired) sheds with a typed
  ``{"ok": False, "code": 503, "error": "shed"}`` — never unbounded
  buffering, never a silent hang.

* **Exactly-once.** Completed writes are remembered in a bounded
  rid → response cache; a retried rid replays the cached answer. A rid
  still in flight re-homes to the retrying client's new connection
  (the reconnect-after-deadline path), so a mid-write failover applies
  the write once and still answers the client.

* **Admin plane** (ops ``admin.*`` on the client port) powers the
  canary rollout: ``drain``/``undrain`` (stop new traffic to one
  backend; undrain resyncs if it missed writes), ``status``,
  ``probe`` (a read pinned to one backend, bypassing eligibility) and
  ``reset`` (force-close the proxy side before restoring an *older*
  image whose TCP state would not match).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.apps.kvserver import KV_PORT, encode, try_decode
from repro.errors import SyscallError
from repro.simos.program import PhasedProgram
from repro.simos.syscalls import MSG_DONTWAIT, Exit, sys

#: Backend states that hold an attached TCP connection.
ATTACHED = ("syncing", "up", "suspect")
#: Backend states eligible for write fan-out (syncing backends catch up
#: via ordered log replay instead — interleaving direct sends with
#: replay could apply same-key writes out of order).
FANOUT = ("up", "suspect")

WRITE_OPS = ("put", "delete")
READ_OPS = ("get", "count")


def shed_response(rid) -> dict:
    return {"ok": False, "code": 503, "error": "shed", "rid": rid}


class KvProxy(PhasedProgram):
    """Least-outstanding-requests TCP proxy over N kv backends."""

    name = "kv-proxy"
    initial_phase = "socket"

    def __init__(self, backend_ips: List[str], rng,
                 pending_cap: int = 256, queue_timeout_s: float = 1.0):
        super().__init__()
        # Everything below that is not a parameter is fixed tuning, not
        # an option. It stays instance state, in this order, because the
        # proxy is checkpointed: the pickled bytes are content-addressed
        # into the chunk store and counted in ``state_bytes``, which the
        # committed SLO baseline and ``serve_fleet``'s ``sim_digest`` pin.
        self.port = KV_PORT
        self.backend_port = KV_PORT
        self.rng = rng
        self.tick_s = 0.005
        self.window = 32
        self.pending_cap = pending_cap
        self.queue_timeout_s = queue_timeout_s
        self.probe_interval_s = 0.05
        self.suspect_after_s = 0.2
        self.down_after_s = 0.8
        self.connect_timeout_s = 3.0
        self.backoff_base_s = 0.05
        self.backoff_cap_s = 1.0
        self.wlog_cap = 8192
        self.recent_cap = 8192
        self.backends: List[dict] = [
            self._new_backend(ip) for ip in backend_ips]
        self.by_fd: Dict[int, int] = {}
        self.fd = None
        self.now = 0.0
        #: fd -> {"rx", "tx"} per client connection.
        self.clients: Dict[int, dict] = {}
        self.actions: List[tuple] = []
        self.current: Optional[tuple] = None
        self.flush_tried: List[tuple] = []
        #: Queued requests waiting for an eligible backend.
        self.pending: List[dict] = []
        #: rid -> replicated-write record (seq, client, waiting, acks).
        self.wrecs: Dict[str, dict] = {}
        #: rid -> in-flight read record (client, backend, request).
        self.rrecs: Dict[str, dict] = {}
        #: Bounded ordered replication log of stamped write requests.
        self.wlog: List[dict] = []
        #: rid -> response cache for completed writes (retry dedup).
        self.recent: Dict[str, dict] = {}
        self.recent_order: List[str] = []
        self.seq = 0
        self.committed_seq = 0
        self.auto_rid = 0
        self.probe_seq = 0
        # Counters surfaced through admin.status and the SLO recorder.
        self.clients_accepted = 0
        self.writes = 0
        self.reads = 0
        self.sheds = 0
        self.dups_served = 0
        self.rehomed = 0
        self.redispatched = 0
        self.backend_downs = 0
        self.backend_reconnects = 0
        self.promotions = 0
        self.sync_replays = 0
        self.wlog_gaps = 0

    @staticmethod
    def _new_backend(ip: str) -> dict:
        return {
            "ip": ip,
            "fd": None,
            "state": "down",
            "drained": False,
            "rx": b"",
            "tx": b"",
            "inflight": {},        # rid -> write|read|sync|probe|sync_ping
            "outstanding": 0,      # write/read/sync entries only
            "acked_seq": 0,
            "last_pong": 0.0,
            "ping_due": 0.0,
            "attempts": 0,
            "next_connect_at": 0.0,
            "connect_deadline": 0.0,
        }

    # -- event loop ------------------------------------------------------

    def phase_socket(self, result):
        self.goto("bind")
        return sys("socket", "tcp")

    def phase_bind(self, result):
        self.fd = result
        self.goto("listen")
        return sys("bind", self.fd, None, self.port)

    def phase_listen(self, result):
        self.goto("clock")
        return sys("listen", self.fd, 64)

    def phase_clock(self, result):
        self.goto("tick")
        return sys("gettime")

    def phase_tick(self, result):
        self.now = result
        self._tick()
        self.goto("act")
        return self.phase_act(None)

    def phase_act(self, result):
        while True:
            if not self.actions:
                self._queue_flushes()
                if not self.actions:
                    break
            self.current = self.actions.pop(0)
            call = self._begin(self.current)
            if call is not None:
                self.goto("acted")
                return call
        del self.flush_tried[:]
        self.goto("wake")
        return sys("poll", self._poll_fds(), timeout=self.tick_s)

    def phase_acted(self, result):
        call = self._finish(self.current, result)
        if call is not None:
            return call
        self.goto("act")
        return self.phase_act(None)

    def phase_wake(self, result):
        if isinstance(result, list):
            for fd in result:
                if fd == self.fd:
                    self.actions.append(("accept",))
                elif fd in self.by_fd:
                    self.actions.append(("recv_backend", self.by_fd[fd]))
                elif fd in self.clients:
                    self.actions.append(("recv_client", fd))
        self.goto("clock")
        return sys("gettime")

    def _poll_fds(self) -> List[int]:
        fds = [self.fd] + sorted(self.clients)
        for backend in self.backends:
            if backend["fd"] is not None and backend["state"] in ATTACHED:
                fds.append(backend["fd"])
        return fds

    # -- action execution ------------------------------------------------

    def _begin(self, action):
        kind = action[0]
        if kind == "accept":
            return sys("accept", self.fd)
        if kind == "recv_client":
            fd = action[1]
            if fd not in self.clients:
                return None
            return sys("recv", fd, 65536, flags=MSG_DONTWAIT)
        if kind == "recv_backend":
            backend = self.backends[action[1]]
            if backend["fd"] is None:
                return None
            return sys("recv", backend["fd"], 65536, flags=MSG_DONTWAIT)
        if kind == "connect_socket":
            return sys("socket", "tcp")
        if kind == "connstat":
            backend = self.backends[action[1]]
            if backend["state"] != "connecting" or backend["fd"] is None:
                return None
            return sys("connstat", backend["fd"])
        if kind == "flush_c":
            record = self.clients.get(action[1])
            if record is None or not record["tx"]:
                return None
            return sys("send", action[1], record["tx"],
                       flags=MSG_DONTWAIT)
        if kind == "flush_b":
            backend = self.backends[action[1]]
            if backend["fd"] is None or not backend["tx"] \
                    or backend["state"] not in ATTACHED:
                return None
            return sys("send", backend["fd"], backend["tx"],
                       flags=MSG_DONTWAIT)
        if kind == "close":
            return sys("close", action[1])
        return None

    def _finish(self, action, result):
        kind = action[0]
        failed = isinstance(result, SyscallError)
        if kind == "accept":
            if not failed and isinstance(result, tuple):
                fd = result[0]
                self.clients[fd] = {"rx": b"", "tx": b""}
                self.clients_accepted += 1
        elif kind == "recv_client":
            fd = action[1]
            if failed or result is None:
                pass
            elif result == b"":
                self._client_gone(fd)
            else:
                self._on_client_data(fd, result)
        elif kind == "recv_backend":
            index = action[1]
            if failed or result is None:
                pass
            elif result == b"":
                self._backend_down(index)
            else:
                self._on_backend_data(index, result)
        elif kind == "connect_socket":
            index = action[1]
            backend = self.backends[index]
            backend["fd"] = result
            self.by_fd[result] = index
            self.current = ("connect_issue", index)
            return sys("connect", result, backend["ip"],
                       self.backend_port, nonblock=True)
        elif kind == "connect_issue":
            index = action[1]
            if failed:
                self._backend_down(index)
            else:
                self.backends[index]["connect_deadline"] = \
                    self.now + self.connect_timeout_s
        elif kind == "connstat":
            index = action[1]
            if result == "established":
                self._backend_established(index)
            elif result == "failed":
                self._backend_down(index)
        elif kind == "flush_c":
            fd = action[1]
            record = self.clients.get(fd)
            if record is None:
                pass
            elif isinstance(result, int):
                record["tx"] = record["tx"][result:]
            elif failed and result.errno != "EAGAIN":
                self._client_gone(fd)
        elif kind == "flush_b":
            index = action[1]
            backend = self.backends[index]
            if isinstance(result, int):
                backend["tx"] = backend["tx"][result:]
            elif failed and result.errno != "EAGAIN":
                self._backend_down(index)
        return None

    def _queue_flushes(self) -> None:
        for fd in sorted(self.clients):
            key = ("c", fd)
            if self.clients[fd]["tx"] and key not in self.flush_tried:
                self.flush_tried.append(key)
                self.actions.append(("flush_c", fd))
        for index, backend in enumerate(self.backends):
            key = ("b", index)
            if backend["tx"] and backend["fd"] is not None \
                    and backend["state"] in ATTACHED \
                    and key not in self.flush_tried:
                self.flush_tried.append(key)
                self.actions.append(("flush_b", index))

    # -- housekeeping ----------------------------------------------------

    def _tick(self) -> None:
        for index, backend in enumerate(self.backends):
            state = backend["state"]
            if state == "down":
                if self.now >= backend["next_connect_at"]:
                    backend["state"] = "connecting"
                    backend["connect_deadline"] = \
                        self.now + self.connect_timeout_s
                    self.backend_reconnects += 1
                    self.actions.append(("connect_socket", index))
            elif state == "connecting":
                if backend["fd"] is None:
                    continue
                if self.now > backend["connect_deadline"]:
                    self._backend_down(index)
                else:
                    self.actions.append(("connstat", index))
            else:
                idle = self.now - backend["last_pong"]
                if idle > self.down_after_s:
                    self._backend_down(index)
                    continue
                if idle > self.suspect_after_s and state == "up":
                    backend["state"] = "suspect"
                if self.now >= backend["ping_due"]:
                    self._send_probe(index)
        if self.pending:
            self._service_pending()

    def _service_pending(self) -> None:
        keep = []
        for entry in self.pending:
            if self.now - entry["at"] > self.queue_timeout_s:
                self.sheds += 1
                self._reply(entry["client"],
                            shed_response(entry["request"].get("rid")))
            elif entry["kind"] == "write":
                if not self._fan_write(entry):
                    keep.append(entry)
            else:
                if not self._dispatch_read(entry):
                    keep.append(entry)
        self.pending = keep

    def _send_probe(self, index: int) -> None:
        backend = self.backends[index]
        rid = f"pb{index}-{self.probe_seq}"
        self.probe_seq += 1
        backend["inflight"][rid] = "probe"
        backend["tx"] += encode({"op": "ping", "rid": rid})
        backend["ping_due"] = self.now + self.probe_interval_s

    # -- backend lifecycle -----------------------------------------------

    def _backend_established(self, index: int) -> None:
        backend = self.backends[index]
        backend["state"] = "syncing"
        backend["attempts"] = 0
        backend["last_pong"] = self.now
        backend["ping_due"] = self.now + self.probe_interval_s
        rid = f"sp{index}-{self.probe_seq}"
        self.probe_seq += 1
        backend["inflight"][rid] = "sync_ping"
        backend["tx"] += encode({"op": "ping", "rid": rid})

    def _backend_down(self, index: int, reset: bool = False) -> None:
        backend = self.backends[index]
        if backend["fd"] is not None:
            self.by_fd.pop(backend["fd"], None)
            self.actions.append(("close", backend["fd"]))
            backend["fd"] = None
        inflight = backend["inflight"]
        backend["inflight"] = {}
        backend["outstanding"] = 0
        backend["rx"] = b""
        backend["tx"] = b""
        # The next incarnation may be *older* (restored from an earlier
        # image); its true high-water seq is relearned from the sync
        # ping, never carried over. Replay overlap is absorbed by
        # server-side rid dedup.
        backend["acked_seq"] = 0
        for rid in list(inflight):
            flavor = inflight[rid]
            if flavor in ("write", "sync"):
                wrec = self.wrecs.get(rid)
                if wrec is not None and index in wrec["waiting"]:
                    wrec["waiting"].remove(index)
                    if not wrec["waiting"] and wrec["acks"] > 0:
                        del self.wrecs[rid]
                # acks == 0 with nobody waiting: the record stays; the
                # log replay on reconnect applies and acks it.
            elif flavor == "read":
                rrec = self.rrecs.get(rid)
                if rrec is not None and rrec["backend"] == index:
                    del self.rrecs[rid]
                    if rrec.get("pinned"):
                        self._reply(rrec["client"],
                                    {"ok": False, "code": 503,
                                     "error": "backend-lost", "rid": rid})
                    else:
                        self.redispatched += 1
                        self.pending.insert(0, {
                            "kind": "read", "client": rrec["client"],
                            "request": rrec["request"], "at": self.now})
        backend["state"] = "down"
        if reset:
            backend["attempts"] = 0
            backend["next_connect_at"] = self.now
        else:
            self.backend_downs += 1
            backend["attempts"] += 1
            delay = min(self.backoff_cap_s, self.backoff_base_s *
                        2 ** min(backend["attempts"] - 1, 8))
            backend["next_connect_at"] = \
                self.now + delay * (0.5 + self.rng.random())

    def _maybe_promote(self, index: int) -> None:
        backend = self.backends[index]
        if backend["state"] != "syncing":
            return
        for flavor in backend["inflight"].values():
            if flavor in ("sync", "sync_ping"):
                return
        if backend["acked_seq"] >= self.seq:
            backend["state"] = "up"
            self.promotions += 1
        else:
            self._start_replay(index)

    def _start_replay(self, index: int) -> None:
        backend = self.backends[index]
        missing = [entry for entry in self.wlog
                   if entry["seq"] > backend["acked_seq"]
                   and entry["rid"] not in backend["inflight"]]
        if not missing:
            if self.wlog and self.wlog[0]["seq"] > \
                    backend["acked_seq"] + 1:
                # The gap predates the bounded log: unrecoverable by
                # replay. Counted, retried (a fresh checkpoint image
                # usually closes it after the next failover).
                self.wlog_gaps += 1
            return
        for entry in missing:
            rid = entry["rid"]
            backend["inflight"][rid] = "sync"
            backend["outstanding"] += 1
            backend["tx"] += encode(entry)
            wrec = self.wrecs.get(rid)
            if wrec is not None and index not in wrec["waiting"]:
                wrec["waiting"].append(index)
        self.sync_replays += len(missing)

    # -- client traffic --------------------------------------------------

    def _on_client_data(self, fd: int, data: bytes) -> None:
        record = self.clients.get(fd)
        if record is None:
            return
        record["rx"] += data
        request, record["rx"] = try_decode(record["rx"])
        while request is not None:
            self._handle_client_request(fd, request)
            record = self.clients.get(fd)
            if record is None:
                return
            request, record["rx"] = try_decode(record["rx"])

    def _handle_client_request(self, fd: int, request: dict) -> None:
        op = request.get("op")
        if isinstance(op, str) and op.startswith("admin."):
            self._handle_admin(fd, op, request)
            return
        rid = request.get("rid")
        if rid is None:
            rid = f"i{self.auto_rid}"
            self.auto_rid += 1
            request = dict(request)
            request["rid"] = rid
        if op == "ping":
            self._reply(fd, {"ok": True, "pong": True, "rid": rid})
            return
        if rid in self.recent:
            self.dups_served += 1
            self._reply(fd, self.recent[rid])
            return
        if rid in self.wrecs:
            # The write is still in flight: the client timed out and
            # reconnected — re-home the eventual response.
            self.wrecs[rid]["client"] = fd
            self.rehomed += 1
            return
        if rid in self.rrecs:
            self.rrecs[rid]["client"] = fd
            self.rehomed += 1
            return
        entry = {"client": fd, "request": request, "at": self.now}
        if op in WRITE_OPS:
            self.writes += 1
            entry["kind"] = "write"
            if not self._fan_write(entry):
                self._enqueue(entry)
        elif op in READ_OPS:
            self.reads += 1
            entry["kind"] = "read"
            if not self._dispatch_read(entry):
                self._enqueue(entry)
        else:
            self._reply(fd, {"ok": False, "code": 400,
                             "error": f"bad op {op!r}", "rid": rid})

    def _enqueue(self, entry: dict) -> None:
        if len(self.pending) >= self.pending_cap:
            self.sheds += 1
            self._reply(entry["client"],
                        shed_response(entry["request"].get("rid")))
            return
        self.pending.append(entry)

    def _fan_write(self, entry: dict) -> bool:
        request = entry["request"]
        rid = request["rid"]
        if rid in self.wrecs or rid in self.recent:
            return True
        targets = [index for index, backend in enumerate(self.backends)
                   if backend["fd"] is not None
                   and backend["state"] in FANOUT
                   and not backend["drained"]]
        if not targets:
            return False
        self.seq += 1
        stamped = dict(request)
        stamped["seq"] = self.seq
        self.wlog.append(stamped)
        if len(self.wlog) > self.wlog_cap:
            self.wlog.pop(0)
        self.wrecs[rid] = {"seq": self.seq, "client": entry["client"],
                           "request": stamped,
                           "waiting": list(targets), "acks": 0}
        frame = encode(stamped)
        for index in targets:
            backend = self.backends[index]
            backend["inflight"][rid] = "write"
            backend["outstanding"] += 1
            backend["tx"] += frame
        return True

    def _dispatch_read(self, entry: dict) -> bool:
        request = entry["request"]
        rid = request["rid"]
        if rid in self.rrecs or rid in self.recent:
            return True
        best = None
        for index, backend in enumerate(self.backends):
            if backend["fd"] is None or backend["state"] != "up" \
                    or backend["drained"]:
                continue
            if backend["acked_seq"] < self.committed_seq:
                continue
            if backend["outstanding"] >= self.window:
                continue
            if best is None or backend["outstanding"] < \
                    self.backends[best]["outstanding"]:
                best = index
        if best is None:
            return False
        backend = self.backends[best]
        self.rrecs[rid] = {"client": entry["client"], "backend": best,
                           "request": request}
        backend["inflight"][rid] = "read"
        backend["outstanding"] += 1
        backend["tx"] += encode(request)
        return True

    def _reply(self, fd: Optional[int], response: dict) -> None:
        record = self.clients.get(fd) if fd is not None else None
        if record is None:
            return
        record["tx"] += encode(response)

    def _remember(self, rid: str, response: dict) -> None:
        if rid in self.recent:
            return
        self.recent[rid] = response
        self.recent_order.append(rid)
        if len(self.recent_order) > self.recent_cap:
            self.recent.pop(self.recent_order.pop(0), None)

    def _client_gone(self, fd: int) -> None:
        self.clients.pop(fd, None)
        self.actions.append(("close", fd))
        for wrec in self.wrecs.values():
            if wrec["client"] == fd:
                wrec["client"] = None
        for rrec in self.rrecs.values():
            if rrec["client"] == fd:
                rrec["client"] = None
        for entry in self.pending:
            if entry["client"] == fd:
                entry["client"] = None

    # -- backend traffic -------------------------------------------------

    def _on_backend_data(self, index: int, data: bytes) -> None:
        backend = self.backends[index]
        backend["rx"] += data
        response, backend["rx"] = try_decode(backend["rx"])
        while response is not None:
            self._handle_backend_response(index, response)
            response, backend["rx"] = try_decode(backend["rx"])
        self._maybe_promote(index)

    def _handle_backend_response(self, index: int,
                                 response: dict) -> None:
        backend = self.backends[index]
        backend["last_pong"] = self.now
        if backend["state"] == "suspect":
            backend["state"] = "up"
        seq = response.get("seq")
        if isinstance(seq, int) and seq > backend["acked_seq"]:
            backend["acked_seq"] = seq
        rid = response.get("rid")
        if rid is None:
            return
        flavor = backend["inflight"].pop(rid, None)
        if flavor in ("write", "read", "sync"):
            backend["outstanding"] -= 1
        if rid in self.wrecs:
            wrec = self.wrecs[rid]
            if index in wrec["waiting"]:
                wrec["waiting"].remove(index)
            wrec["acks"] += 1
            if wrec["acks"] == 1:
                if wrec["seq"] > self.committed_seq:
                    self.committed_seq = wrec["seq"]
                clean = {key: value for key, value in response.items()
                         if key != "dup"}
                self._remember(rid, clean)
                self._reply(wrec["client"], clean)
            if not wrec["waiting"]:
                del self.wrecs[rid]
        elif rid in self.rrecs and self.rrecs[rid]["backend"] == index:
            rrec = self.rrecs.pop(rid)
            self._reply(rrec["client"], response)
        if flavor == "sync_ping":
            self._start_replay(index)

    # -- admin plane -----------------------------------------------------

    def _handle_admin(self, fd: int, op: str, request: dict) -> None:
        rid = request.get("rid")
        if op == "admin.status":
            self._reply(fd, {"ok": True, "rid": rid,
                             "seq": self.seq,
                             "committed_seq": self.committed_seq,
                             "pending": len(self.pending),
                             "counters": self.counters(),
                             "backends": [self._backend_view(backend)
                                          for backend in self.backends]})
            return
        index = request.get("backend")
        if not isinstance(index, int) or \
                not 0 <= index < len(self.backends):
            self._reply(fd, {"ok": False, "code": 400,
                             "error": "bad backend", "rid": rid})
            return
        backend = self.backends[index]
        if op == "admin.drain":
            backend["drained"] = True
            self._reply(fd, {"ok": True, "rid": rid,
                             "outstanding": backend["outstanding"]})
        elif op == "admin.undrain":
            backend["drained"] = False
            if backend["state"] == "up" and \
                    backend["acked_seq"] < self.seq:
                backend["state"] = "syncing"
                self._maybe_promote(index)
            self._reply(fd, {"ok": True, "rid": rid,
                             "state": backend["state"]})
        elif op == "admin.probe":
            if rid is None:
                rid = f"i{self.auto_rid}"
                self.auto_rid += 1
            if backend["fd"] is None or backend["state"] not in ATTACHED:
                self._reply(fd, {"ok": False, "code": 503,
                                 "error": "backend-unavailable",
                                 "rid": rid})
                return
            probe = {"op": "get", "key": request["key"], "rid": rid}
            self.rrecs[rid] = {"client": fd, "backend": index,
                               "request": probe, "pinned": True}
            backend["inflight"][rid] = "read"
            backend["outstanding"] += 1
            backend["tx"] += encode(probe)
        elif op == "admin.reset":
            self._backend_down(index, reset=True)
            self._reply(fd, {"ok": True, "rid": rid})
        else:
            self._reply(fd, {"ok": False, "code": 400,
                             "error": f"bad op {op!r}", "rid": rid})

    def _backend_view(self, backend: dict) -> dict:
        return {"ip": backend["ip"], "state": backend["state"],
                "drained": backend["drained"],
                "outstanding": backend["outstanding"],
                "acked_seq": backend["acked_seq"]}

    def counters(self) -> dict:
        return {"clients_accepted": self.clients_accepted,
                "writes": self.writes, "reads": self.reads,
                "sheds": self.sheds, "dups_served": self.dups_served,
                "rehomed": self.rehomed,
                "redispatched": self.redispatched,
                "backend_downs": self.backend_downs,
                "backend_reconnects": self.backend_reconnects,
                "promotions": self.promotions,
                "sync_replays": self.sync_replays,
                "wlog_gaps": self.wlog_gaps}

    def phase_finish(self, result):
        return Exit(0)

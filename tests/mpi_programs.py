"""MPI test programs (module-level so checkpoint images can pickle them)."""

from __future__ import annotations

from typing import List

from repro.mpi.api import MpiProgram
from repro.simos.syscalls import sys


class CollectiveTester(MpiProgram):
    """Exercises allreduce / barrier / bcast and records the results."""

    name = "collective-tester"

    def __init__(self, rank: int, peer_ips: List[str], port: int = 9700):
        super().__init__(rank, peer_ips, port=port)
        self.sum_result = None
        self.max_result = None
        self.bcast_result = None
        self.barrier_passed = False

    def on_mpi_ready(self, result):
        return self.allreduce(self.rank + 1, op="sum", then="got_sum")

    def phase_got_sum(self, result):
        self.sum_result = result
        return self.allreduce(self.rank, op="max", then="got_max")

    def phase_got_max(self, result):
        self.max_result = result
        return self.barrier(then="after_barrier")

    def phase_after_barrier(self, result):
        self.barrier_passed = True
        return self.bcast("hello" if self.rank == 0 else None,
                          then="got_bcast")

    def phase_got_bcast(self, result):
        self.bcast_result = result
        return self.mpi_exit()


class PingPonger(MpiProgram):
    """Ranks exchange point-to-point messages pairwise with rank 0."""

    name = "ping-ponger"

    def __init__(self, rank: int, peer_ips: List[str],
                 rounds: int = 10, port: int = 9700,
                 work_s: float = 0.0):
        super().__init__(rank, peer_ips, port=port)
        self.rounds = rounds
        self.work_s = work_s
        self.transcript = []
        self.round = 0

    def on_mpi_ready(self, result):
        return self._next(None)

    def _next(self, _):
        if self.round >= self.rounds:
            return self.mpi_exit()
        if self.work_s:
            self.goto("after_work")
            return sys("compute", self.work_s)
        return self._exchange()

    def phase_after_work(self, result):
        return self._exchange()

    def _exchange(self):
        if self.rank == 0:
            self._collect_from = 1
            return self._collect(None)
        payload = ("ping", self.rank, self.round)
        return self.send_to(0, payload, then="await_ack")

    # rank 0: gather one message from each peer, ack each.
    def _collect(self, _):
        if self._collect_from >= self.size:
            self.round += 1
            self.goto("next_round")
            return self.phase_next_round(None)
        return self.recv_from(self._collect_from, then="got_ping")

    def phase_got_ping(self, result):
        self.transcript.append(result)
        src = self._collect_from
        self._collect_from += 1
        return self.send_to(src, ("ack", self.round), then="collect_more")

    def phase_collect_more(self, result):
        return self._collect(None)

    def phase_await_ack(self, result):
        return self.recv_from(0, then="got_ack")

    def phase_got_ack(self, result):
        self.transcript.append(result)
        self.round += 1
        self.goto("next_round")
        return self.phase_next_round(None)

    def phase_next_round(self, result):
        return self._next(None)

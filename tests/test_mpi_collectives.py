"""Extended MPI collectives: reduce/gather/scatter/sendrecv, numpy
payloads, large multi-segment messages, and CR-obliviousness."""

import numpy as np

from repro.cruz.cluster import CruzCluster
from repro.mpi.api import MpiProgram
from repro.simos.syscalls import sys

from tests.test_apps import run_app


def make_cluster(n, **kwargs):
    kwargs.setdefault("time_wait_s", 0.5)
    return CruzCluster(n, **kwargs)


class CollectiveSuite(MpiProgram):
    """Runs the extended collectives end-to-end and records results."""

    name = "collective-suite"

    def __init__(self, rank, peer_ips, port=9700):
        super().__init__(rank, peer_ips, port=port)
        self.reduce_result = "unset"
        self.gather_result = "unset"
        self.scatter_result = "unset"
        self.sendrecv_result = "unset"
        self.array_sum = None

    def on_mpi_ready(self, result):
        return self.reduce(10 ** self.rank, op="sum", then="got_reduce")

    def phase_got_reduce(self, result):
        self.reduce_result = result
        return self.gather(f"from-{self.rank}", then="got_gather")

    def phase_got_gather(self, result):
        self.gather_result = result
        values = [f"slice-{i}" for i in range(self.size)] \
            if self.rank == 0 else None
        return self.scatter(values, then="got_scatter")

    def phase_got_scatter(self, result):
        self.scatter_result = result
        right = (self.rank + 1) % self.size
        left = (self.rank - 1) % self.size
        return self.sendrecv(right, ("ring", self.rank), left,
                             then="got_sendrecv")

    def phase_got_sendrecv(self, result):
        self.sendrecv_result = result
        return self.allreduce(np.full(8, float(self.rank + 1)),
                              op="sum", then="got_array")

    def phase_got_array(self, result):
        self.array_sum = result
        return self.mpi_exit()


def test_extended_collectives():
    n = 4
    cluster = make_cluster(n)
    app = cluster.launch_app_factory(
        "coll", n, lambda rank, ips: CollectiveSuite(rank, ips))
    run_app(cluster, app)
    suites = sorted(cluster.app_programs(app), key=lambda s: s.rank)
    # reduce: only rank 0 holds the sum 1+10+100+1000.
    assert suites[0].reduce_result == 1111
    assert all(s.reduce_result is None for s in suites[1:])
    # gather: rank 0 gets rank order.
    assert suites[0].gather_result == [f"from-{i}" for i in range(n)]
    assert all(s.gather_result is None for s in suites[1:])
    # scatter: everyone got their slice.
    assert [s.scatter_result for s in suites] == \
        [f"slice-{i}" for i in range(n)]
    # sendrecv ring: each rank got its left neighbour's tag.
    assert [s.sendrecv_result for s in suites] == \
        [("ring", (i - 1) % n) for i in range(n)]
    # numpy allreduce: sum over ranks of full(8, rank+1) = full(8, 10).
    expected = np.full(8, 10.0)
    for suite in suites:
        np.testing.assert_array_equal(suite.array_sum, expected)


class BigMessenger(MpiProgram):
    """Exchanges a multi-megabyte message (hundreds of TCP segments)."""

    name = "big-messenger"

    def __init__(self, rank, peer_ips, nbytes=3_000_000, port=9700):
        super().__init__(rank, peer_ips, port=port)
        self.nbytes = nbytes
        self.received = None

    def on_mpi_ready(self, result):
        if self.rank == 0:
            payload = bytes(range(256)) * (self.nbytes // 256)
            return self.send_to(1, payload, then="done_send")
        return self.recv_from(0, then="done_recv")

    def phase_done_send(self, result):
        return self.mpi_exit()

    def phase_done_recv(self, result):
        self.received = result
        return self.mpi_exit()


def test_large_message_crosses_many_segments():
    cluster = make_cluster(2)
    app = cluster.launch_app_factory(
        "big", 2, lambda rank, ips: BigMessenger(rank, ips))
    run_app(cluster, app)
    receiver = cluster.app_programs(app)[1]
    assert receiver.received == bytes(range(256)) * (3_000_000 // 256)


def test_large_message_survives_mid_transfer_checkpoint_restart():
    cluster = make_cluster(2)
    app = cluster.launch_app_factory(
        "big", 2, lambda rank, ips: BigMessenger(rank, ips))
    cluster.run_for(0.012)  # mid multi-segment transfer
    receiver = cluster.app_programs(app)[1]
    assert receiver.received is None
    cluster.checkpoint_app(app)
    cluster.crash_app(app)
    cluster.restart_app(app)
    run_app(cluster, app)
    receiver = cluster.app_programs(app)[1]
    assert receiver.received == bytes(range(256)) * (3_000_000 // 256)

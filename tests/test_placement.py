"""The one placement rule (``CruzCluster.place``), case by case."""

import pytest

from repro.cruz.cluster import CruzCluster
from repro.errors import FailoverError


class FakePod:
    def __init__(self, name, node):
        self.name = name
        self.node = node


#: (case, resident pods per node, pods to place as (name, home node),
#:  alive nodes, excluded nodes, expected placement)
CASES = [
    ("home-alive pods stay, whatever the load",
     {0: ["a-r0", "x", "y"], 1: ["a-r1"], 2: []},
     [("a-r0", 0), ("a-r1", 1)], {0, 1, 2}, (),
     {"a-r0": 0, "a-r1": 1}),
    ("a dead home's pod goes to the emptiest survivor",
     {0: ["a-r0"], 1: ["a-r1", "x"], 2: ["y"], 3: []},
     [("a-r0", 0), ("a-r1", 1)], {1, 2, 3}, (),
     {"a-r0": 3, "a-r1": 1}),
    ("an evicted pod never lands on its excluded node",
     {0: ["a-r0"], 1: ["x", "y"], 2: ["z"]},
     [("a-r0", 0)], {0, 1, 2}, (0,),
     {"a-r0": 2}),
    ("two homeless pods of one app spread by running load",
     {0: ["a-r0", "a-r1"], 1: [], 2: []},
     [("a-r0", 0), ("a-r1", 0)], {1, 2}, (),
     {"a-r0": 1, "a-r1": 2}),
    ("the pods being placed do not count as load where they sit",
     {0: ["a-r0"], 1: ["a-r1"], 2: ["x"]},
     [("a-r0", 0), ("a-r1", 1)], {1, 2}, (),
     {"a-r0": 1, "a-r1": 1}),
    ("ties go to the lowest index",
     {0: ["a-r0"], 1: ["x"], 2: ["y"], 3: ["z"]},
     [("a-r0", 0)], {1, 2, 3}, (),
     {"a-r0": 1}),
    ("no candidates",
     {0: ["a-r0"], 1: []},
     [("a-r0", 0)], {0}, (0,),
     None),
]


@pytest.mark.parametrize(
    "resident, pods, alive, exclude, expected",
    [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_place(resident, pods, alive, exclude, expected):
    cluster = CruzCluster(len(resident))
    for index, names in resident.items():
        for name in names:
            cluster.agents[index].pods[name] = object()
    placing = [FakePod(name, cluster.nodes[home]) for name, home in pods]
    assert cluster.place(placing, alive.__contains__,
                         exclude=exclude) == expected


def test_no_candidates_stays_a_typed_failover_error():
    cluster = CruzCluster(2, supervise=True)
    app = cluster.launch_app("a", [])
    for lease in cluster.supervisor.leases.values():
        lease.alive = False
    with pytest.raises(FailoverError, match="no surviving capacity"):
        cluster.supervisor._placement(app)

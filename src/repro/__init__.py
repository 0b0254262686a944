"""Cruz: application-transparent distributed checkpoint-restart.

A full reproduction of Janakiraman, Santos, Subhraveti & Turner,
"Cruz: Application-Transparent Distributed Checkpoint-Restart on Standard
Operating Systems" (DSN 2005), built on a deterministic simulated cluster
(see DESIGN.md for the substitution rationale).

Quick tour::

    from repro import CruzCluster
    from repro.apps import KvServer, KvClient

    cluster = CruzCluster(n_app_nodes=2)
    pod = cluster.create_pod(0, "svc")
    pod.spawn(KvServer())
    client = cluster.coordinator_node.spawn(
        KvClient(str(pod.ip), [{"op": "put", "key": "a", "value": 1}]))
    cluster.run_for(0.2)
    cluster.migrate_pod(pod, target_node_index=1)   # client never notices

Layering (bottom-up): :mod:`repro.sim` (event kernel), :mod:`repro.net`
(Ethernet/ARP/DHCP), :mod:`repro.tcp` (sequence-accurate TCP),
:mod:`repro.simos` (per-node OS), :mod:`repro.zap` (pods + virtualisation +
pod CR), :mod:`repro.cruz` (the paper's contribution), with
:mod:`repro.baselines`, :mod:`repro.mpi`, :mod:`repro.lsf`,
:mod:`repro.apps` and :mod:`repro.bench` alongside.
"""

from repro.cruz.cluster import CruzCluster
from repro.simos.program import PhasedProgram
from repro.simos.syscalls import Exit, sys

"""Cruz: application-transparent distributed checkpoint-restart.

The paper's two contributions:

1. saving and restoring the state of live TCP connections
   (:mod:`repro.cruz.netstate`);
2. a lightweight coordinated checkpoint-restart protocol that drops
   in-flight packets instead of flushing channels
   (:mod:`repro.cruz.coordinator` / :mod:`repro.cruz.agent`).

:class:`repro.cruz.cluster.CruzCluster` is the high-level entry point.
"""

from repro.cruz.cluster import CruzCluster
from repro.cruz.netstate import CruzSocketCodec

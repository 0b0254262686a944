"""Application workloads: the paper's benchmarks plus demonstration apps."""

from repro.apps.compute import ComputeBound, compute_factory
from repro.apps.dhcp_client import DhcpClient
from repro.apps.kvproxy import KvProxy
from repro.apps.kvserver import (
    KvClient,
    KvServer,
    KvSessionClient,
    build_session_script,
)
from repro.apps.pagerank import (
    PageRankRank,
    build_link_matrix,
    pagerank_factory,
    reference_pagerank,
)
from repro.apps.ring import RingWorker, ring_factory, validate_ring
from repro.apps.slm import (
    SlmRank,
    initial_field,
    reference_solution,
    slm_factory,
)
from repro.apps.tcpstream import (
    StreamReceiver,
    StreamSender,
    stream_factory,
)

__all__ = [
    "ComputeBound",
    "DhcpClient",
    "KvClient",
    "KvProxy",
    "KvServer",
    "KvSessionClient",
    "PageRankRank",
    "RingWorker",
    "SlmRank",
    "StreamReceiver",
    "StreamSender",
    "build_session_script",
    "compute_factory",
    "build_link_matrix",
    "initial_field",
    "reference_solution",
    "pagerank_factory",
    "reference_pagerank",
    "ring_factory",
    "slm_factory",
    "stream_factory",
    "validate_ring",
]

"""Application workloads: the paper's benchmarks plus demonstration apps."""

from repro.apps.compute import ComputeBound
from repro.apps.kvserver import KvClient, KvServer
from repro.apps.slm import reference_solution, slm_factory

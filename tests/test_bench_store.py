"""store benchmark: shape checks, the committed-scale run against its
baseline, and the kill-replica chaos verdict."""

import json

from repro.bench.chaos import ChaosResult
from repro.bench.harness import baseline_drift
from repro.bench.store import SUITE

# The pure functions, reached the way the CLI reaches them.
shape, run_suite = SUITE.shape, SUITE.run


def _row(rf, bandwidth):
    return {
        "rf": rf,
        "tiebreak": "fifo",
        "state_bytes": 16_000_000,
        "source_nodes": [f"node{i}" for i in range(rf)],
        "restore_s": 0.1,
        "bandwidth_mbps": bandwidth,
        "replica_bytes": 1_000_000 * (rf - 1),
        "bytes_written": 16_000_000,
    }


def _report(bandwidths=(150.0, 290.0, 540.0), lost=0, unhealed=0,
            rereplicated=1800, divergences=()):
    rfs = (1, 2, 4)
    return {
        "suite": "store",
        "workload": {"app_nodes": 5, "memory_mb": 16.0, "rfs": list(rfs)},
        "restore": {f"rf{rf}": _row(rf, bw)
                    for rf, bw in zip(rfs, bandwidths)},
        "scaling": bandwidths[-1] / bandwidths[0],
        "heal": {"rf": 2, "nodes_tested": 5, "lost_versions": lost,
                 "unhealed_chunks": unhealed,
                 "rereplicated_chunks": rereplicated},
        "divergences": list(divergences),
    }


def test_evaluate_passes_healthy_report():
    checks = shape(_report())
    assert checks.passed and len(checks) == 6


def test_evaluate_fails_on_flat_or_weak_scaling():
    checks = shape(_report(bandwidths=(150.0, 140.0, 300.0)))
    assert not checks["bandwidth_grows_with_rf"]
    assert not checks["restore_scaling"]
    assert checks["no_version_lost"] and checks["fifo_equals_lifo"]


def test_evaluate_fails_on_lost_versions_or_unhealed_chunks():
    checks = shape(_report(lost=1, unhealed=3, rereplicated=0))
    assert not checks["no_version_lost"]
    assert not checks["every_chunk_healed"]
    assert not checks["rereplication_repaired"]
    assert checks["restore_scaling"]


def test_evaluate_fails_on_divergence():
    checks = shape(_report(divergences=["restore.rf2.restore_s"]))
    assert not checks["fifo_equals_lifo"]
    assert [check.name for check in checks.checks if not check.ok] == [
        "fifo_equals_lifo"]


def test_reduced_scale_suite_meets_every_floor():
    """The committed scale (~0.5 s): every check passes and every field
    equals the committed baseline."""
    report = json.loads(json.dumps(run_suite()))
    assert shape(report).passed
    with open(SUITE.baseline, encoding="utf-8") as handle:
        assert baseline_drift(json.load(handle), report,
                              SUITE.host_clock) == []


def test_kill_replica_chaos_verdict():
    healthy = dict(seed=7, tiebreak="fifo", completed=True,
                   output_correct=True, sanitizer_violations=0,
                   kill_replica_mode=True, rereplicated_chunks=400,
                   under_replicated_after=0,
                   versions_reconstructible=True)
    assert ChaosResult(**healthy).ok
    # Any failover in the storage-loss scenario means the dead node was
    # not replica-only — the measurement is invalid.
    assert not ChaosResult(**healthy,
                           failovers=[{"app": "slm"}]).ok
    assert not ChaosResult(**dict(healthy, rereplicated_chunks=0)).ok
    assert not ChaosResult(**dict(healthy, under_replicated_after=2)).ok
    assert not ChaosResult(
        **dict(healthy, versions_reconstructible=False)).ok

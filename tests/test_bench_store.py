"""store benchmark: evaluate() guard logic, a reduced-scale run, and
the kill-replica chaos verdict."""

from repro.bench.chaos import ChaosResult
from repro.bench.store import SUITE

# The pure functions, reached the way the CLI reaches them.
evaluate, run_suite = SUITE.evaluate, SUITE.run


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
            rereplicated=1800, divergences=(), workload=None):
    rfs = (1, 2, 4)
    return {
        "suite": "store",
        "workload": workload or {"app_nodes": 5, "memory_mb": 16.0,
                                 "rfs": list(rfs)},
        "restore": {f"rf{rf}": _row(rf, bw)
                    for rf, bw in zip(rfs, bandwidths)},
        "scaling": bandwidths[-1] / bandwidths[0],
        "heal": {"rf": 2, "nodes_tested": 5, "lost_versions": lost,
                 "unhealed_chunks": unhealed,
                 "rereplicated_chunks": rereplicated},
        "divergences": list(divergences),
    }


def test_evaluate_passes_healthy_report():
    assert evaluate(_report(), None) == []


def test_evaluate_fails_on_flat_or_weak_scaling():
    failures = evaluate(_report(bandwidths=(150.0, 140.0, 300.0)), None)
    assert any("did not grow" in f for f in failures)
    assert any("scaling" in f for f in failures)


def test_evaluate_fails_on_lost_versions_or_unhealed_chunks():
    failures = evaluate(_report(lost=1, unhealed=3, rereplicated=0), None)
    assert any("lost" in f for f in failures)
    assert any("under-replicated" in f for f in failures)
    assert any("repaired nothing" in f for f in failures)


def test_evaluate_fails_on_divergence():
    failures = evaluate(_report(divergences=["restore.rf2.restore_s"]),
                        None)
    assert any("divergence" in f for f in failures)


def test_evaluate_compares_scaling_against_matching_baseline():
    baseline = _report(bandwidths=(150.0, 290.0, 600.0))
    failures = evaluate(_report(bandwidths=(150.0, 290.0, 460.0)),
                        baseline, tolerance=0.2)
    assert any("baseline" in f for f in failures)
    # A different workload only gets the explicit floors.
    other = _report(bandwidths=(150.0, 290.0, 460.0),
                    workload={"app_nodes": 3, "memory_mb": 4.0,
                              "rfs": [1, 2, 4]})
    assert evaluate(other, baseline, tolerance=0.2) == []


def test_reduced_scale_suite_meets_every_floor():
    report = run_suite(app_nodes=5, memory_mb=4.0)
    assert evaluate(report, None) == []
    assert report["divergences"] == []
    assert report["heal"]["lost_versions"] == 0


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

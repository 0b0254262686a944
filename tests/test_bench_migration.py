"""migration benchmark: shape checks and the committed-scale run
against its baseline."""

import json

from repro.bench.harness import baseline_drift
from repro.bench.migration import SUITE

# The pure functions, reached the way the CLI reaches them.
shape, run_suite = SUITE.shape, SUITE.run


def _mode(mode, pause_s, rounds=1, converged=True, correct=True,
          violations=0):
    return {
        "mode": mode,
        "tiebreak": "fifo",
        "pause_window_s": pause_s,
        "precopy_rounds": rounds,
        "converged": converged,
        "warm_bytes": 20_000_000,
        "total_bytes_moved": 21_000_000,
        "rounds": [],
        "output_correct": correct,
        "sanitizer_violations": violations,
    }


def _report(pre_pause=0.005, stop_pause=0.4, rounds=1, converged=True,
            correct=True, divergences=()):
    return {
        "suite": "migration",
        "workload": {"seed": 7, "memory_mb_per_rank": 20.0},
        "stop_and_copy": _mode("stop_and_copy", stop_pause, rounds=0,
                               correct=correct),
        "precopy": _mode("precopy", pre_pause, rounds=rounds,
                         converged=converged, correct=correct),
        "pause_ratio": pre_pause / stop_pause,
        "precopy_rounds": rounds,
        "divergences": list(divergences),
    }


def test_evaluate_passes_below_ratio_floor():
    checks = shape(_report())
    assert checks.passed and len(checks) == 6


def test_evaluate_fails_above_ratio_floor():
    checks = shape(_report(pre_pause=0.2))
    assert not checks["pause_ratio_under_floor"]
    assert checks["precopy_converged"]


def test_evaluate_fails_on_round_budget_and_convergence():
    checks = shape(_report(rounds=7, converged=False))
    assert not checks["precopy_rounds_within_budget"]
    assert not checks["precopy_converged"]
    assert checks["pause_ratio_under_floor"]


def test_evaluate_fails_on_wrong_output_or_divergence():
    checks = shape(_report(correct=False,
                           divergences=["migration.field_hash"]))
    assert not checks["output_bit_exact"]
    assert not checks["fifo_equals_lifo"]
    assert checks["sanitizer_clean"]


def test_reduced_scale_suite_meets_every_floor():
    """The committed 100 MB/rank scale (~2 s): every check passes and
    every field equals the committed baseline."""
    report = json.loads(json.dumps(run_suite()))
    assert shape(report).passed
    assert report["pause_ratio"] < 0.25
    with open(SUITE.baseline, encoding="utf-8") as handle:
        assert baseline_drift(json.load(handle), report,
                              SUITE.host_clock) == []

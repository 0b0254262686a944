"""migration benchmark: evaluate() guard logic and a reduced-scale run."""

from repro.bench.migration import SUITE

# The pure functions, reached the way the CLI reaches them.
evaluate, run_suite = SUITE.evaluate, SUITE.run


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
            correct=True, divergences=(), workload=None):
    return {
        "suite": "migration",
        "workload": workload or {"seed": 7, "memory_mb_per_rank": 20.0},
        "stop_and_copy": _mode("stop_and_copy", stop_pause, rounds=0,
                               correct=correct),
        "precopy": _mode("precopy", pre_pause, rounds=rounds,
                         converged=converged, correct=correct),
        "pause_ratio": pre_pause / stop_pause,
        "precopy_rounds": rounds,
        "divergences": list(divergences),
    }


def test_evaluate_passes_below_ratio_floor():
    assert evaluate(_report(), None) == []


def test_evaluate_fails_above_ratio_floor():
    failures = evaluate(_report(pre_pause=0.2), None)
    assert any("pause" in f for f in failures)


def test_evaluate_fails_on_round_budget_and_convergence():
    failures = evaluate(_report(rounds=7, converged=False), None)
    assert any("rounds" in f for f in failures)
    assert any("converge" in f for f in failures)


def test_evaluate_fails_on_wrong_output_or_divergence():
    failures = evaluate(_report(correct=False,
                                divergences=["migration.field_hash"]),
                        None)
    assert any("bit-exact" in f for f in failures)
    assert any("divergence" in f for f in failures)


def test_evaluate_compares_ratio_against_matching_baseline():
    baseline = _report(pre_pause=0.004)
    failures = evaluate(_report(pre_pause=0.04), baseline,
                        tolerance=0.25)
    assert any("baseline" in f for f in failures)
    # A different workload only gets the explicit floors.
    other = _report(pre_pause=0.04,
                    workload={"seed": 7, "memory_mb_per_rank": 5.0})
    assert evaluate(other, baseline, tolerance=0.25) == []


def test_reduced_scale_suite_meets_every_floor():
    report = run_suite(memory_mb_per_rank=10.0, steps=100,
                       total_work_s=10.0)
    assert evaluate(report, None) == []
    assert report["precopy"]["converged"]
    assert report["divergences"] == []
    assert report["pause_ratio"] < 0.25

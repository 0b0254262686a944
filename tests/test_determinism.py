"""Schedule-race detection: tie-break perturbation must be invisible."""

import pytest

from repro.analysis.determinism import (
    fingerprint,
    run_determinism_check,
    state_hash,
    tiebreak_diff,
)
from repro.errors import SimulationError
from repro.sim.core import Simulator


# -- the perturbation itself ----------------------------------------------


def test_tiebreak_policies_order_simultaneous_events_differently():
    order = {}
    for policy in Simulator.TIEBREAKS:
        seen = []
        sim = Simulator(tiebreak=policy)
        for label in ("a", "b", "c"):
            sim.call_at(1.0, seen.append, label)
        sim.run()
        order[policy] = seen
    assert order["fifo"] == ["a", "b", "c"]
    assert order["lifo"] == ["c", "b", "a"]


def test_distinct_times_unaffected_by_tiebreak():
    for policy in Simulator.TIEBREAKS:
        seen = []
        sim = Simulator(tiebreak=policy)
        sim.call_at(2.0, seen.append, "late")
        sim.call_at(1.0, seen.append, "early")
        sim.run()
        assert seen == ["early", "late"]


def test_unknown_tiebreak_rejected():
    with pytest.raises(SimulationError):
        Simulator(tiebreak="random")


# -- diffing and fingerprints ---------------------------------------------


def test_diff_reports_path_of_divergence():
    calls = []

    def run(tiebreak):
        calls.append(tiebreak)
        return {"tiebreak": tiebreak,
                "a": [1, {"b": 2 if tiebreak == "fifo" else 3}]}

    fifo, lifo, out = tiebreak_diff(run, "rounds")
    assert calls == ["fifo", "lifo"]
    assert (fifo["tiebreak"], lifo["tiebreak"]) == ("fifo", "lifo")
    # One differing nested field -> one path-named divergence; the
    # tiebreak field itself is never compared.
    assert out == ["rounds.a[1].b: fifo=2 lifo=3"]
    # Identical runs -> no divergences, also through a projection.
    assert tiebreak_diff(lambda tiebreak: {"same": 1}, "rounds")[2] == []
    assert tiebreak_diff(run, "rounds",
                         project=lambda result: result["a"][0])[2] == []


def test_fingerprint_is_reproducible():
    first = fingerprint("fifo", nodes=2, rounds=1)
    second = fingerprint("fifo", nodes=2, rounds=1)
    assert first["state_hash"] == second["state_hash"]
    assert first["rounds"] == second["rounds"]


def test_state_hash_covers_store_and_clock():
    from repro.cruz.cluster import CruzCluster

    cluster = CruzCluster(2)
    before = state_hash(cluster)
    cluster.run_for(0.1)
    assert state_hash(cluster) != before  # sim_time moved


# -- the full check (the fig5-small acceptance gate) ----------------------


def test_fig5_small_is_schedule_deterministic():
    report = run_determinism_check(nodes=2, rounds=1)
    assert report.deterministic, "\n".join(report.divergences)
    assert "PASS" in report.render()
    fifo = report.fingerprints["fifo"]
    lifo = report.fingerprints["lifo"]
    assert fifo["state_hash"] == lifo["state_hash"]
    assert fifo["rounds"][0]["committed"] is True

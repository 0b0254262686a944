"""``repro bench slo``: serving-under-SLO floors for the proxy fleet.

The serving gauntlet (:func:`repro.serve.harness.run_serve`) drives
sessionful clients through the kv proxy while the fleet absorbs every
disruption Cruz offers — coordinated checkpoint rounds, a backend node
crash with supervised failover, a live migration, a silent pod kill,
and a canary rolling restore. This suite runs the whole gauntlet twice
(fifo and lifo event tie-break) at reduced scale and checks the SLO
claims:

* **zero client-visible errors** — sheds and retries are allowed (and
  counted separately), but every session request must eventually get an
  ``ok`` answer and every client must exit 0;
* **bounded p99** — overall and inside each disruption window, request
  latency stays under :data:`P99_LIMIT_S` (simulated seconds);
* **replica consistency** — all backends end bit-identical;
* **determinism** — the fifo and lifo reports match field for field.

All quantities are simulated seconds, so ``--compare`` holds every field
of the run equal to ``benchmarks/BENCH_slo.json``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.harness import ShapeReport, Suite

#: The gauntlet the baseline records. Client think time is stretched so
#: traffic spans every disruption window (~6 simulated seconds).
WORKLOAD = {"backends": 3, "clients": 4, "sessions": 8,
            "requests_per_session": 5, "rounds": 2, "seed": 7,
            "think_time_s": 0.14}
#: Hard ceiling on client-observed p99 latency, simulated seconds.
P99_LIMIT_S = 1.0


def run_suite() -> Dict[str, object]:
    """The full gauntlet, fifo + lifo, with every disruption enabled."""
    from repro.serve.harness import serve_determinism

    print("slo: serving gauntlet ({backends} backends, {clients} clients, "
          "{sessions}x{requests_per_session} requests, {rounds} round(s), "
          "failover+migrate+kill+canary, fifo vs lifo)...".format(
              **WORKLOAD), flush=True)
    result = serve_determinism(failover=True, migrate=True, canary=True,
                               kill_backend=True, **WORKLOAD)
    fifo = result["fifo"]
    return {
        "suite": "slo",
        "workload": dict(WORKLOAD),
        "ok": fifo["ok"],
        "client_exits": fifo["client_exits"],
        "client_errors": fifo["client_errors"],
        "replicas_consistent": fifo["replicas_consistent"],
        "store_digest": fifo["store_digest"],
        "slo": fifo["slo"],
        "proxy": fifo["proxy"],
        "canary": fifo["canary"],
        "deterministic": result["deterministic"],
        "divergences": result["diffs"],
        "sim_time_s": fifo["sim_time_s"],
    }


def render(report: Dict[str, object]) -> List[str]:
    from repro.serve.harness import render_report

    return render_report(report, report["divergences"])


def shape(report: Dict[str, object]) -> ShapeReport:
    """The SLO as named checks."""
    checks = ShapeReport("bench slo: serving SLO through the gauntlet")
    checks.check("zero_client_errors", report["client_errors"] == 0,
                 report["client_errors"], "0 (sheds and retries allowed)")
    checks.check("every_client_exits_0",
                 all(code == 0 for code in report["client_exits"]),
                 report["client_exits"], "all 0")
    checks.check("replicas_consistent", report["replicas_consistent"],
                 report["replicas_consistent"],
                 "backends bit-identical after the gauntlet")
    p99 = report["slo"]["overall"]["p99_s"]
    checks.check("overall_p99_under_ceiling",
                 p99 is not None and p99 <= P99_LIMIT_S, p99,
                 f"<= {P99_LIMIT_S} s")
    window_p99s = [window["p99_s"] for window in report["slo"]["windows"]
                   if window["p99_s"] is not None]
    checks.check("every_window_p99_under_ceiling",
                 all(wp99 <= P99_LIMIT_S for wp99 in window_p99s),
                 max(window_p99s, default=None), f"<= {P99_LIMIT_S} s")
    canary = report["canary"] or {}
    checks.check("canary_promoted", bool(canary.get("promoted")),
                 canary.get("steps"), "promoted, not rolled back")
    checks.check("fifo_equals_lifo", report["deterministic"],
                 report["divergences"][:3], "no divergence")
    return checks


SUITE = Suite(
    name="slo",
    help="serving-fleet p99/error floors through the full disruption "
         "gauntlet",
    run=run_suite, shape=shape, render=render,
    baseline="benchmarks/BENCH_slo.json")

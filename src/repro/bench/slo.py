"""``repro bench slo``: serving-under-SLO floors for the proxy fleet.

The serving gauntlet (:func:`repro.serve.harness.run_serve`) drives
sessionful clients through the kv proxy while the fleet absorbs every
disruption Cruz offers — coordinated checkpoint rounds, a backend node
crash with supervised failover, a live migration, a silent pod kill,
and a canary rolling restore. This suite runs the whole gauntlet twice
(fifo and lifo event tie-break) at reduced scale and enforces the SLO
claims ISSUE 10 makes:

* **zero client-visible errors** — sheds and retries are allowed (and
  counted separately), but every session request must eventually get an
  ``ok`` answer and every client must exit 0;
* **bounded p99** — overall and inside each disruption window, request
  latency stays under ``--p99-limit`` (simulated seconds);
* **replica consistency** — all backends end bit-identical;
* **determinism** — the fifo and lifo reports match field for field.

All quantities are simulated seconds, so they travel across machines.
``--save`` records the run to ``benchmarks/BENCH_slo.json``;
``--compare`` re-runs and fails on the explicit floors or — when the
workload matches the committed baseline — on p99 drift beyond the
tolerance.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench.harness import Suite, workload_matches

DEFAULT_BACKENDS = 3
DEFAULT_CLIENTS = 4
DEFAULT_SESSIONS = 8
DEFAULT_REQUESTS = 5
DEFAULT_ROUNDS = 2
DEFAULT_SEED = 7
#: Client think time, stretched so traffic spans every disruption
#: window (the gauntlet runs ~6 simulated seconds end to end).
DEFAULT_THINK_S = 0.14
#: Hard ceiling on client-observed p99 latency, simulated seconds.
DEFAULT_P99_LIMIT_S = 1.0
#: Allowed relative p99 growth over the committed baseline.
DEFAULT_TOLERANCE = 0.25


def run_suite(backends: int = DEFAULT_BACKENDS,
              clients: int = DEFAULT_CLIENTS,
              sessions: int = DEFAULT_SESSIONS,
              requests_per_session: int = DEFAULT_REQUESTS,
              rounds: int = DEFAULT_ROUNDS,
              seed: int = DEFAULT_SEED,
              think_time_s: float = DEFAULT_THINK_S) -> Dict[str, object]:
    """The full gauntlet, fifo + lifo, with every disruption enabled."""
    from repro.serve.harness import serve_determinism

    print(f"slo: serving gauntlet ({backends} backends, {clients} "
          f"clients, {sessions}x{requests_per_session} requests, "
          f"{rounds} round(s), failover+migrate+kill+canary, "
          f"fifo vs lifo)...", flush=True)
    result = serve_determinism(
        backends=backends, clients=clients, sessions=sessions,
        requests_per_session=requests_per_session, rounds=rounds,
        failover=True, migrate=True, canary=True, kill_backend=True,
        seed=seed, think_time_s=think_time_s)
    fifo = result["fifo"]
    return {
        "suite": "slo",
        "workload": {
            "backends": backends, "clients": clients,
            "sessions": sessions,
            "requests_per_session": requests_per_session,
            "rounds": rounds, "seed": seed,
            "think_time_s": think_time_s,
        },
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


def evaluate(report: Dict[str, object],
             baseline: Optional[Dict[str, object]],
             p99_limit_s: float = DEFAULT_P99_LIMIT_S,
             tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """Pure comparison: list of failure messages (empty = pass)."""
    failures = []
    if report["client_errors"]:
        failures.append(f"{report['client_errors']} client-visible "
                        f"error(s); the SLO allows zero")
    bad_exits = [code for code in report["client_exits"] if code != 0]
    if bad_exits:
        failures.append(f"{len(bad_exits)} client(s) exited non-zero: "
                        f"{bad_exits}")
    if not report["replicas_consistent"]:
        failures.append("backend replicas diverged after the gauntlet")
    overall = report["slo"]["overall"]
    p99 = overall["p99_s"]
    if p99 is None or p99 > p99_limit_s:
        failures.append(f"overall p99 {p99}s breaches the "
                        f"{p99_limit_s}s ceiling")
    for window in report["slo"]["windows"]:
        wp99 = window["p99_s"]
        if wp99 is not None and wp99 > p99_limit_s:
            failures.append(
                f"window {window['window']!r} p99 {wp99:.3f}s breaches "
                f"the {p99_limit_s}s ceiling")
    canary = report["canary"] or {}
    if not canary.get("promoted"):
        failures.append(f"canary restore was not promoted: {canary}")
    if not report["deterministic"]:
        failures.append(
            f"fifo/lifo divergence: {report['divergences'][:3]}")
    if workload_matches(report, baseline, "slo"):
        recorded = (baseline.get("slo", {}).get("overall", {})
                    .get("p99_s"))
        if recorded and p99 is not None:
            ceiling = float(recorded) * (1.0 + tolerance)
            if p99 > ceiling:
                failures.append(
                    f"p99 {p99:.3f}s grew more than {tolerance:.0%} "
                    f"over the committed baseline's {recorded:.3f}s")
    return failures


def _add_arguments(parser) -> None:
    parser.add_argument("--p99-limit", dest="p99_limit_s", type=float,
                        default=DEFAULT_P99_LIMIT_S,
                        help="max client-observed p99 latency in "
                             "simulated seconds (default 1.0)")


SUITE = Suite(
    name="slo",
    help="serving-fleet p99/error floors through the full disruption "
         "gauntlet",
    baseline="benchmarks/BENCH_slo.json",
    run=run_suite, evaluate=evaluate, render=render,
    add_arguments=_add_arguments,
    floors=("p99_limit_s",))

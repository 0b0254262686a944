#!/usr/bin/env python3
"""One perf ledger: five wall-clock workloads, two clocks, a per-layer budget.

    python3 benchmarks/perf/run.py [--workload W] [--seed N] [--traced]
                                   [--layers] [--smoke] [--json OUT]
    python3 benchmarks/perf/run.py compare A.json B.json
    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

The first form runs each workload in a fresh subprocess and prints every
metric by name with its unit; the third is that subprocess (and the form
the benchmark driver calls): one workload in this process, one JSON
object on the last line. See README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")

import metrics  # noqa: E402  (sibling module; run.py is a script)

RUN_SECONDS = 20
#: Repetitions an untraced run makes at least; medians are over these.
MIN_REPS = 3
SMOKE_SCALE = 0.125
#: (max - min) / min of the wall samples above which a run says "noisy".
NOISY_SPREAD = 0.15
#: A repetition is 2-3 s (6 s profiled); this is a hang, not noise.
REP_TIMEOUT_S = 60


# -- the worker: one workload in this process --------------------------------

def pin_to_one_cpu() -> None:
    """Stay on the core this process started on: no migrations, and two
    runs started side by side do not pile onto one core."""
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            # Field 39 (processor), counted after the "(comm)" field.
            cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return
    if cpu in os.sched_getaffinity(0):
        os.sched_setaffinity(0, {cpu})


class RepetitionTimeout(Exception):
    """A repetition ran REP_TIMEOUT_S: a livelock, not a slow machine."""


def _on_alarm(_signum, _frame):
    raise RepetitionTimeout(f"repetition exceeded {REP_TIMEOUT_S} s")


def run_rep(workload, seed: int, scale: float, profiler=None):
    import workloads
    gc.collect()
    rep = workloads.Rep(profiler)
    # The product can livelock in wall time while simulated time stands
    # still (README, "Findings"); die with a traceback instead of hanging.
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(REP_TIMEOUT_S)
    try:
        outcome = workload(rep, seed, scale)
    finally:
        signal.alarm(0)
    rep.sim = None      # the spans are kept; the cluster must not be
    return rep, outcome


def sim_digest(outcome) -> str:
    """sha256 of every simulated result and exact count: a host-only
    change shows "unchanged" by printing the same digest."""
    blob = json.dumps({"sim": outcome.sim, "counts": outcome.counts},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def base_record(args, scale: float, outcomes: List) -> Dict:
    """Op tally and simulated results of a run's repetitions; the
    simulated side must be identical across them."""
    first = outcomes[0]
    failures = [f for outcome in outcomes for f in outcome.failures]
    for index, outcome in enumerate(outcomes[1:], start=1):
        if (outcome.sim, outcome.counts) != (first.sim, first.counts):
            failures.append(f"{args.workload}: repetition {index} differs "
                            f"from repetition 0 on the simulated clock")
    values: Dict[str, Optional[float]] = {
        name: first.sim.get(name)
        for name, _unit, _workloads in metrics.SIM_END_TO_END}
    return {
        "workload": args.workload, "seed": args.seed, "scale": scale,
        "trace": args.trace, "reps": len(outcomes),
        "ops": sum(o.ops for o in outcomes) + len(outcomes) - 1,
        "failed_ops": len(failures), "failures": failures[:20],
        "sim_digest": sim_digest(first), "metrics": values,
    }


def measure(args, workload, scale: float) -> Dict:
    """The untraced run: repeat for ``--seconds``, report medians."""
    reps, outcomes = [], []
    started = time.perf_counter()
    while (len(reps) < MIN_REPS
           or time.perf_counter() - started < args.seconds):
        rep, outcome = run_rep(workload, args.seed, scale)
        reps.append(rep)
        outcomes.append(outcome)
    walls = [rep.total("timed") for rep in reps]
    setups = [rep.total("setup") for rep in reps]
    record = base_record(args, scale, outcomes)
    record["metrics"].update({
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    record["samples"] = {"wall_s": walls, "setup_s": setups}
    record["wall_spread"] = (max(walls) - min(walls)) / min(walls)
    record["noisy"] = record["wall_spread"] > NOISY_SPREAD
    return record


def trace(args, workload, scale: float, import_s: float) -> Dict:
    """The traced run: a warm-up, a plain repetition for counts, phases
    and the overhead base, a profiled one for attribution, the probes."""
    import layers
    import probes
    _rep, warm = run_rep(workload, args.seed, scale)
    plain_rep, plain = run_rep(workload, args.seed, scale)
    profiler = cProfile.Profile()
    traced_rep, traced = run_rep(workload, args.seed, scale, profiler)
    record = base_record(args, scale, [warm, plain, traced])
    values = record["metrics"]

    wall = plain_rep.total("timed")
    traced_wall = traced_rep.total("timed")
    self_s, calls, unattributed = layers.attribute(
        profiler, os.path.join(SRC, "repro"), traced_wall)
    for layer in metrics.LAYERS:
        values[f"{layer}.self_s"] = self_s[layer]
        values[f"{layer}.calls"] = calls[layer]
    values["trace.overhead_ratio"] = traced_wall / wall
    values["host.import_s"] = import_s
    for phase in metrics.PHASES:
        values[f"phase.{phase}.wall_s"] = plain_rep.total(f"phase.{phase}")

    counts = plain.counts
    for name, _unit, _better in metrics.COUNTS:
        values[name] = counts.get(name)
    # Cluster-lifetime numerators run over set-up plus timed region;
    # the rest are produced by the timed region alone.
    lifetime = plain_rep.total("setup") + wall

    def per(numerator, seconds, factor=1.0):
        return None if numerator is None else numerator * factor / seconds

    values.update({
        "sim.events_per_wall_s": per(counts.get("sim.events_popped"),
                                     lifetime),
        "sim.sim_s_per_wall_s": per(plain.sim_s, lifetime),
        "cruz.store.image_mb_per_wall_s": per(plain.image_bytes, lifetime,
                                              1e-6),
        "tcp.payload_mb_per_wall_s": per(plain.payload_bytes, wall, 1e-6),
        "serve.requests_per_wall_s": per(counts.get("serve.requests_ok"),
                                         wall),
        "analysis.mc.runs_per_wall_s": per(counts.get("analysis.mc.runs"),
                                           wall),
    })
    values.update(probes.run_all(smoke=args.smoke))

    origin = plain_rep.spans[0]["wall_start"]
    record["spans"] = [
        dict(span, wall_start=span["wall_start"] - origin,
             wall_end=span["wall_end"] - origin)
        for span in plain_rep.spans]
    record["traced_wall_s"] = traced_wall
    record["untraced_wall_s"] = wall
    record["unattributed_s"] = unattributed
    return record


def worker(args) -> int:
    pin_to_one_cpu()
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads
    import_s = time.perf_counter() - started
    workload = workloads.WORKLOADS[args.workload]
    scale = SMOKE_SCALE if args.smoke else 1.0
    if args.trace:
        record = trace(args, workload, scale, import_s)
        names = [m["name"] for m in metrics.per_layer()]
    else:
        record = measure(args, workload, scale)
        names = [m["name"] for m in metrics.end_to_end()]
    for failure in record["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("RECORD " + json.dumps(record))
    units = metrics.units()
    # The driver wants a number for every name: a metric this workload
    # does not produce (null in the record) reads 0 here.
    print(json.dumps({
        "correct": record["failed_ops"] == 0,
        "attempted": record["ops"],
        "failed": record["failed_ops"],
        "metrics": {name: {"value": record["metrics"].get(name) or 0,
                           "unit": units[name]} for name in names},
    }))
    return 0


# -- the orchestrator: every workload, each in a fresh subprocess ------------

def fingerprint() -> Dict[str, object]:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"cpu": cpu or platform.processor(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "git_sha": sha}


def spawn_worker(name: str, args, trace_flag: int) -> Optional[Dict]:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace_flag)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        print(f"{name}: worker exited with {done.returncode}",
              file=sys.stderr)
        return None
    for line in done.stdout.splitlines():
        if line.startswith("RECORD "):
            return json.loads(line[len("RECORD "):])
    print(f"{name}: worker printed no record", file=sys.stderr)
    return None


def print_metrics(title: str, names: List[str],
                  values: Dict[str, Optional[float]]) -> None:
    units = metrics.units()
    print(f"  {title}")
    for name in names:
        value = values.get(name)
        shown = "null" if value is None else f"{value:.6g}"
        print(f"    {name:<36} {shown:>14} {units[name]}")


def print_workload(record: Dict, traced: Optional[Dict], args) -> None:
    values = dict(record["metrics"])
    print(f"== {record['workload']}: seed {record['seed']}, "
          f"{record['reps']} repetitions, ops={record['ops']} "
          f"failed_ops={record['failed_ops']}, "
          f"wall_spread={record['wall_spread']:.3f}"
          f"{' NOISY' if record['noisy'] else ''}, "
          f"sim_digest={record['sim_digest'][:16]}")
    end_to_end = [m["name"] for m in metrics.end_to_end()] + [
        name for name, _unit, producers in metrics.SIM_END_TO_END
        if record["workload"] in producers]
    print_metrics("end to end (host clock, then sim clock)", end_to_end,
                  values)
    if traced is None:
        return
    layer_values = traced["metrics"]
    if args.traced:
        wall = traced["traced_wall_s"]
        print(f"  attribution of the traced wall ({wall:.3f} s, "
              f"{traced['unattributed_s']:.3f} s of it unattributed), "
              f"largest first")
        for layer in sorted(metrics.LAYERS, key=lambda name:
                            -layer_values[f"{name}.self_s"]):
            self_s = layer_values[f"{layer}.self_s"]
            print(f"    {layer + '.self_s':<36} {self_s:>14.6g} s  "
                  f"{100.0 * self_s / wall:5.1f} %")
        print_metrics("calls into each layer",
                      [f"{layer}.calls" for layer in metrics.LAYERS],
                      layer_values)
        print_metrics("tracing", ["trace.overhead_ratio", "host.import_s"],
                      layer_values)
        print_metrics("phases (untraced repetition)",
                      [f"phase.{p}.wall_s" for p in metrics.PHASES],
                      layer_values)
        print_metrics("exact counts and rates",
                      [n for n, _u, _b in metrics.COUNTS]
                      + [n for n, _u in metrics.RATES], layer_values)
    if args.layers:
        print_metrics("isolated layer rates",
                      [n for n, _u, _b in metrics.PROBES], layer_values)


def orchestrate(args) -> int:
    names = [args.workload] if args.workload else list(metrics.WORKLOADS)
    document = {
        "schema": "perf-ledger/1", "claim": None,
        "fingerprint": fingerprint(), "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke, "workloads": {},
    }
    failed = False
    for name in names:
        record = spawn_worker(name, args, 0)
        traced = (spawn_worker(name, args, 1)
                  if record and (args.traced or args.layers) else None)
        if record is None or ((args.traced or args.layers)
                              and traced is None):
            failed = True
            continue
        print_workload(record, traced, args)
        if traced is not None:
            record["metrics"].update(
                {k: v for k, v in traced["metrics"].items()
                 if k not in record["metrics"]})
            record["failed_ops"] += traced["failed_ops"]
            record["failures"] += traced["failures"]
            for key in ("spans", "traced_wall_s", "untraced_wall_s",
                        "unattributed_s"):
                record[key] = traced[key]
        failed = failed or record["failed_ops"] > 0
        document["workloads"][name] = record
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if failed else 0


def main(argv: List[str]) -> int:
    if argv and argv[0] == "compare":
        import compare
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long an untraced run repeats for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one workload in this process: 0 prints "
                             "the end-to-end metrics, 1 the per-layer ones")
    parser.add_argument("--traced", action="store_true",
                        help="also run each workload traced and print "
                             "attribution, phases, counts and rates")
    parser.add_argument("--layers", action="store_true",
                        help="also print the isolated layer rates")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/8 scale")
    parser.add_argument("--json", metavar="OUT",
                        help="write every record to OUT")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0 if args.smoke else RUN_SECONDS
    if args.trace is None:
        return orchestrate(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return worker(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

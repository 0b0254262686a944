"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's experiments or run narrated demos without
touching pytest — the quickest way to kick the tyres. Every subcommand
takes ``--json`` to emit its result as machine-readable JSON instead of
tables; ``trace`` exports a checkpoint round's span timeline as Chrome
``trace_event`` JSON or a flat summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Any, List, Optional

#: One exit-code convention for the analysis commands (``lint``,
#: ``sanitize``, ``analyze``, ``trace``): 0 = clean, 1 = violations or
#: failed checks, 2 = usage error (argparse's own convention).
EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


def to_jsonable(obj: Any) -> Any:
    """Recursively convert harness results to JSON-serialisable data.

    Understands anything with a ``to_jsonable`` method (ShapeReport),
    dataclasses (Stat, Fig5Point, RoundStats...), mappings and sequences.
    Non-finite floats become ``None`` so the output stays strict JSON.
    """
    if hasattr(obj, "to_jsonable"):
        return to_jsonable(obj.to_jsonable())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(key): to_jsonable(value)
                for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def _emit_json(payload: Any) -> None:
    print(json.dumps(to_jsonable(payload), indent=2, allow_nan=False))


def _cmd_fig5(args) -> int:
    from repro.bench.fig5 import fig5_shape_report, run_fig5
    from repro.bench.harness import render_table
    points = run_fig5(node_counts=tuple(args.nodes), rounds=args.rounds)
    report = fig5_shape_report(points)
    if args.json:
        _emit_json({"command": "fig5", "points": points,
                    "shape": report})
        return 0 if report.passed else 1
    rows = [[p.n_nodes, f"{p.latency.mean:.3f} s",
             f"{p.overhead.mean*1e6:.0f} us",
             f"{p.restart_latency.mean:.3f} s",
             int(p.messages_per_round)] for p in points]
    print(render_table(
        "Fig 5 — checkpoint latency / coordination overhead / restart",
        ["nodes", "latency", "overhead", "restart", "msgs"], rows))
    print(report.render())
    return 0 if report.passed else 1


def _cmd_fig6(args) -> int:
    from repro.bench.fig6 import fig6_shape_report, run_fig6
    result = run_fig6()
    report = fig6_shape_report(result)
    if args.json:
        _emit_json({"command": "fig6", "result": result,
                    "shape": report})
        return 0 if report.passed else 1
    print(f"steady rate        : "
          f"{result.pre_checkpoint_rate_bps/1e6:.1f} Mb/s")
    print(f"checkpoint duration: "
          f"{result.checkpoint_duration_s*1000:.1f} ms")
    print(f"drain pulse at     : {result.pulse_time_s*1000:.1f} ms")
    print(f"recovery at        : {result.recovery_time_s*1000:.1f} ms")
    print(f"retransmissions    : {len(result.retransmit_times_s)}")
    print(report.render())
    return 0 if report.passed else 1


def _cmd_messages(args) -> int:
    from repro.bench.harness import render_table
    from repro.bench.messages import messages_shape_report, run_messages
    points = run_messages(node_counts=tuple(args.nodes))
    report = messages_shape_report(points)
    if args.json:
        _emit_json({"command": "messages", "points": points,
                    "shape": report})
        return 0 if report.passed else 1
    rows = [[p.n_nodes, p.cruz_messages, p.flush_messages,
             f"{p.cruz_latency_s*1000:.2f} ms",
             f"{p.flush_latency_s*1000:.2f} ms"] for p in points]
    print(render_table("Message complexity — Cruz O(N) vs flush O(N^2)",
                       ["nodes", "cruz", "flush", "cruz lat",
                        "flush lat"], rows))
    print(report.render())
    return 0 if report.passed else 1


def _cmd_overhead(args) -> int:
    from repro.bench.overhead import overhead_shape_report, run_overhead
    result = run_overhead()
    report = overhead_shape_report(result)
    if args.json:
        _emit_json({"command": "overhead", "result": result,
                    "overhead_fraction": result.overhead_fraction,
                    "shape": report})
        return 0 if report.passed else 1
    print(f"bare runtime : {result.bare_runtime_s:.4f} s")
    print(f"pod runtime  : {result.pod_runtime_s:.4f} s")
    print(f"overhead     : {result.overhead_fraction*100:.4f} % "
          f"(paper: < 0.5 %)")
    print(report.render())
    return 0 if report.passed else 1


def _cmd_fig4(args) -> int:
    from repro.bench.harness import render_table
    from repro.bench.optimization import (
        optimization_shape_report,
        run_optimization,
    )
    result = run_optimization()
    report = optimization_shape_report(result)
    if args.json:
        _emit_json({"command": "fig4", "result": result,
                    "shape": report})
        return 0 if report.passed else 1
    pods = sorted(result.blocking_pause_s)
    rows = [[pod, f"{result.blocking_pause_s[pod]*1000:.0f} ms",
             f"{result.optimized_pause_s[pod]*1000:.0f} ms"]
            for pod in pods]
    print(render_table("Fig 4 — per-pod pause, blocking vs optimised",
                       ["pod", "blocking", "optimised"], rows))
    print(report.render())
    return 0 if report.passed else 1


def _cmd_demo(args) -> int:
    from repro.apps.kvserver import KvClient, KvServer
    from repro.cruz.cluster import CruzCluster
    from repro.tools import format_table, netstat, pod_report, ps

    cluster = CruzCluster(2)
    pod = cluster.create_pod(0, "kv")
    pod.spawn(KvServer())
    requests = [{"op": "put", "key": f"k{i}", "value": i}
                for i in range(100)]
    client = cluster.coordinator_node.spawn(
        KvClient(str(pod.ip), requests, think_time_s=0.005))
    cluster.run_for(0.2)
    if not args.json:
        print("## processes on node0")
        print(format_table(ps(cluster.nodes[0])))
        print("\n## connections on node0")
        print(format_table(netstat(cluster.nodes[0])))
        print(f"\nmigrating pod {pod.name!r} to node1 mid-conversation...")
    cluster.migrate_pod(pod, target_node_index=1)
    cluster.run_until(lambda: not client.is_alive, limit=60, step=0.1)
    ok = client.exit_code == 0 and \
        all(r["ok"] for r in client.program.responses)
    if args.json:
        _emit_json({"command": "demo", "ok": ok,
                    "responses": len(client.program.responses),
                    "pods": pod_report(cluster)})
        return 0 if ok else 1
    print("\n## pods after migration")
    print(format_table(pod_report(cluster)))
    print(f"\nclient finished {len(client.program.responses)} requests: "
          f"{'all OK — migration was transparent' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    if args.suite == "migration":
        from repro.bench import migration
        baseline = args.baseline or migration.DEFAULT_BASELINE
        workload = {"ranks": args.ranks,
                    "memory_mb_per_rank": args.memory_mb
                    if args.memory_mb is not None else 100.0}
        if args.save:
            status = migration.save_baseline(baseline, **workload)
        else:
            status = migration.check(
                baseline, max_pause_ratio=args.max_pause_ratio,
                tolerance=args.tolerance, **workload)
    elif args.suite == "mc":
        from repro.bench import mc as bench_mc
        baseline = args.baseline or bench_mc.DEFAULT_BASELINE
        if args.save:
            status = bench_mc.save_baseline(baseline)
        else:
            status = bench_mc.check(baseline, tolerance=args.tolerance,
                                    overhead_limit=args.overhead_limit)
    elif args.suite == "slo":
        from repro.bench import slo
        baseline = args.baseline or slo.DEFAULT_BASELINE
        if args.save:
            status = slo.save_baseline(baseline)
        else:
            status = slo.check(baseline, p99_limit_s=args.p99_limit,
                               tolerance=args.tolerance)
    elif args.suite == "store":
        from repro.bench import store
        baseline = args.baseline or store.DEFAULT_BASELINE
        workload = {"app_nodes": args.app_nodes,
                    "memory_mb": args.memory_mb
                    if args.memory_mb is not None
                    else store.DEFAULT_MEMORY_MB}
        if args.save:
            status = store.save_baseline(baseline, **workload)
        else:
            status = store.check(baseline,
                                 min_scaling=args.min_scaling,
                                 tolerance=args.tolerance, **workload)
    else:
        from repro.bench import regression
        baseline = args.baseline or "benchmarks/BENCH_fig5.json"
        if args.save:
            status = regression.save_baseline(baseline)
        else:
            status = regression.check_regression(baseline,
                                                 tolerance=args.tolerance)
    if args.json:
        _emit_json({"command": "bench", "suite": args.suite,
                    "baseline": baseline,
                    "ok": status == 0, "exit_status": status})
    return status


def _cmd_trace(args) -> int:
    """Run a checkpoint workload and export its span timeline."""
    from repro.apps.slm import slm_factory
    from repro.bench.harness import render_table
    from repro.cruz.cluster import CruzCluster
    from repro.sim.spans import round_coverage
    from repro.tools import format_table, round_report

    n_nodes = args.nodes
    cluster = CruzCluster(n_nodes, trace_enabled=True)
    app = cluster.launch_app_factory(
        "slm", n_nodes,
        slm_factory(n_nodes, global_rows=8 * n_nodes, cols=32,
                    steps=100000, total_work_s=1e6,
                    memory_mb_per_rank=args.memory_mb))
    cluster.run_for(0.5)
    rounds = []
    for _ in range(args.rounds):
        cluster.run_for(args.interval)
        rounds.append(cluster.checkpoint_app(app))
    spans = cluster.spans
    coverages = [round_coverage(spans, stats.epoch) for stats in rounds]

    if args.format == "chrome":
        text = json.dumps(spans.to_chrome())
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {len(spans.spans)} spans to {args.out}",
                  file=sys.stderr)
        else:
            # Pure JSON on stdout so it can be piped straight into a
            # parser (the CI smoke job does exactly that).
            print(text)
        return 0 if min(coverages) >= 0.95 else 1

    if args.json:
        _emit_json({
            "command": "trace",
            "rounds": rounds,
            "coverage": coverages,
            "summary": spans.summary_rows(),
            "metrics": cluster.metrics.snapshot(),
        })
        return 0 if min(coverages) >= 0.95 else 1

    rows = [[r["span"], r["count"], f"{r['total_s']*1000:.2f} ms",
             f"{r['mean_s']*1000:.2f} ms", f"{r['max_s']*1000:.2f} ms"]
            for r in spans.summary_rows()]
    print(render_table(f"Span summary — {args.rounds} round(s) on "
                       f"{n_nodes} nodes",
                       ["span", "count", "total", "mean", "max"], rows))
    print()
    print(format_table(round_report(rounds)))
    for stats, coverage in zip(rounds, coverages):
        print(f"epoch {stats.epoch}: spans cover {coverage*100:.1f}% "
              f"of the round's latency window")
    return 0 if min(coverages) >= 0.95 else 1


def _cmd_lint(args) -> int:
    """Run the CruzSan determinism lint over the source tree."""
    from repro.analysis.lint import RULES, lint_paths

    violations = lint_paths(args.paths or None)
    if args.json:
        _emit_json({
            "command": "lint",
            "violations": [{
                "path": v.path, "line": v.line, "col": v.col,
                "code": v.code, "title": v.title, "hint": v.hint,
            } for v in violations],
            "rules": {code: {"title": title, "hint": hint}
                      for code, (title, hint) in RULES.items()},
        })
        return EXIT_VIOLATIONS if violations else EXIT_OK
    for violation in violations:
        print(violation.render())
    print(f"repro lint: {len(violations)} violation(s)")
    return EXIT_VIOLATIONS if violations else EXIT_OK


def _cmd_sanitize(args) -> int:
    """Drive a named workload with the runtime sanitizer installed."""
    from repro.analysis.sanitize import run_workload

    cluster = run_workload(args.workload)
    sanitizer = cluster.trace.sanitizer
    if args.json:
        _emit_json({
            "command": "sanitize",
            "workload": args.workload,
            "violations": [dataclasses.asdict(v)
                           for v in sanitizer.violations],
        })
        return EXIT_VIOLATIONS if sanitizer.violations else EXIT_OK
    print(sanitizer.report())
    return EXIT_VIOLATIONS if sanitizer.violations else EXIT_OK


def _cmd_analyze(args) -> int:
    """Schedule-race detection: run twice with perturbed tie-breaking."""
    from repro.analysis.determinism import run_determinism_check

    # Exit 1 means "nondeterminism found"; anything that stops the
    # harness itself from producing a verdict is exit 2.
    try:
        report = run_determinism_check(nodes=args.nodes,
                                       rounds=args.rounds,
                                       seeds=args.seeds)
    except Exception as exc:
        print(f"analyze determinism: harness error — "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        _emit_json({
            "command": "analyze",
            "check": "determinism",
            "deterministic": report.deterministic,
            "divergences": report.divergences,
            "state_hashes": {
                policy: fp["state_hash"]
                for policy, fp in report.fingerprints.items()},
        })
        return EXIT_OK if report.deterministic else EXIT_VIOLATIONS
    print(report.render())
    return EXIT_OK if report.deterministic else EXIT_VIOLATIONS


def _cmd_mc(args) -> int:
    """CruzMC: bounded model checking of the coordination protocol."""
    from repro.analysis import mc

    if args.replay:
        try:
            trace = mc.load_trace(args.replay)
            outcome = mc.replay(trace)
        except Exception as exc:
            print(f"mc replay: harness error — "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if args.json:
            _emit_json({"command": "mc", "mode": "replay",
                        "trace": args.replay, **outcome})
        else:
            status = ("bit-identical"
                      if outcome["identical"] else "DIVERGED")
            print(f"mc replay[{args.replay}]: {status} — reproduced "
                  f"violations {outcome['violation_codes']} "
                  f"(recorded {outcome['recorded_codes']})")
        if not outcome["identical"]:
            return EXIT_USAGE
        return (EXIT_VIOLATIONS if outcome["violation_codes"]
                else EXIT_OK)

    for bug in args.inject_bug:
        if bug not in mc.KNOWN_BUGS:
            print(f"mc: unknown bug {bug!r} "
                  f"(known: {sorted(mc.KNOWN_BUGS)})", file=sys.stderr)
            return EXIT_USAGE
    config = mc.McConfig(
        nodes=args.nodes, rounds=args.rounds,
        max_states=args.max_states, max_depth=args.max_depth,
        branch_scope=args.branch_scope, por=not args.no_por,
        fault_modes=tuple(f for f in args.faults.split(",") if f),
        fault_budget=args.fault_budget,
        fault_kinds=(tuple(k for k in args.fault_kinds.split(",") if k)
                     if args.fault_kinds else mc.DEFAULT_FAULT_KINDS),
        dup_delay_s=args.dup_delay,
        settle_s=args.settle,
        bugs=tuple(args.inject_bug))
    try:
        report = mc.explore(config,
                            stop_on_violation=not args.keep_going)
    except Exception as exc:
        print(f"mc: harness error — {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    if report.counterexample is not None and args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(report.counterexample, handle, indent=2)
            handle.write("\n")
    if args.json:
        _emit_json({"command": "mc", "mode": "explore",
                    **report.to_json()})
    else:
        print(report.render())
        if report.counterexample is not None and args.trace_out:
            print(f"  wrote counterexample trace to {args.trace_out}")
    if report.harness_errors:
        return EXIT_USAGE
    return EXIT_VIOLATIONS if report.violations else EXIT_OK


def _render_serve(report: dict, divergences: List[str]) -> List[str]:
    """Human-readable summary of one serving-gauntlet report."""
    slo = report["slo"]
    overall = slo["overall"]
    lines = [
        f"requests: {overall['requests']} from {slo['clients']} "
        f"client(s)  "
        + (f"p50 {overall['p50_s'] * 1e3:.2f}ms  "
           f"p99 {overall['p99_s'] * 1e3:.2f}ms  "
           f"max {overall['max_s'] * 1e3:.2f}ms"
           if overall["p99_s"] is not None else "(no samples)"),
        f"status: {overall['by_status']}  "
        f"extra attempts: {overall['extra_attempts']}",
    ]
    for window in slo["windows"]:
        p99 = window["p99_s"]
        p99_txt = f"p99 {p99 * 1e3:8.2f}ms" if p99 is not None \
            else "      (idle)"
        lines.append(f"  {window['window']:>14}: "
                     f"{window['requests']:3d} req  {p99_txt}  "
                     f"{window['by_status']}")
    lines.append(f"client counters: {slo['counters']}")
    proxy = report["proxy"]
    lines.append(f"proxy: writes={proxy['writes']} "
                 f"reads={proxy['reads']} sheds={proxy['sheds']} "
                 f"dups_served={proxy['dups_served']} "
                 f"sync_replays={proxy['sync_replays']} "
                 f"reconnects={proxy['backend_reconnects']}")
    if report["canary"] is not None:
        lines.append(f"canary: {report['canary']}")
    lines.append(
        f"replicas consistent: {report['replicas_consistent']}  "
        f"(store digest {report['store_digest'][:12]}..., "
        f"{report['store_size']} keys)")
    lines.append(f"client exits: {report['client_exits']}  "
                 f"client-visible errors: {report['client_errors']}")
    if divergences:
        lines.append(f"determinism: FAIL — {divergences[:3]}")
    return lines


def _cmd_serve(args) -> int:
    """Sessionful serving under SLO through every Cruz disruption."""
    from repro.serve.harness import run_serve, serve_determinism

    kwargs = dict(
        backends=args.backends, clients=args.clients,
        sessions=args.sessions,
        requests_per_session=args.requests_per_session,
        rounds=args.rounds, failover=args.failover,
        migrate=args.migrate, canary=args.canary,
        kill_backend=args.kill_backend,
        canary_divergence=args.canary_divergence, seed=args.seed)
    divergences: List[str] = []
    if args.check_determinism:
        result = serve_determinism(**kwargs)
        report = result["fifo"]
        divergences = result["diffs"]
    else:
        report = run_serve(**kwargs)
    ok = report["ok"] and not divergences
    if args.json:
        _emit_json({"command": "serve", "ok": ok,
                    "determinism_divergences": divergences,
                    "report": report})
        return EXIT_OK if ok else EXIT_VIOLATIONS
    for line in _render_serve(report, divergences):
        print(line)
    if args.check_determinism and not divergences:
        print("determinism: PASS (fifo == lifo)")
    print("serve: " + ("OK" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_VIOLATIONS


def _chaos_kill_backend(args) -> int:
    """``chaos --kill-backend``: silent backend-pod destruction.

    The proxy must detect the dead backend, shed or retry the affected
    requests within the SLO (zero client-visible errors, bounded p99),
    and log-replay the restored replica back to consistency.
    """
    from repro.serve.harness import run_serve, serve_determinism

    kwargs = dict(backends=3, clients=3, sessions=4,
                  requests_per_session=4, rounds=1, kill_backend=True,
                  seed=args.seed)
    divergences: List[str] = []
    if args.check_determinism:
        result = serve_determinism(**kwargs)
        report = result["fifo"]
        divergences = result["diffs"]
    else:
        report = run_serve(**kwargs)
    p99 = report["slo"]["overall"]["p99_s"]
    within_slo = p99 is not None and p99 <= 1.0
    ok = report["ok"] and within_slo and not divergences
    counters = report["slo"]["counters"]
    if args.json:
        _emit_json({"command": "chaos", "mode": "kill-backend",
                    "ok": ok, "p99_s": p99,
                    "client_errors": report["client_errors"],
                    "sheds": counters["sheds"],
                    "retries": counters["retries"],
                    "replicas_consistent":
                        report["replicas_consistent"],
                    "determinism_divergences": divergences,
                    "report": report})
        return EXIT_OK if ok else EXIT_VIOLATIONS
    for line in _render_serve(report, divergences):
        print(line)
    print(f"kill-backend: p99 {p99 * 1e3:.2f}ms (limit 1000ms), "
          f"{counters['sheds']} shed(s), {counters['retries']} "
          f"retrie(s) — " + ("OK" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_VIOLATIONS


def _cmd_chaos(args) -> int:
    """Seeded chaos run: crash a node mid-round, demand self-healing."""
    from repro.bench.chaos import chaos_determinism, run_chaos

    if args.kill_backend:
        return _chaos_kill_backend(args)
    result = run_chaos(seed=args.seed, crash_node_index=args.crash_node,
                       link_flap=not args.no_flap,
                       evict_on_suspect=args.evict_on_suspect,
                       kill_replica=args.kill_replica)
    divergences: List[str] = []
    if args.check_determinism:
        divergences = chaos_determinism(
            seed=args.seed, link_flap=not args.no_flap,
            evict_on_suspect=args.evict_on_suspect,
            kill_replica=args.kill_replica)
    ok = result.ok and not divergences
    if args.json:
        _emit_json({
            "command": "chaos",
            "ok": ok,
            "result": result,
            "mttr_s": result.mttr_s,
            "determinism_divergences": divergences,
        })
        return EXIT_OK if ok else EXIT_VIOLATIONS
    print(result.render())
    if args.check_determinism:
        print("determinism: " + ("PASS (fifo == lifo)" if not divergences
                                 else f"FAIL — {divergences}"))
    return EXIT_OK if ok else EXIT_VIOLATIONS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cruz (DSN 2005) reproduction — demos and "
                    "experiment harnesses")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the result as JSON on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", parents=[common],
                          help="narrated live-migration demo")
    demo.set_defaults(fn=_cmd_demo)

    fig5 = sub.add_parser("fig5", parents=[common],
                          help="checkpoint latency/overhead")
    fig5.add_argument("--nodes", type=int, nargs="+",
                      default=[2, 4, 6, 8])
    fig5.add_argument("--rounds", type=int, default=5)
    fig5.set_defaults(fn=_cmd_fig5)

    fig6 = sub.add_parser("fig6", parents=[common],
                          help="TCP stream through a checkpoint")
    fig6.set_defaults(fn=_cmd_fig6)

    messages = sub.add_parser("messages", parents=[common],
                              help="Cruz vs flush message complexity")
    messages.add_argument("--nodes", type=int, nargs="+",
                          default=[2, 4, 8, 16])
    messages.set_defaults(fn=_cmd_messages)

    overhead = sub.add_parser("overhead", parents=[common],
                              help="virtualisation runtime overhead")
    overhead.set_defaults(fn=_cmd_overhead)

    fig4 = sub.add_parser("fig4", parents=[common],
                          help="early-resume optimisation")
    fig4.set_defaults(fn=_cmd_fig4)

    trace = sub.add_parser(
        "trace", parents=[common],
        help="run a checkpoint round and export its span timeline")
    trace.add_argument("--nodes", type=int, default=4,
                       help="cluster size (default 4)")
    trace.add_argument("--rounds", type=int, default=1,
                       help="checkpoint rounds to record (default 1)")
    trace.add_argument("--interval", type=float, default=0.5,
                       help="seconds of app time between rounds")
    trace.add_argument("--memory-mb", type=float, default=20.0,
                       help="per-rank state size in MB (default 20)")
    trace.add_argument("--format", choices=["chrome", "summary"],
                       default="summary",
                       help="chrome trace_event JSON or a flat summary")
    trace.add_argument("--out", default="",
                       help="write chrome JSON to this file instead of "
                            "stdout")
    trace.set_defaults(fn=_cmd_trace)

    bench = sub.add_parser(
        "bench", parents=[common],
        help="committed-baseline regression guards, one per suite")
    bench.add_argument("suite", nargs="?", default="fig5",
                       choices=["fig5", "migration", "store", "mc", "slo"],
                       help="fig5: checkpoint-round wall clock; "
                            "migration: pre-copy vs stop-and-copy "
                            "pause windows; store: sharded-restore "
                            "bandwidth scaling and healing; mc: model-"
                            "checker states/sec, reduction ratio and "
                            "oracle-hook overhead; slo: serving-fleet "
                            "p99/error floors through the full "
                            "disruption gauntlet")
    bench.add_argument("--save", action="store_true",
                       help="record a new baseline instead of comparing")
    bench.add_argument("--compare", action="store_true",
                       help="compare against the baseline (default)")
    bench.add_argument("--baseline", default="",
                       help="baseline JSON path (default per suite)")
    bench.add_argument("--tolerance", type=float, default=0.2,
                       help="allowed fractional regression (default 0.2)")
    bench.add_argument("--ranks", type=int, default=2,
                       help="migration: slm ranks (default 2)")
    bench.add_argument("--memory-mb", type=float, default=None,
                       help="per-rank state size in MB (default 100 "
                            "for migration, 16 for store)")
    bench.add_argument("--max-pause-ratio", type=float, default=0.25,
                       help="migration: required pre-copy pause as a "
                            "fraction of stop-and-copy (default 0.25)")
    bench.add_argument("--app-nodes", type=int, default=5,
                       help="store: application node count (default 5)")
    bench.add_argument("--min-scaling", type=float, default=3.0,
                       help="store: required restore bandwidth growth "
                            "from rf=1 to the largest rf (default 3.0)")
    bench.add_argument("--overhead-limit", type=float, default=0.03,
                       help="mc: max fractional slowdown the oracle "
                            "hook may add to the no-oracle scheduler "
                            "fast path (default 0.03)")
    bench.add_argument("--p99-limit", type=float, default=1.0,
                       help="slo: max client-observed p99 latency in "
                            "simulated seconds (default 1.0)")
    bench.set_defaults(fn=_cmd_bench)

    lint = sub.add_parser(
        "lint", parents=[common],
        help="CruzSan determinism lint (CRZ001-CRZ006, CRZ008)")
    lint.add_argument("paths", nargs="*",
                      help="files/directories to lint "
                           "(default: the repro source tree)")
    lint.set_defaults(fn=_cmd_lint)

    sanitize = sub.add_parser(
        "sanitize", parents=[common],
        help="run a workload under the runtime invariant sanitizer")
    from repro.analysis.sanitize import WORKLOADS
    sanitize.add_argument("workload", choices=sorted(WORKLOADS),
                          help="named workload to drive")
    sanitize.set_defaults(fn=_cmd_sanitize)

    analyze = sub.add_parser(
        "analyze", parents=[common],
        help="offline analyses (schedule-race detection)")
    analyze.add_argument("check", choices=["determinism"],
                         help="which analysis to run")
    analyze.add_argument("--nodes", type=int, default=2,
                         help="fig5-small cluster size (default 2)")
    analyze.add_argument("--rounds", type=int, default=2,
                         help="checkpoint rounds per run (default 2)")
    analyze.add_argument("--seeds", type=int, default=1,
                         help="sweep this many RNG seeds (default 1)")
    analyze.set_defaults(fn=_cmd_analyze)

    mc = sub.add_parser(
        "mc", parents=[common],
        help="CruzMC: exhaustively explore bounded schedule and fault "
             "interleavings of the coordination protocol")
    mc.add_argument("--nodes", type=int, default=2,
                    help="application node count (default 2)")
    mc.add_argument("--rounds", type=int, default=1,
                    help="checkpoint rounds per run (default 1)")
    mc.add_argument("--max-states", type=int, default=2000,
                    help="run budget: stop after this many explored "
                         "states (default 2000)")
    mc.add_argument("--max-depth", type=int, default=200,
                    help="choice-point depth bound per run (default 200)")
    mc.add_argument("--branch-scope", choices=["control", "all"],
                    default="control",
                    help="branch only control-plane ties (default) or "
                         "every tie")
    mc.add_argument("--no-por", action="store_true",
                    help="disable partial-order reduction (ample sets "
                         "+ sleep sets); explore the raw tie space")
    mc.add_argument("--faults", default="",
                    help="comma list of fault modes to branch on: "
                         "drop,dup,crash,partition (default: none)")
    mc.add_argument("--fault-budget", type=int, default=1,
                    help="max injected faults per run (default 1)")
    mc.add_argument("--fault-kinds", default="",
                    help="comma list of message kinds eligible for "
                         "faults (default CHECKPOINT,DONE,CONTINUE,"
                         "CONTINUE_DONE)")
    mc.add_argument("--dup-delay", type=float, default=2e-3,
                    help="redelivery delay for duplicated datagrams "
                         "in seconds (default 0.002)")
    mc.add_argument("--settle", type=float, default=0.5,
                    help="post-round settle window in seconds before "
                         "the end-state checks (default 0.5)")
    mc.add_argument("--inject-bug", action="append", default=[],
                    metavar="NAME",
                    help="enable a seeded mutation from KNOWN_BUGS "
                         "(counterexample self-test)")
    mc.add_argument("--keep-going", action="store_true",
                    help="keep exploring after the first violation")
    mc.add_argument("--trace-out", default="",
                    help="write the minimized counterexample trace "
                         "JSON here")
    mc.add_argument("--replay", default="", metavar="TRACE",
                    help="re-execute a counterexample trace and verify "
                         "it reproduces bit-identically")
    mc.set_defaults(fn=_cmd_mc)

    serve = sub.add_parser(
        "serve", parents=[common],
        help="sessionful traffic under SLO: proxy + replicated kv "
             "fleet riding out checkpoints, failover, migration and "
             "canary restores")
    serve.add_argument("--backends", type=int, default=3,
                       help="replicated kv backends (default 3)")
    serve.add_argument("--clients", type=int, default=4,
                       help="concurrent session clients (default 4)")
    serve.add_argument("--sessions", type=int, default=8,
                       help="sessions per client (default 8)")
    serve.add_argument("--requests-per-session", type=int, default=5,
                       help="requests per session (default 5)")
    serve.add_argument("--rounds", type=int, default=2,
                       help="coordinated checkpoint rounds under load "
                            "(default 2)")
    serve.add_argument("--failover", action="store_true",
                       help="crash a backend node mid-traffic; the "
                            "supervisor must restore it")
    serve.add_argument("--migrate", action="store_true",
                       help="live-migrate a backend pod mid-traffic")
    serve.add_argument("--canary", action="store_true",
                       help="run a canary rolling restore "
                            "(drain/restore/verify/promote)")
    serve.add_argument("--kill-backend", action="store_true",
                       help="chaos: silently destroy a backend pod "
                            "mid-traffic")
    serve.add_argument("--canary-divergence", action="store_true",
                       help="chaos: corrupt the restored canary so the "
                            "read-back probe fails and it rolls back")
    serve.add_argument("--seed", type=int, default=7,
                       help="workload seed (default 7)")
    serve.add_argument("--check-determinism", action="store_true",
                       help="run fifo and lifo tie-break and diff the "
                            "client-visible reports")
    serve.set_defaults(fn=_cmd_serve)

    chaos = sub.add_parser(
        "chaos", parents=[common],
        help="seeded node-crash chaos run with automatic failover")
    chaos.add_argument("--seed", type=int, default=7,
                       help="chaos schedule seed (default 7)")
    chaos.add_argument("--crash-node", type=int, default=0,
                       help="application node to crash (default 0)")
    chaos.add_argument("--no-flap", action="store_true",
                       help="skip the survivor link flap")
    chaos.add_argument("--evict-on-suspect", action="store_true",
                       help="mute a healthy node's heartbeats instead "
                            "of crashing it; its pods must be live-"
                            "migrated away before the declaration")
    chaos.add_argument("--kill-replica", action="store_true",
                       help="crash a replica-only storage node mid-"
                            "round at rf=2: no failover may fire, "
                            "every committed version must stay "
                            "reconstructible, and re-replication must "
                            "heal the chunk space")
    chaos.add_argument("--kill-backend", action="store_true",
                       help="destroy a serving-fleet backend pod mid-"
                            "traffic: the proxy must shed/retry within "
                            "the SLO and log-replay the restored "
                            "replica back to consistency")
    chaos.add_argument("--check-determinism", action="store_true",
                       help="also replay under LIFO tie-breaking and "
                            "diff the fingerprints")
    chaos.set_defaults(fn=_cmd_chaos)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's experiments or run narrated demos without
touching pytest — the quickest way to kick the tyres. Every subcommand
takes ``--json`` to emit its result as machine-readable JSON instead of
tables; ``trace`` exports a checkpoint round's span timeline as Chrome
``trace_event`` JSON or a flat summary.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.bench import (dedup, fig5, fig6, messages, migration,
                         optimization, overhead, slo, store)
from repro.bench import mc as bench_mc
from repro.bench.harness import (at_least, baseline_cli,
                                 render_experiments, render_table)

#: The experiment table: every paper experiment and every
#: committed-baseline suite is a record its own module declares;
#: registering one here is the whole of adding it to the CLI and, for a
#: figure, to EXPERIMENTS.md.
FIGURES = (fig5.FIGURE, fig6.FIGURE, messages.FIGURE, overhead.FIGURE,
           optimization.FIGURE, optimization.ABLATION, dedup.FIGURE,
           fig5.SCALABILITY)
SUITES = (migration.SUITE, store.SUITE, bench_mc.SUITE, slo.SUITE)

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


def _dict_table(title: str, rows: List[Dict[str, Any]]) -> str:
    """:func:`render_table` of dict rows that share one key order."""
    return render_table(title, list(rows[0]) if rows else [],
                        [row.values() for row in rows])


def _emit_json(payload: Any) -> None:
    print(json.dumps(to_jsonable(payload), indent=2, allow_nan=False))


def _figure_object(figure, result) -> Dict[str, Any]:
    """What ``repro <name> --json`` emits for one run of a figure."""
    return {"command": figure.name, **figure.payload(result),
            "shape": figure.shape(result)}


def _cmd_figure(args) -> int:
    """Run one figure, check its shape, print or emit it."""
    figure = args.figure
    result = figure.run(args)
    emitted = _figure_object(figure, result)
    report = emitted["shape"]
    if args.json:
        _emit_json(emitted)
    else:
        for line in figure.render(result):
            print(line)
        print(report.render())
    return 0 if report.passed else 1


def _cmd_experiments(args) -> int:
    """Run the whole figure table at paper scale; stdout is
    EXPERIMENTS.md (``--json``: every figure's own object)."""
    runs = [(figure, figure.run_at_paper_scale()) for figure in FIGURES]
    emitted = [_figure_object(figure, result) for figure, result in runs]
    passed = all(figure["shape"].passed for figure in emitted)
    if args.json:
        _emit_json({"command": "experiments", "passed": passed,
                    "figures": emitted})
    else:
        sys.stdout.write(render_experiments(runs))
    return 0 if passed else 1


def _cmd_demo(args) -> int:
    from repro.apps.kvserver import KvClient, KvServer
    from repro.cruz.cluster import CruzCluster
    from repro.tools.inspect import netstat, pod_report, ps

    cluster = CruzCluster(2)
    pod = cluster.create_pod(0, "kv")
    pod.spawn(KvServer())
    requests = [{"op": "put", "key": f"k{i}", "value": i}
                for i in range(100)]
    client = cluster.coordinator_node.spawn(
        KvClient(str(pod.ip), requests, think_time_s=0.005))
    cluster.run_for(0.2)
    if not args.json:
        print(_dict_table("processes on node0", ps(cluster.nodes[0])))
        print()
        print(_dict_table("connections on node0",
                          netstat(cluster.nodes[0])))
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
    print()
    print(_dict_table("pods after migration", pod_report(cluster)))
    print(f"\nclient finished {len(client.program.responses)} requests: "
          f"{'all OK — migration was transparent' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    """``--save``/``--compare`` one suite against its baseline."""
    # Progress, tables and the verdict line are for humans; under
    # --json they go to stderr so stdout is exactly one object.
    with contextlib.redirect_stdout(sys.stderr if args.json
                                    else sys.stdout):
        verdict = baseline_cli(args.suite, args)
    if args.json:
        _emit_json({"command": "bench", **verdict})
    return verdict["exit_status"]


def _cmd_trace(args) -> int:
    """Run a checkpoint workload and export its span timeline."""
    from repro.apps.slm import run_slm_rounds
    from repro.cruz.cluster import CruzCluster
    from repro.sim.spans import round_coverage
    from repro.tools.inspect import round_report

    n_nodes = args.nodes
    cluster = CruzCluster(n_nodes, trace_enabled=True)
    _app, rounds = run_slm_rounds(cluster, n_nodes, args.memory_mb,
                                  rounds=args.rounds,
                                  interval_s=args.interval)
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
    print(_dict_table("Rounds — latency and phases (ms)",
                      round_report(rounds)))
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


def _serve_run(args, **kwargs) -> Tuple[dict, Optional[List[str]]]:
    """One serving gauntlet — twice, fifo and lifo diffed, under
    ``--check-determinism``. Returns ``(report, divergences)``;
    divergences are ``None`` when the diff was not asked for."""
    from repro.serve.harness import run_serve, serve_determinism

    if args.check_determinism:
        result = serve_determinism(**kwargs)
        return result["fifo"], result["diffs"]
    return run_serve(**kwargs), None


def _serve_emit(args, verdict: Dict[str, Any], report: dict,
                divergences: Optional[List[str]], closing: str) -> int:
    from repro.serve.harness import render_report

    if args.json:
        _emit_json({**verdict,
                    "determinism_divergences": divergences or [],
                    "report": report})
    else:
        for line in render_report(report, divergences):
            print(line)
        print(closing + ("OK" if verdict["ok"] else "FAILED"))
    return EXIT_OK if verdict["ok"] else EXIT_VIOLATIONS


def _cmd_serve(args) -> int:
    """Sessionful serving under SLO through every Cruz disruption."""
    report, divergences = _serve_run(
        args, backends=args.backends, clients=args.clients,
        sessions=args.sessions,
        requests_per_session=args.requests_per_session,
        rounds=args.rounds, failover=args.failover,
        migrate=args.migrate, canary=args.canary,
        kill_backend=args.kill_backend,
        canary_divergence=args.canary_divergence, seed=args.seed)
    ok = report["ok"] and not divergences
    return _serve_emit(args, {"command": "serve", "ok": ok}, report,
                       divergences, "serve: ")


def _chaos_kill_backend(args) -> int:
    """``chaos --kill-backend``: silent backend-pod destruction.

    The proxy must detect the dead backend, shed or retry the affected
    requests within the SLO (zero client-visible errors, bounded p99),
    and log-replay the restored replica back to consistency.
    """
    report, divergences = _serve_run(
        args, backends=3, clients=3, sessions=4, requests_per_session=4,
        rounds=1, kill_backend=True, seed=args.seed)
    p99 = report["slo"]["overall"]["p99_s"]
    counters = report["slo"]["counters"]
    ok = (report["ok"] and not divergences
          and p99 is not None and p99 <= slo.P99_LIMIT_S)
    return _serve_emit(
        args,
        {"command": "chaos", "mode": "kill-backend", "ok": ok,
         "p99_s": p99, "client_errors": report["client_errors"],
         "sheds": counters["sheds"], "retries": counters["retries"],
         "replicas_consistent": report["replicas_consistent"]},
        report, divergences,
        "kill-backend: p99 "
        + ("n/a" if p99 is None else f"{p99 * 1e3:.2f}ms")
        + f" (limit {slo.P99_LIMIT_S * 1e3:.0f}ms), "
        f"{counters['sheds']} shed(s), "
        f"{counters['retries']} retrie(s) — ")


def _cmd_chaos(args) -> int:
    """Seeded chaos run: crash a node mid-round, demand self-healing."""
    from repro.bench.chaos import chaos_determinism, run_chaos

    if args.kill_backend:
        return _chaos_kill_backend(args)
    kwargs = dict(seed=args.seed, crash_node_index=args.crash_node,
                  link_flap=not args.no_flap,
                  evict_on_suspect=args.evict_on_suspect,
                  kill_replica=args.kill_replica)
    divergences: List[str] = []
    if args.check_determinism:
        result, divergences = chaos_determinism(**kwargs)
    else:
        result = run_chaos(**kwargs)
    ok = result.ok and not divergences
    if args.json:
        _emit_json({
            "command": "chaos",
            "ok": ok,
            "result": result,
            "mttr_s": result.mttr_s,
            "determinism_divergences": divergences,
        })
    else:
        print(result.render())
        if args.check_determinism:
            print("determinism: "
                  + ("PASS (fifo == lifo)" if not divergences
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

    for figure in FIGURES:
        fig = sub.add_parser(figure.name, parents=[common],
                             help=figure.help)
        figure.add_arguments(fig)
        fig.set_defaults(fn=_cmd_figure, figure=figure)

    experiments = sub.add_parser(
        "experiments", parents=[common],
        help="run every figure at paper scale and write EXPERIMENTS.md "
             "to stdout")
    experiments.set_defaults(fn=_cmd_experiments)

    trace = sub.add_parser(
        "trace", parents=[common],
        help="run a checkpoint round and export its span timeline")
    trace.add_argument("--nodes", type=at_least(1), default=4,
                       help="cluster size (default 4)")
    trace.add_argument("--rounds", type=at_least(1), default=1,
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
        "bench",
        help="committed-baseline regression guards, one per suite")
    guard = argparse.ArgumentParser(add_help=False)
    mode = guard.add_mutually_exclusive_group()
    mode.add_argument("--save", action="store_true",
                      help="record a new baseline instead of comparing")
    mode.add_argument("--compare", action="store_true",
                      help="compare against the baseline (default)")
    guard.add_argument("--baseline", default="",
                       help="baseline JSON path (default: the suite's "
                            "committed one)")
    suites = bench.add_subparsers(dest="suite_name", required=True,
                                  metavar="suite")
    for suite in SUITES:
        guarded = suites.add_parser(suite.name, parents=[common, guard],
                                    help=suite.help)
        guarded.set_defaults(fn=_cmd_bench, suite=suite)

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
    try:
        status = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``repro ... --json | head``). Point stdout
        # at /dev/null so the flush at exit cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VIOLATIONS
    return status


if __name__ == "__main__":
    sys.exit(main())

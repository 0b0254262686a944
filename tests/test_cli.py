"""CLI smoke tests."""

import argparse
import copy
import dataclasses
import hashlib
import json
import re

import pytest

from repro.bench import dedup, optimization
from repro.bench.harness import Figure
from repro.cli import FIGURES, SUITES, build_parser, main, to_jsonable


def test_parser_knows_all_commands():
    parser = build_parser()
    for command in ("demo", "fig5", "fig6", "messages", "overhead",
                    "fig4", "ablation", "dedup", "scalability",
                    "experiments", "trace"):
        args = parser.parse_args([command])
        assert callable(args.fn)
        assert args.json is False


# -- the experiment table: every figure and bench suite, one shape ---------

#: (argv prefix, record, flags every record of that kind shares).
FIGURE_FLAGS = {"--help", "--json"}
SUITE_FLAGS = FIGURE_FLAGS | {"--save", "--compare", "--baseline"}
RECORDS = ([([figure.name], figure, FIGURE_FLAGS) for figure in FIGURES]
           + [(["bench", suite.name], suite, SUITE_FLAGS)
              for suite in SUITES])
#: Reduced scale for the figures that take one.
SMALL = {"fig5": ["--nodes", "2", "--rounds", "1"],
         "messages": ["--nodes", "2", "4"]}
#: Records with no flags whose only scale costs more than 5 s (the CI
#: ``experiments`` lane runs them at paper scale): here the same command
#: is driven over their run function at a small scale. The stream half
#: of ``ablation`` is two fig6 runs, 13 s each whatever the memory size,
#: so it is a literal.
PAPER_SCALE_ONLY = {
    "ablation": lambda args: optimization.AblationResult(
        rounds=optimization.run_ablation_rounds(state_mb=6.0),
        stream={optimization.BASELINE: (0.350, 0.296),
                optimization.EARLY_NETWORK: (0.350, 0.006)}),
    "dedup": lambda args: dedup.run_dedup(n_ranks=1, epochs=2,
                                          workspace_mb=1.0),
}
#: sha256 of the whole ``--json`` stdout where every byte is simulated:
#: fig6's rate series is 526 sliding-window sums over ~128 k points, and
#: a different order of additions would show here.
PINNED_STDOUT = {
    "fig6": "6c7e64073a8e6511c69e4f14d87f65a869656d460154b0b6b8b2628af41b16c5",
}


def _flags(text):
    return set(re.findall(r"--[a-z0-9][a-z0-9-]*", text))


def _own_flags(record):
    """A figure's own flags; a suite has none."""
    scratch = argparse.ArgumentParser(add_help=False)
    if isinstance(record, Figure):
        record.add_arguments(scratch)
    return _flags(scratch.format_usage())


def _one_json_object(out):
    """``out`` must be exactly one JSON object; returns it."""
    doc, end = json.JSONDecoder().raw_decode(out)
    assert out[end:].strip() == "" and isinstance(doc, dict)
    return doc


def test_the_table_registers_every_experiment():
    assert [figure.name for figure in FIGURES] == [
        "fig5", "fig6", "messages", "overhead", "fig4", "ablation",
        "dedup", "scalability"]
    assert [suite.name for suite in SUITES] == [
        "migration", "store", "mc", "slo"]


@pytest.mark.parametrize("argv,record,shared", RECORDS,
                         ids=[" ".join(argv) for argv, _r, _s in RECORDS])
def test_each_record_has_a_subparser_with_only_its_own_flags(
        argv, record, shared, capsys):
    args = build_parser().parse_args(argv)
    assert callable(args.fn) and args.json is False
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--help"])
    assert excinfo.value.code == 0
    own = _own_flags(record)
    assert _flags(capsys.readouterr().out) == shared | own
    # Every flag some other record declares is a usage error here.
    everyone = set().union(*(_own_flags(other) | extra
                             for _argv, other, extra in RECORDS))
    for foreign in sorted(everyone - shared - own):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + [foreign, "2"])
        assert excinfo.value.code == 2, (argv, foreign)
    capsys.readouterr()


@pytest.mark.parametrize("figure", FIGURES, ids=lambda f: f.name)
def test_every_figure_json_is_a_single_object(figure, capsys,
                                              paper_scale):
    args = build_parser().parse_args(
        [figure.name, *SMALL.get(figure.name, []), "--json"])
    if figure.name not in SMALL:
        # No flags: one scale, shared with tests/test_experiments.py.
        assert not _own_flags(figure)
        args.figure = dataclasses.replace(
            figure, run=PAPER_SCALE_ONLY.get(
                figure.name, lambda _args: paper_scale(figure)))
    status = args.fn(args)
    out = capsys.readouterr().out
    if figure.name in PINNED_STDOUT:
        assert hashlib.sha256(out.encode()).hexdigest() == \
            PINNED_STDOUT[figure.name]
    doc = _one_json_object(out)
    assert doc["command"] == figure.name
    assert doc["shape"]["passed"] is (status == 0)
    assert set(doc) - {"command", "shape"}  # carries its result


def _committed(suite):
    with open(suite.baseline, encoding="utf-8") as handle:
        return json.load(handle)


def _bench(capsys, suite, report, *flags):
    """``repro bench <suite> --json`` over ``report`` in place of a
    run; returns ``(exit status, emitted object, stderr)``."""
    args = build_parser().parse_args(["bench", suite.name, "--json",
                                      *flags])

    def run():
        print(f"{suite.name}: progress line")
        return report

    args.suite = dataclasses.replace(suite, run=run)
    status = args.fn(args)
    captured = capsys.readouterr()
    return status, _one_json_object(captured.out), captured.err


@pytest.mark.parametrize("suite", SUITES, ids=lambda s: s.name)
def test_every_suite_json_is_a_single_object_with_its_evidence(
        suite, capsys):
    """The committed baseline stands in for a run (it *is* one suite
    report): progress goes to stderr, stdout is one object carrying the
    report, its shape and the drift, and the baseline passes its own
    checks and equals itself un-re-recorded."""
    recorded = _committed(suite)
    status, doc, err = _bench(capsys, suite, recorded, "--compare")
    assert status == 0
    assert "progress line" in err
    assert "every simulated field equals" in err
    assert doc["command"] == "bench" and doc["suite"] == suite.name
    assert doc["baseline"] == suite.baseline
    assert doc["ok"] is True and doc["exit_status"] == 0
    assert doc["drift"] == [] and doc["shape"]["passed"] is True
    assert doc["report"] == recorded


#: One simulated leaf per committed baseline, each moved by 10 % below:
#: inside every suite's old ratio tolerance, outside equality.
MOVED_LEAF = {"store": ("restore", "rf4", "restore_s"),
              "migration": ("precopy", "pause_window_s"),
              "slo": ("slo", "overall", "p99_s"),
              "mc": ("explorer", "faults", "reduction_ratio")}


def _moved(report, keys, factor):
    report = copy.deepcopy(report)
    *parents, leaf = keys
    node = report
    for key in parents:
        node = node[key]
    node[leaf] *= factor
    return report


@pytest.mark.parametrize("suite", SUITES, ids=lambda s: s.name)
def test_a_simulated_leaf_moved_by_ten_percent_fails_by_path(
        suite, capsys):
    keys = MOVED_LEAF[suite.name]
    recorded = _committed(suite)
    status, doc, err = _bench(capsys, suite,
                              _moved(recorded, keys, 1.1), "--compare")
    path = ".".join(keys)
    assert status == 1 and doc["ok"] is False
    assert doc["shape"]["passed"] is True
    assert [line.split(":")[0] for line in doc["drift"]] == [path]
    assert f"DRIFT: {path}: " in err


def test_host_clock_fields_are_free_and_a_missing_key_is_drift(
        tmp_path, capsys):
    suite = next(suite for suite in SUITES if suite.name == "mc")
    recorded = _committed(suite)
    slow = _moved(recorded, ("explorer", "faults", "wall_s"), 2.0)
    status, doc, _err = _bench(capsys, suite, slow, "--compare")
    assert status == 0 and doc["drift"] == []
    # A key the run no longer reports.
    short = copy.deepcopy(recorded)
    del short["workload"]["explorer"]["rounds"]
    status, doc, _err = _bench(capsys, suite, short, "--compare")
    assert status == 1
    assert doc["drift"] == ["workload.explorer.rounds: 1 → absent"]
    # A key the committed baseline does not hold.
    target = tmp_path / "BENCH_mc.json"
    target.write_text(json.dumps(short))
    status, doc, _err = _bench(capsys, suite, recorded, "--compare",
                               "--baseline", str(target))
    assert status == 1
    assert doc["drift"] == ["workload.explorer.rounds: absent → 1"]


def test_bench_json_carries_the_failures(capsys):
    suite = SUITES[0]
    broken = dict(_committed(suite),
                  divergences=["migration.field_hash: fifo=1 lifo=2"])
    status, doc, err = _bench(capsys, suite, broken)
    assert status == 1
    assert doc["ok"] is False and doc["exit_status"] == 1
    assert doc["shape"]["passed"] is False
    assert {check["name"]: check["ok"]
            for check in doc["shape"]["checks"]}["fifo_equals_lifo"] \
        is False
    assert doc["drift"] == [
        'divergences[0]: absent → "migration.field_hash: fifo=1 lifo=2"']
    assert "DRIFT:" in err
    assert doc["report"]["divergences"] == broken["divergences"]


def test_bench_save_and_compare_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "slo", "--save", "--compare"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_bench_requires_a_suite(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--compare"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_bench_save_records_only_a_passing_run(tmp_path, capsys):
    suite = SUITES[0]
    recorded = _committed(suite)
    target = tmp_path / "sub" / "BENCH.json"
    args = build_parser().parse_args(
        ["bench", suite.name, "--save", "--baseline", str(target)])
    args.suite = dataclasses.replace(suite, run=lambda: recorded)
    assert args.fn(args) == 0
    assert json.loads(target.read_text()) == recorded
    assert f"saved {suite.name} baseline" in capsys.readouterr().out
    # A run that fails its own checks is never recorded.
    failing = dict(recorded, divergences=["x"])
    target.unlink()
    args.suite = dataclasses.replace(suite, run=lambda: failing)
    assert args.fn(args) == 1
    assert not target.exists()
    # A missing or unreadable baseline is exit 2, not a pass.
    args = build_parser().parse_args(
        ["bench", suite.name, "--compare", "--baseline", str(target)])
    assert args.fn(args) == 2
    target.write_text("{not json")
    assert args.fn(args) == 2
    assert "unreadable baseline" in capsys.readouterr().err


def test_cli_requires_a_command(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_cli_overhead_runs(capsys):
    assert main(["overhead"]) == 0
    out = capsys.readouterr().out
    assert "overhead" in out
    assert "< 0.5" in out
    # The shape checks are printed, not just computed.
    assert "overhead_below_half_percent" in out
    assert "PASS" in out


def test_cli_fig5_small_runs(capsys):
    assert main(["fig5", "--nodes", "2", "3", "--rounds", "2"]) == 0
    out = capsys.readouterr().out
    assert "Fig 5" in out


def test_cli_demo_runs(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "migration was transparent" in out


#: A figure flag that makes no sense is a usage error, not a traceback
#: out of the cluster or a shape check failing for want of two points.
@pytest.mark.parametrize("argv", [
    ["fig5", "--nodes", "2", "--rounds", "0"],
    ["fig5", "--nodes", "0"],
    ["trace", "--rounds", "0"],
    ["trace", "--nodes", "0"],
    ["messages", "--nodes", "1"],
], ids=" ".join)
def test_a_senseless_figure_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least" in err
    assert err.count("error:") == 1 and "Traceback" not in err


def test_repeated_node_counts_are_swept_once_in_order(capsys):
    assert main(["fig5", "--nodes", "3", "2", "3", "--rounds", "1",
                 "--json"]) == 0
    points = json.loads(capsys.readouterr().out)["points"]
    assert [p["n_nodes"] for p in points] == [2, 3]
    # One count cannot show a trend: the trend check says so and passes.
    assert main(["messages", "--nodes", "2", "2", "--json"]) == 0
    points = json.loads(capsys.readouterr().out)["points"]
    assert [p["n_nodes"] for p in points] == [2]


def test_cli_messages_small_runs(capsys):
    assert main(["messages", "--nodes", "2", "4"]) == 0
    out = capsys.readouterr().out
    assert "O(N)" in out


def test_cli_trace_summary_reports_coverage(capsys):
    assert main(["trace", "--nodes", "2", "--rounds", "1",
                 "--interval", "0.2", "--memory-mb", "4"]) == 0
    out = capsys.readouterr().out
    assert "Span summary" in out
    assert "agent.local" in out
    assert "spans cover" in out


def test_cli_trace_chrome_emits_parseable_json(capsys):
    assert main(["trace", "--nodes", "2", "--rounds", "1",
                 "--interval", "0.2", "--memory-mb", "4",
                 "--format", "chrome"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)  # pure JSON on stdout, nothing else
    events = doc["traceEvents"]
    assert any(e.get("ph") == "X" and e["name"] == "round"
               for e in events)
    assert any(e.get("ph") == "M" for e in events)


def test_cli_trace_chrome_writes_out_file(tmp_path, capsys):
    out_file = tmp_path / "trace.json"
    assert main(["trace", "--nodes", "2", "--rounds", "1",
                 "--interval", "0.2", "--memory-mb", "4",
                 "--format", "chrome", "--out", str(out_file)]) == 0
    assert capsys.readouterr().out == ""  # stdout stays clean
    doc = json.loads(out_file.read_text())
    assert doc["traceEvents"]


def test_cli_trace_json_summary(capsys):
    assert main(["trace", "--nodes", "2", "--rounds", "1",
                 "--interval", "0.2", "--memory-mb", "4",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "trace"
    assert doc["coverage"][0] >= 0.95
    assert doc["rounds"][0]["committed"] is True
    assert "store.saves" in doc["metrics"]


def test_cli_fig5_json_output(capsys):
    assert main(["fig5", "--nodes", "2", "3", "--rounds", "2",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "fig5"
    assert doc["shape"]["passed"] is True
    assert [p["n_nodes"] for p in doc["points"]] == [2, 3]
    assert doc["points"][0]["latency"]["n"] == 2


def test_cli_overhead_json_output(capsys):
    assert main(["overhead", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "overhead"
    assert doc["overhead_fraction"] < 0.005
    checks = {c["name"]: c["ok"] for c in doc["shape"]["checks"]}
    assert checks["overhead_below_half_percent"] is True


def test_shape_report_renders_float_lists_to_four_digits():
    from repro.bench.harness import ShapeReport

    report = ShapeReport("t")
    report.check("floats", True, expect="e",
                 value=[0.00035695899999765857, 1.0510000000000002])
    report.check("counts", True, value=[8, 16], expect="e")
    report.check("scalar", True, value=0.00035695899999765857)
    text = report.render()
    assert "[0.000357, 1.051]" in text and "[8, 16]" in text
    assert "0.00035695" not in text
    # The JSON keeps every digit.
    assert report.to_jsonable()["checks"][0]["value"] == [
        0.00035695899999765857, 1.0510000000000002]


def test_to_jsonable_handles_the_harness_types():
    from repro.bench.harness import ShapeReport, Stat

    report = ShapeReport("t")
    report.check("c", True, value=1.5, expect="e")
    nan_stat = Stat.of([])
    payload = to_jsonable({
        "stat": Stat.of([1.0, 3.0]),
        "report": report,
        "nan": nan_stat,
        "seq": (1, "two", None),
        "other": {1: {2.5}},
    })
    assert payload["stat"] == {"mean": 2.0, "std": 1.0, "n": 2}
    assert payload["report"]["checks"][0]["name"] == "c"
    assert payload["nan"]["mean"] is None  # NaN -> null, strict JSON
    assert payload["seq"] == [1, "two", None]
    assert payload["other"] == {"1": "{2.5}"}  # last-resort stringify
    json.dumps(payload, allow_nan=False)


# -- analysis commands (lint / sanitize / analyze) -------------------------


def test_exit_code_convention_constants():
    from repro.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATIONS

    assert (EXIT_OK, EXIT_VIOLATIONS, EXIT_USAGE) == (0, 1, 2)


def test_parser_knows_the_analysis_commands():
    parser = build_parser()
    for argv in (["lint"], ["sanitize", "fig5-small"],
                 ["analyze", "determinism"]):
        args = parser.parse_args(argv)
        assert callable(args.fn)
        assert args.json is False


def test_cli_lint_is_clean_on_the_tree(capsys):
    assert main(["lint"]) == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_cli_lint_flags_injected_wallclock(tmp_path, capsys):
    bad = tmp_path / "leaky.py"
    bad.write_text("import time\n\ndef now():\n    return time.time()\n")
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "CRZ001" in out
    assert f"{bad}:4:" in out


def test_cli_lint_json_carries_violations_and_catalog(tmp_path, capsys):
    bad = tmp_path / "leaky.py"
    bad.write_text("import random\n\ndef pick(xs):\n"
                   "    return random.choice(xs)\n")
    assert main(["lint", str(bad), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "lint"
    assert doc["violations"][0]["code"] == "CRZ002"
    assert "CRZ002" in doc["rules"]


def test_cli_sanitize_fig5_small_is_clean(capsys):
    assert main(["sanitize", "fig5-small"]) == 0
    assert "sanitizer: clean" in capsys.readouterr().out


def test_cli_sanitize_rejects_unknown_workload(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sanitize", "bogus"])
    assert excinfo.value.code == 2


def test_cli_analyze_rejects_unknown_check(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "entropy"])
    assert excinfo.value.code == 2


def test_cli_analyze_determinism_passes(capsys):
    assert main(["analyze", "determinism", "--nodes", "2",
                 "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_analyze_determinism_json(capsys):
    assert main(["analyze", "determinism", "--nodes", "2",
                 "--rounds", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "analyze"
    assert doc["deterministic"] is True
    assert doc["divergences"] == []


def test_parser_knows_chaos():
    parser = build_parser()
    args = parser.parse_args(["chaos", "--seed", "3"])
    assert callable(args.fn)
    assert args.seed == 3 and args.json is False


def test_cli_chaos_self_heals(capsys):
    assert main(["chaos", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "chaos: PASS" in out
    assert "mttr=" in out
    assert "sanitizer: clean" in out


def test_cli_chaos_json_reports_mttr_phases(capsys):
    assert main(["chaos", "--seed", "7", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "chaos"
    assert doc["ok"] is True
    assert doc["mttr_s"] > 0
    phases = doc["result"]["failovers"][0]["phases"]
    assert set(phases) == {"detect", "verify", "place", "restart",
                           "total"}
    assert phases["detect"] > 0 and phases["restart"] > 0
    assert doc["result"]["sanitizer_violations"] == 0
    assert doc["result"]["rounds_aborted"] >= 1

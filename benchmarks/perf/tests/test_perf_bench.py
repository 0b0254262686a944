"""Self-tests of the perf ledger (not in tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/perf/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(os.path.dirname(PERF))
RUN = os.path.join(PERF, "run.py")
sys.path.insert(0, PERF)
sys.path.insert(0, os.path.join(REPO, "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import probes  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(*args, cwd=REPO):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True)


def last_json(done):
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- the contract file -------------------------------------------------------

def test_benchmark_json_is_the_registry():
    spec = benchmark_json()
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert spec["paths"] == ["benchmarks/perf"]
    assert spec["command"] == ["python3", "benchmarks/perf/run.py"]
    assert spec["workloads"] == [{"name": name, "why": why}
                                 for name, why in metrics.WORKLOADS.items()]
    assert spec["end_to_end"] == metrics.end_to_end()
    assert spec["per_layer"] == metrics.per_layer()
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60


def test_benchmark_json_is_within_the_contract_limits():
    spec = benchmark_json()
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in spec["end_to_end"]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert os.path.getsize(os.path.join(REPO, "BENCHMARK.json")) < 64 * 1024


# -- layer buckets -----------------------------------------------------------

def product_files():
    root = os.path.join(REPO, "src", "repro")
    for directory, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                yield os.path.relpath(os.path.join(directory, name), root)


def test_layer_buckets_cover_every_source_file_exactly_once():
    assigned = {path: layers.layer_of(path) for path in product_files()}
    assert len(assigned) > 90
    assert set(assigned.values()) == set(metrics.LAYERS)
    # First match wins, so a file is in one bucket; no rule may shadow
    # a later, more specific one.
    prefixes = [prefix for prefix, _layer in layers.LAYER_RULES]
    for index, prefix in enumerate(prefixes):
        assert not any(prefix.startswith(earlier)
                       for earlier in prefixes[:index]), prefix
    assert assigned["cruz/storage.py"] == "cruz.storage"
    assert assigned["cruz/coordinator.py"] == "cruz.protocol"
    assert assigned["simos/files.py"] == "simos.kernel"
    assert assigned["cluster.py"] == "cluster"
    assert assigned["cli.py"] == "host.other"


# -- robustness to the planned deletions -------------------------------------

FORBIDDEN = [
    r"scheduler\s*=", r"\bqueue\s*=", r"shared-fs", r"SharedFSBackend",
    r"live\s*=\s*False", r"\.chunks\b", r"_shape_holds", r"trace\.Counter",
    r"\bCounter\(", r"repro\.bench", r"leaky_cancel", r"slotted_timers",
    r"lightweight\s*=", r"direct\s*=",
]


def test_sources_use_no_preset_or_name_scheduled_for_deletion():
    for name in sorted(os.listdir(PERF)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PERF, name), encoding="utf-8") as handle:
            text = handle.read()
        for pattern in FORBIDDEN:
            assert not re.search(pattern, text), (name, pattern)
        assert not re.search(r"from repro[\w.]* import _", text), name


def test_probe_with_a_missing_symbol_reports_null(monkeypatch, capsys):
    def gone(_ops):
        from repro.cruz import NoSuchBackend  # noqa: F401

    def present(ops):
        return {"sim.spans.begin_end_per_s": float(ops)}

    monkeypatch.setattr(probes, "PROBES", [(gone, 1), (present, 8)])
    values = probes.run_all(smoke=True)
    assert values["sim.spans.begin_end_per_s"] == 2.0
    assert values["cruz.backend.put_per_s"] is None
    assert set(values) == {name for name, _u, _b in metrics.PROBES}
    assert "probe gone unavailable" in capsys.readouterr().err


def test_every_probe_metric_has_a_probe():
    produced = probes.run_all(smoke=True)
    assert [name for name, value in produced.items() if value is None] == []


# -- the driver's form -------------------------------------------------------

def test_untraced_line_carries_exactly_the_end_to_end_metrics():
    spec = benchmark_json()
    line = last_json(run("--workload", "tcp_mesh", "--seed", "11",
                         "--seconds", "0", "--trace", "0", "--smoke"))
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert ({name: entry["unit"] for name, entry in line["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec["end_to_end"]})
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_traced_line_carries_exactly_the_per_layer_metrics():
    spec = benchmark_json()
    line = last_json(run("--workload", "restore_churn", "--seed", "11",
                         "--seconds", "0", "--trace", "1", "--smoke"))
    assert line["correct"] is True
    assert ({name: entry["unit"] for name, entry in line["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec["per_layer"]})
    values = {name: entry["value"] for name, entry in line["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    assert values["cruz.storage.self_s"] > 0
    assert values["serve.self_s"] == 0
    assert values["sim_migrate_pause_ms"] > 0
    assert values["sim_flow_p50_ms"] == 0      # not this workload's
    assert values["trace.overhead_ratio"] > 1.0


def test_exits_nonzero_where_the_product_is_absent(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "tcp_mesh",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode != 0
    assert "RECORD" not in done.stdout


# -- the whole ledger at smoke scale -----------------------------------------

@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One traced smoke run at seed 7, one untraced each at 7 and 8."""
    out = tmp_path_factory.mktemp("ledger")
    runs = {}
    for key, args in (("traced", ["--seed", "7", "--traced", "--layers"]),
                      ("again", ["--seed", "7"]),
                      ("other", ["--seed", "8"])):
        path = str(out / f"{key}.json")
        done = run("--smoke", "--json", path, *args)
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        with open(path, encoding="utf-8") as handle:
            runs[key] = (json.load(handle), done.stdout)
    return runs


def test_json_schema_matches_benchmark_json(smoke):
    spec = benchmark_json()
    document, _stdout = smoke["traced"]
    assert document["claim"] is None
    assert set(document["fingerprint"]) == {"cpu", "nproc", "python",
                                            "git_sha"}
    assert sorted(document["workloads"]) == sorted(
        w["name"] for w in spec["workloads"])
    wanted = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, record in document["workloads"].items():
        assert set(record["metrics"]) == wanted, name
        assert record["failed_ops"] == 0 and record["ops"] > 0, name
        assert record["spans"] and record["spans"][0]["name"] == "setup"
        for metric, _unit, producers in metrics.SIM_END_TO_END:
            produced = record["metrics"][metric] is not None
            assert produced == (name in producers), (name, metric)
        for metric, _unit, _bound in metrics.HOST_END_TO_END:
            assert record["metrics"][metric] > 0


def test_every_named_metric_is_printed_with_its_unit(smoke):
    _document, stdout = smoke["traced"]
    units = metrics.units()
    for name, unit in units.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b",
                         stdout, re.MULTILINE), name
    assert stdout.count(", ops=") == len(metrics.WORKLOADS)
    assert stdout.count(" failed_ops=0,") == len(metrics.WORKLOADS)


def test_layer_self_times_sum_to_the_traced_wall(smoke):
    document, _stdout = smoke["traced"]
    for name, record in document["workloads"].items():
        total = sum(record["metrics"][f"{layer}.self_s"]
                    for layer in metrics.LAYERS)
        assert total == pytest.approx(record["traced_wall_s"],
                                      rel=0.02), name


def test_sim_results_repeat_for_a_seed_and_follow_the_seed(smoke):
    first, again, other = (smoke[key][0]["workloads"]
                           for key in ("traced", "again", "other"))
    for name in metrics.WORKLOADS:
        assert first[name]["sim_digest"] == again[name]["sim_digest"], name
        for metric, _unit, producers in metrics.SIM_END_TO_END:
            if name in producers:
                assert (first[name]["metrics"][metric]
                        == again[name]["metrics"][metric]), (name, metric)
        # mc_explore's seed moves instants, never the explored tree.
        if name != "mc_explore":
            assert (first[name]["sim_digest"]
                    != other[name]["sim_digest"]), name


def test_two_runs_of_one_commit_agree_on_the_sim_clock(smoke, tmp_path,
                                                       capsys):
    paths = []
    for key in ("traced", "again"):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(smoke[key][0]))
        paths.append(str(path))
    compare.main(paths)
    table = capsys.readouterr().out
    sim_rows = [line for line in table.splitlines()
                if line.strip().startswith("sim_")]
    assert len(sim_rows) == 12 + len(metrics.WORKLOADS)
    assert all("unchanged" in line for line in sim_rows)


# -- compare verdicts --------------------------------------------------------

def _document(wall, samples, latency=1.0, rss=100.0):
    record = {
        "ops": 10, "failed_ops": 0, "sim_digest": f"digest-{latency}",
        "samples": {"wall_s": samples, "setup_s": [0.1, 0.1, 0.1]},
        "metrics": dict(
            {name: latency for name, _u, _p in metrics.SIM_END_TO_END},
            wall_s=wall, setup_s=0.1, peak_rss_mb=rss),
    }
    return {"workloads": {name: record for name in metrics.WORKLOADS}}


def _verdicts(base, change, workload="tcp_mesh"):
    return {metric: verdict for name, metric, verdict, _detail
            in compare.compare(base, change) if name == workload}


def test_compare_host_verdicts():
    base = _document(2.0, [1.95, 2.0, 2.05])
    same = _verdicts(base, _document(2.2, [2.1, 2.2, 2.3]))
    assert same["wall_s"] == "unchanged"        # +10 %, bound 25 %
    assert same["sim_flow_p50_ms"] == "unchanged"
    assert same["sim_digest"] == "unchanged"
    assert _verdicts(base, _document(1.0, [0.9, 1.0, 1.1]))[
        "wall_s"] == "improved"
    assert _verdicts(base, _document(3.0, [2.9, 3.0, 3.1]))[
        "wall_s"] == "regressed"
    # Repetitions spread wider than the bound decide nothing...
    assert _verdicts(base, _document(2.6, [1.6, 2.6, 3.6]))[
        "wall_s"] == "unresolved"
    # ...unless the two sides do not overlap at all.
    assert _verdicts(base, _document(4.0, [3.0, 4.0, 5.0]))[
        "wall_s"] == "regressed"
    assert _verdicts(base, _document(2.0, [1.95, 2.0, 2.05], rss=106.0))[
        "peak_rss_mb"] == "regressed"


def test_compare_sim_metrics_are_exact():
    base = _document(2.0, [1.95, 2.0, 2.05])
    moved = _verdicts(base, _document(2.0, [1.95, 2.0, 2.05],
                                      latency=1.0 + 1e-12))
    assert moved["sim_flow_p99_ms"] == "regressed"
    assert moved["sim_digest"] == "changed"
    assert "sim_req_p50_ms" not in moved        # serve_fleet's, not mesh's

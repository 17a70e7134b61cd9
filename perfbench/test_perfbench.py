"""Tests of the benchmark's own code: generator, self time, gate and tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import END, START  # noqa: E402


# ------------------------------------------------------------- generator


def test_generator_is_deterministic_and_seeded():
    for name in workloads.WORKLOADS:
        a = workloads.make_config(name, 7, 0, "out")
        assert a == workloads.make_config(name, 7, 0, "out")
        assert a["seed"] != workloads.make_config(name, 8, 0, "out")["seed"]
        assert a["seed"] != workloads.make_config(name, 7, 1, "out")["seed"]
        assert a["checks"] == workloads.make_config(name, 8, 3, "out")["checks"]
        assert 0 <= a["seed"] < 2**63
        assert "workers" not in a and "chunk_size" not in a


def test_workloads_cover_the_full_suite_once():
    indices = [i for name in workloads.WORKLOADS for i, _ in workloads.check_entries(name)]
    assert sorted(indices) == list(range(18))
    with open(os.path.join(ROOT, "demos", "full_suite.json")) as fh:
        suite = json.load(fh)
    for i, entry in enumerate(suite["checks"]):
        shipped = dict(entry)
        shipped.setdefault("n", suite["n"])
        assert workloads.FULL_SUITE[i] == shipped


def test_generated_configs_validate():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from levyladder.runner import ExperimentConfig
    for name in workloads.WORKLOADS:
        cfg = ExperimentConfig(workloads.make_config(name, 1, 0, "out"))
        assert len(cfg.checks) == len(workloads.check_entries(name))


# ------------------------------------------------------------- self time


def span(name, layer, kind, start, end, parent, size=0):
    return [name, layer, kind, start, end, parent, size]


NESTED = [
    span("runner.run", "runner", "call", 0.0, 10.0, None),                # 0
    span("passage.sample_passages", "passage", "call", 1.0, 4.0, 0),      # 1
    span("rng.chunked_map", "rng", "call", 1.5, 3.5, 1),                  # 2
    span("passage.chunk", "passage", "chunk", 2.0, 3.0, 2),               # 3
    span("processes.draw", "processes", "draw", 2.2, 2.4, 3, 100),        # 4
    span("processes.draw", "processes", "draw", 2.5, 2.6, 3, 300),        # 5
    span("renewal.fluct_boxes", "renewal", "call", 5.0, 6.0, 0),          # 6
    span("renewal.chunk", "renewal", "chunk", 6.5, 8.0, 0),               # 7
    span("renewal.chunk", "renewal", "chunk", 7.0, 9.0, 0),               # 8 (overlaps 7)
    span("results.write_csv", "results", "write", 9.5, 9.75, 0, 42),      # 9
]


def test_self_time_on_nested_spans():
    got = tracing.self_times(NESTED)
    # root: 10 minus children 3 + 1 + union(6.5..9)=2.5 + 0.25
    want = [3.25, 1.0, 1.0, 0.7, 0.2, 0.1, 1.0, 1.5, 2.0, 0.25]
    assert got == pytest.approx(want)
    total = sum(row[END] - row[START] for row in NESTED if row[5] is None)
    assert sum(got) == pytest.approx(total + 1.0)  # the 1 s the two chunks overlap


def test_layer_metrics_on_nested_spans():
    m = tracing.layer_metrics(NESTED, wall_s=10.5)
    assert m["passage.self_s"] == pytest.approx(1.7)
    assert m["passage.busy_s"] == pytest.approx(3.0)   # the chunk nests in a passage span
    assert m["passage.calls"] == 1                      # chunks are not calls
    assert m["renewal.busy_s"] == pytest.approx(4.5)
    assert m["processes.draw_calls"] == 2
    assert m["processes.draws"] == 400
    assert m["processes.draws_per_call"] == 200
    assert m["processes.tail_calls"] == 1
    assert m["passage.draw_calls"] == 2
    assert m["renewal.draw_calls"] == 0
    assert m["rng.chunks"] == 3
    assert m["rng.chunk_max_s"] == pytest.approx(2.0)
    assert m["rng.chunk_p50_s"] == pytest.approx(1.5)
    assert m["results.files"] == 1 and m["results.bytes"] == 42
    assert m["trace.unattributed_s"] == pytest.approx(0.5)
    assert m["rw_ladder.calls"] == 0 and m["rw_ladder.self_s"] == 0.0


def test_benchmark_json_names_every_metric_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    printed = set(tracing.layer_metrics([], 1.0)) | set(workloads.check_metric_names())
    printed.add("trace.overhead_s")
    assert {m["name"] for m in bench["per_layer"]} == printed
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    runs = [{"wall_s": 2.0, "cpu_s": 2.1, "paths": 100, "peak_rss_mb": 80.0}]
    summary = run.summarize(runs * 3, [0.5, 0.6, 0.4])
    assert set(summary) == {m["name"] for m in bench["end_to_end"]}
    assert summary["paths_per_s"] == 50.0 and summary["setup_s"] == 0.5


# ------------------------------------------------------------------ gate


def write_run(path, verdicts=("PASS", "PASS"), monitor=0, detail="a,b\n1,2\n"):
    os.makedirs(path, exist_ok=True)
    rows = "".join(f"chk{i},P1,abc,0.1,0.1,0.0,0.02,{v}\n" for i, v in enumerate(verdicts))
    files = {
        "summary.csv": "check,fixture,params_hash,lhs,rhs,distance,budget,pass\n" + rows,
        "reports.csv": "check,params,lhs,rhs,se_lhs,se_rhs,budget,pass\n" + rows,
        "monitors.csv": f"monitor,count,total_paths\ncreep_with_undershoot,{monitor},100\n",
        "check00_x.csv": detail,
        "check01_y.csv": "c\n3\n",
    }
    for name, text in files.items():
        with open(os.path.join(path, name), "w") as fh:
            fh.write(text)
    return str(path)


def test_gate_passes_a_clean_rerun(tmp_path):
    ref = write_run(tmp_path / "a")
    assert gate.gate(write_run(tmp_path / "b"), 2, ref_dir=ref) == (set(), set(), [])


def test_gate_rejects_a_flipped_verdict(tmp_path):
    failed, broken, problems = gate.gate(write_run(tmp_path / "a", verdicts=("PASS", "FAIL")), 2)
    assert failed == {1} and broken == set() and "FAIL" in problems[0]


def test_gate_rejects_a_missing_summary_row(tmp_path):
    failed, broken, _ = gate.gate(write_run(tmp_path / "a", verdicts=("PASS",)), 2)
    assert failed == broken == {1}


def test_gate_rejects_a_nonzero_monitor(tmp_path):
    failed, broken, problems = gate.gate(write_run(tmp_path / "a", monitor=1), 2)
    assert failed == broken == {0, 1} and "creep_with_undershoot" in problems[0]


def test_gate_rejects_a_changed_csv_byte(tmp_path):
    ref = write_run(tmp_path / "a")
    failed, broken, problems = gate.gate(write_run(tmp_path / "b", detail="a,b\n1,3\n"), 2,
                                         ref_dir=ref)
    assert failed == broken == {0} and "check00_x.csv" in problems[0]


def test_gate_attributes_a_changed_summary_row(tmp_path):
    ref = write_run(tmp_path / "a")
    out = write_run(tmp_path / "b")
    with open(os.path.join(out, "reports.csv"), "r+") as fh:
        text = fh.read().replace("chk1,P1,abc,0.1", "chk1,P1,abc,0.2")
        fh.seek(0)
        fh.write(text)
    assert gate.gate(out, 2, ref_dir=ref)[:2] == ({1}, {1})
    with open(os.path.join(out, "reports.csv"), "r+") as fh:
        text = fh.read().replace("se_lhs", "se_LHS")
        fh.seek(0)
        fh.write(text)
    assert gate.gate(out, 2, ref_dir=ref)[:2] == ({0, 1}, {0, 1})


def test_gate_rejects_a_run_that_raised(tmp_path):
    failed, broken, problems = gate.gate(str(tmp_path), 2, error="ValueError: boom")
    assert failed == broken == {0, 1} and "boom" in problems[0]


# ---------------------------------------------------------------- tracer

SMALL_CONFIG = {
    "seed": 5,
    "checks": [
        {"name": "p-estimate", "fixture": "P1", "t": 0.3, "u": [0.5], "n": 3000},
        {"name": "V-grid", "fixture": "B1", "t": [0.5], "u": [0.5], "n": 3000},
    ],
}


def run_worker(tmp_path, tag, trace):
    config = dict(SMALL_CONFIG, out=str(tmp_path / tag))
    request = {"config": config, "result": str(tmp_path / f"{tag}.json"),
               "trace": str(tmp_path / f"{tag}.spans.json") if trace else None, "run_id": tag}
    req = tmp_path / f"{tag}.request.json"
    req.write_text(json.dumps(request))
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--run", str(req)],
                   check=True, timeout=120)
    result = json.loads((tmp_path / f"{tag}.json").read_text())
    spans = json.loads((tmp_path / f"{tag}.spans.json").read_text())["spans"] if trace else None
    return result, spans, str(tmp_path / tag)


def test_tracing_leaves_outputs_identical_and_counts_repeat(tmp_path):
    plain, _, plain_dir = run_worker(tmp_path, "plain", trace=False)
    assert plain["error"] is None and len(plain["lines"]) == 2
    counts = []
    for tag in ("t1", "t2"):
        result, spans, out = run_worker(tmp_path, tag, trace=True)
        assert gate.gate(out, 2, result["error"], ref_dir=plain_dir) == (set(), set(), [])
        m = tracing.layer_metrics(spans, result["wall_s"])
        assert m["processes.draw_calls"] > 0 and m["rng.chunks"] > 0
        assert m["passage.draw_calls"] + m["renewal.draw_calls"] == m["processes.draw_calls"]
        assert m["results.files"] == 5 and m["results.bytes"] > 0
        counts.append({k: m[k] for k in tracing.EXACT_COUNTS})
    assert counts[0] == counts[1]


def test_tracer_skips_missing_names_and_reports_empty_layers_as_zero():
    code = f"""
import sys
sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {HERE!r}]
import levyladder.passage, levyladder.rw_ladder
import tracing
levyladder.rw_ladder.__all__ = ["no_such_function"]
levyladder.passage.__all__ = list(levyladder.passage.__all__) + ["deleted_engine"]
t = tracing.Tracer("robust")
installed = tracing.install(t)
assert "passage.sample_passages" in installed
assert not any(n.startswith("rw_ladder.") for n in installed)
levyladder.passage.estimate_p(levyladder.P1, 0.3, 0.5, 100,
                              levyladder.RngPolicy(1), 1)
m = tracing.layer_metrics(t.spans, 1.0)
assert m["rw_ladder.calls"] == 0 and m["rw_ladder.busy_s"] == 0.0
assert m["passage.calls"] >= 1 and m["processes.draw_calls"] > 0
"""
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)

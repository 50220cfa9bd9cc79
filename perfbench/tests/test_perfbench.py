"""Smoke-size self-tests of the benchmark (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import checks, includes_gen, run, tracing  # noqa: E402
from perfbench.measure import layer_metrics  # noqa: E402
from perfbench.workloads import Run, Spec, SPECS  # noqa: E402

PAGE0 = "pages/g00/wbl_page_0000.php"
PAGE1 = "pages/g00/wbl_page_0001.php"

#: generate(1, n_libs=8, n_pages=2), read off its text by hand.  Chains
#: 5->7->2->1 and 0->3->4->6, the second closed by 6 include_once 0.
#: Page 0 includes libs 0, 2, 5: wbl_find_0 is raw (lib 0 line 7),
#: wbl_get_5 is raw (page line 11), wbl_show_5 is raw (lib 5 line 6); the
#: get chains of 0 (via 3) and 2 (via 1) are sanitized, $wbl_cfg_0 is a
#: literal.  Page 1 includes 1, 3, 7: only wbl_show_7 and wbl_find_7 (lib
#: 7 lines 6 and 7) are raw.  Project mode reports the lib sinks once,
#: under the library.
HAND_TREE = Counter({
    (PAGE0, 6, "xss"): 1, (PAGE0, 7, "sqli"): 1, (PAGE0, 11, "xss"): 1,
    (PAGE1, 6, "xss"): 1, (PAGE1, 7, "sqli"): 1,
})
HAND_PROJECT = Counter({
    ("lib/wbl_lib_000.php", 7, "sqli"): 1,
    ("lib/wbl_lib_005.php", 6, "xss"): 1,
    ("lib/wbl_lib_007.php", 6, "xss"): 1,
    ("lib/wbl_lib_007.php", 7, "sqli"): 1,
    (PAGE0, 11, "xss"): 1,
})
#: generate(5, n_libs=4, n_pages=2): chain 0->2->1->3.  Page 0 (libs 0, 1,
#: 2) echoes the raw wbl_get_1 (line 7), calls the raw wbl_show_1 (lib 1
#: line 6) and echoes the tainted global $wbl_cfg_2 (line 14), which only
#: tree mode sees; page 1 (libs 1, 2, 3) echoes wbl_get_1 (line 6) and
#: wbl_get_3 (line 11).
HAND_TREE_4 = Counter({
    (PAGE0, 6, "xss"): 1, (PAGE0, 7, "xss"): 1, (PAGE0, 14, "xss"): 1,
    (PAGE1, 6, "xss"): 1, (PAGE1, 11, "xss"): 1,
})
HAND_PROJECT_4 = Counter({
    ("lib/wbl_lib_001.php", 6, "xss"): 1, (PAGE0, 7, "xss"): 1,
    (PAGE1, 6, "xss"): 1, (PAGE1, 11, "xss"): 1,
})

#: every metric the benchmark was specified to emit, by kind
NAMED_END_TO_END = {
    "setup_s", "cold_scan_s", "cold_scan_jobs2_s", "warm_scan_s",
    "summary_warm_scan_s", "project_scan_s", "fix_s", "edit_p50_ms",
    "edit_p90_ms", "noop_rescan_ms", "peak_rss_mb",
}
NAMED_PER_LAYER = {
    "php.lex_calls", "php.lex_s", "php.parse_calls", "php.parse_s",
    "php.parses_per_unique_content", "php.ast_cache_hit_rate",
    "includes.build_s", "includes.update_s", "includes.files_parsed",
    "includes.edges_resolved", "includes.edges_per_parsed_file",
    "prefilter.classify_s", "prefilter.skip_rate",
    "ir.lower_calls", "ir.lower_s",
    "engine.detect_calls", "engine.detect_self_s", "engine.candidates",
    "summaries.hit_rate", "summaries.get_s", "summaries.put_s",
    "pipeline.discover_s", "pipeline.hash_s", "pipeline.result_hit_rate",
    "pipeline.cache_get_s", "pipeline.cache_put_s", "pipeline.flush_s",
    "mining.train_s", "mining.predict_calls", "mining.predict_s",
    "mining.memo_hit_rate",
    "corrector.correct_calls", "corrector.correct_s",
    "corrector.applied_per_real",
    "api.scan_s", "api.dirty_files", "api.analyzed_files",
    "api.reused_files",
    "service.handle_s", "service.report_encode_s", "service.response_bytes",
    "service.client_decode_s", "service.queue_wait_s",
    "tool.predict_phase_s", "tool.report_build_s",
    "trace.other_share", "trace.overhead", "error_rate",
}


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# -- generator -------------------------------------------------------------

def test_generator_is_byte_identical_per_seed():
    a = includes_gen.generate(7, n_libs=10, n_pages=60)
    b = includes_gen.generate(7, n_libs=10, n_pages=60)
    assert a.files == b.files
    assert a.tree == b.tree and a.project == b.project
    assert includes_gen.generate(8, n_libs=10, n_pages=60).files != a.files


def test_generator_writes_the_same_bytes(tmp_path):
    project = includes_gen.generate(3, n_libs=6, n_pages=20)
    project.write(str(tmp_path / "a"))
    project.write(str(tmp_path / "b"))

    def digest(root):
        out = {}
        for path in sorted(glob.glob(f"{root}/**/*.php", recursive=True)):
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = \
                    hashlib.sha256(f.read()).hexdigest()
        return out

    assert digest(tmp_path / "a") == digest(tmp_path / "b")
    assert len(digest(tmp_path / "a")) == 26


def test_hand_checked_small_projects():
    project = includes_gen.generate(1, n_libs=8, n_pages=2)
    assert project.tree == HAND_TREE
    assert project.project == HAND_PROJECT
    pages = "".join(project.files[p] for p in project.pages)
    for form in ("'../../lib/", "__DIR__ . '", "dirname(__FILE__) . '",
                 "include ", "include_once ", "require ", "require_once "):
        assert form in pages
    assert "include_once 'wbl_lib_000.php'" in \
        project.files["lib/wbl_lib_006.php"]  # the cycle's back edge
    small = includes_gen.generate(5, n_libs=4, n_pages=2)
    assert small.tree == HAND_TREE_4
    assert small.project == HAND_PROJECT_4


def test_generated_work_does_not_depend_on_the_seed():
    projects = [includes_gen.generate(seed, n_libs=20, n_pages=400)
                for seed in range(4)]
    assert len({(len(p.files), p.loc) for p in projects}) == 1
    findings = [sum(p.tree.values()) for p in projects]
    assert max(findings) <= 1.1 * min(findings)


# -- checkers ----------------------------------------------------------------

def test_includes_checker_rejects_one_finding_removed_or_added():
    totals = {"real": 0, "fp": 0, "parse_errors": 0, "by_group": {}}
    assert checks.includes_problems(Counter(HAND_TREE), HAND_TREE,
                                    totals) == []
    removed = Counter(HAND_TREE)
    removed[(PAGE0, 11, "xss")] -= 1
    assert checks.includes_problems(+removed, HAND_TREE, totals)
    added = Counter(HAND_TREE)
    added[(PAGE1, 3, "xss")] += 1
    assert checks.includes_problems(added, HAND_TREE, totals)


def test_dict_findings_reads_a_json_report():
    data = {"files": [{"path": "/r/" + PAGE0, "findings": [
        {"class": "xss", "sink_line": 12, "verdict": "real"},
        {"class": "xss", "sink_line": 9, "verdict": "false_positive"}]}]}
    assert checks.dict_findings(data, "/r") == Counter({(PAGE0, 12, "xss"): 1})


def test_corpus_checker_rejects_one_finding_removed_or_added():
    real, fps, groups = checks._paper()
    assert (real, fps) == (602, 107)
    by_group = dict(groups)
    by_group["SQLI"] += 20  # the custom-sanitizer FPs WAPe reports as real
    good = {"real": 602, "fp": 107, "parse_errors": 0, "by_group": by_group}
    assert checks.corpus_problems(good) == []
    for delta in (-1, 1):
        bad = dict(good, real=602 + delta,
                   by_group=dict(by_group, XSS=by_group["XSS"] + delta))
        assert checks.corpus_problems(bad)
    assert checks.corpus_problems(dict(good, parse_errors=1))
    assert checks.corpus_problems(dict(good, fp=106))


# -- metric names ------------------------------------------------------------

def test_benchmark_json_lists_every_metric_with_its_unit():
    bench = _benchmark_json()
    assert {w["name"] for w in bench["workloads"]} == set(SPECS)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert NAMED_END_TO_END <= set(e2e)
    assert e2e == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert NAMED_PER_LAYER <= set(per_layer)
    for name, unit in per_layer.items():
        assert unit == run.layer_unit(name), name


def test_normalized_scales_each_sample_by_its_host_probe():
    ref = run.REFERENCE_PROBE_S
    slow = 2 ** -run.PROBE_EXPONENT
    assert run.normalized([0.5, 1.0], [ref, 2 * ref]) == [0.5, slow]
    assert run.normalized([], []) == [0.0]
    setup = {"setup_s": 3.0, "spawn_probe": ref, "setup_probe": 2 * ref}
    assert run._setup_seconds(setup) == 3.0 * slow  # the slower probe


def test_end_to_end_emits_every_metric_with_its_unit():
    ref = run.REFERENCE_PROBE_S
    samples = {key: [1.0, 2.0, 3.0] for key in (
        "cold_scan_s", "cold_scan_jobs2_s", "warm_scan_s",
        "summary_warm_scan_s", "project_scan_s", "fix_s", "append_ms",
        "lib_ms", "noop_ms")}
    result = {"samples": samples,
              "probes": {key: [ref, 2 * ref, 3 * ref] for key in samples},
              "peak_rss_mb": 100.0}
    metrics = run._end_to_end(result, [4.0, 5.0, 6.0])
    assert {name: m["unit"] for name, m in metrics.items()} == \
        run.END_TO_END
    assert metrics["setup_s"]["value"] == 5.0
    assert metrics["cold_scan_s"]["value"] == \
        sorted(run.normalized([1.0, 2.0, 3.0], [ref, 2 * ref, 3 * ref]))[1]
    assert all(m["value"] > 0 for m in metrics.values())


def test_layer_metrics_emit_every_per_layer_metric():
    rec = tracing.Recorder()
    dummy = SimpleNamespace(queue_seconds=[], failures=[], attempted=1)
    stats = {f"stats.{p}_count": 0 for p in ("lex", "parse", "lower")}
    stats.update({f"stats.outside_{p}_calls": 0
                  for p in ("lex", "parse", "lower")})
    names = set(layer_metrics(rec, dummy, 0.0, 0.0, stats))
    assert names == {m["name"] for m in _benchmark_json()["per_layer"]}


# -- a smoke run through the real program -------------------------------------

SMOKE = Spec(libs=8, pages=2, rounds=1, appends=6, noops=1, reverts=1)


def _bench_files() -> dict:
    paths = glob.glob(os.path.join(ROOT, "benchmarks", "bench_*.py")) \
        + glob.glob(os.path.join(ROOT, "BENCH_*.json"))
    out = {}
    for path in sorted(paths):
        with open(path, "rb") as f:
            out[path] = (os.stat(path).st_mtime_ns,
                         hashlib.sha256(f.read()).hexdigest())
    return out


@pytest.fixture(scope="module")
def tool():
    from repro.tool import Wape
    from perfbench.workloads import WEAPON_FLAGS
    return Wape(list(WEAPON_FLAGS))


def test_smoke_run_checks_every_operation(tool, tmp_path, monkeypatch):
    before = _bench_files()
    monkeypatch.setitem(SPECS, "smoke", SMOKE)
    bench = Run("smoke", 1, str(tmp_path), tool)
    bench.build_inputs()
    assert bench.project.tree == HAND_TREE  # same seed and size
    try:
        bench.measured(0.0)
    finally:
        bench.stop_daemon()
    assert bench.failures == []
    for metric in ("cold_scan_s", "cold_scan_jobs2_s", "warm_scan_s",
                   "summary_warm_scan_s", "project_scan_s", "fix_s",
                   "append_ms", "lib_ms", "revert_ms", "noop_ms"):
        assert bench.samples.get(metric), metric
    assert bench.attempted >= 18
    assert _bench_files() == before


def test_tool_agrees_with_the_hand_checked_project(tool, tmp_path):
    from repro.analysis.options import ScanOptions

    includes_gen.generate(5, n_libs=4, n_pages=2).write(str(tmp_path))
    tree = tool.analyze_tree(str(tmp_path), ScanOptions(jobs=1))
    assert checks.tree_findings(tree, str(tmp_path)) == HAND_TREE_4
    project = tool.analyze_project(str(tmp_path))
    assert checks.project_findings(project, str(tmp_path)) == HAND_PROJECT_4


def test_smoke_run_counts_a_wrong_report(tool, tmp_path, monkeypatch):
    monkeypatch.setitem(SPECS, "smoke", SMOKE)
    bench = Run("smoke", 1, str(tmp_path), tool)
    bench.build_inputs()
    bench.project.tree[(PAGE1, 3, "xss")] += 1  # a finding nobody planted
    bench.batch(1)
    # every tree scan of the round reports the unplanted finding missing
    assert {f.split(":")[0] for f in bench.failures} == \
        {"cold", "warm", "cold_jobs2", "summary_warm"}
    for metric in ("cold_scan_s", "warm_scan_s", "cold_scan_jobs2_s",
                   "summary_warm_scan_s"):
        assert metric not in bench.samples
    assert bench.samples["project_scan_s"]  # project mode is unaffected

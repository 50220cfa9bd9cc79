"""Whole-project analysis through the include graph (ISSUE 3 tentpole).

Taint entering in one file must reach sinks in another when the files are
linked by a statically resolvable ``include``/``require``; unresolvable
(dynamic) targets fall back to per-file analysis without error; the
result cache treats a file's include closure as part of its identity.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.includes import (
    IncludeGraph,
    IncludeResolver,
    build_include_graph,
)
from repro.analysis.pipeline import ScanScheduler
from repro.php import parse
from repro.tool import Wape
from repro.analysis.options import ScanOptions


def write_tree(tmp_path, files: dict[str, str]) -> str:
    for name, text in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return str(tmp_path)


def xss_in(report, filename: str):
    return [o for o in report.outcomes
            if o.vuln_class == "xss"
            and o.candidate.filename.endswith(filename)]


# ---------------------------------------------------------------------------
# resolver
# ---------------------------------------------------------------------------

class TestIncludeResolver:
    def include_expr(self, snippet: str):
        program = parse(f"<?php include {snippet};", "t.php")
        return program.body[0].expr.expr  # the Include node's target

    def resolver(self, tmp_path, files):
        write_tree(tmp_path, files)
        return IncludeResolver(
            [str(tmp_path / name) for name in files])

    def test_literal_relative_path(self, tmp_path):
        r = self.resolver(tmp_path, {"a.php": "", "lib/b.php": ""})
        got = r.resolve(self.include_expr("'lib/b.php'"),
                        str(tmp_path / "a.php"))
        assert got == str(tmp_path / "lib" / "b.php")

    def test_dir_constant_concat(self, tmp_path):
        r = self.resolver(tmp_path, {"a.php": "", "lib/b.php": ""})
        got = r.resolve(self.include_expr("__DIR__ . '/lib/b.php'"),
                        str(tmp_path / "a.php"))
        assert got == str(tmp_path / "lib" / "b.php")

    def test_dirname_file_concat(self, tmp_path):
        r = self.resolver(tmp_path, {"a.php": "", "lib/b.php": ""})
        got = r.resolve(
            self.include_expr("dirname(__FILE__) . '/lib/b.php'"),
            str(tmp_path / "a.php"))
        assert got == str(tmp_path / "lib" / "b.php")

    def test_unique_basename_fallback(self, tmp_path):
        r = self.resolver(tmp_path, {"pages/a.php": "", "lib/util.php": ""})
        got = r.resolve(self.include_expr("'../nonexistent/util.php'"),
                        str(tmp_path / "pages" / "a.php"))
        assert got == str(tmp_path / "lib" / "util.php")

    def test_ambiguous_basename_unresolved(self, tmp_path):
        r = self.resolver(tmp_path, {
            "a.php": "", "x/util.php": "", "y/util.php": ""})
        got = r.resolve(self.include_expr("'missing/util.php'"),
                        str(tmp_path / "a.php"))
        assert got is None

    def test_dynamic_target_unresolved(self, tmp_path):
        r = self.resolver(tmp_path, {"a.php": "", "b.php": ""})
        assert r.resolve(self.include_expr("$page"),
                         str(tmp_path / "a.php")) is None
        assert r.resolve(self.include_expr("'tpl/' . $_GET['t']"),
                         str(tmp_path / "a.php")) is None

    def test_build_counts_and_edges(self, tmp_path):
        root = write_tree(tmp_path, {
            "main.php": "<?php require 'lib.php'; include $dyn;",
            "lib.php": "<?php function f() { return 1; }",
        })
        graph = build_include_graph(
            [os.path.join(root, "main.php"), os.path.join(root, "lib.php")])
        main = os.path.join(root, "main.php")
        assert graph.deps[main] == (os.path.join(root, "lib.php"),)
        assert graph.resolved[main] == 1
        assert graph.unresolved[main] == 1


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

class TestIncludeGraph:
    def test_closure_is_transitive_and_cycle_safe(self):
        graph = IncludeGraph(deps={
            "a": ("b",), "b": ("c",), "c": ("a",)})
        assert graph.closure("a") == ("b", "c")
        assert graph.closure("c") == ("a", "b")

    def test_components_group_linked_files(self):
        graph = IncludeGraph(deps={"a": ("b",), "c": ("d",)})
        groups = graph.components(["a", "b", "c", "d", "e"])
        assert groups == [["a", "b"], ["c", "d"], ["e"]]


# ---------------------------------------------------------------------------
# cross-file taint
# ---------------------------------------------------------------------------

class TestCrossFileTaint:
    TAINTED = {
        "lib.php": ("<?php function getq() { return $_GET['q']; } ?>"),
        "main.php": ("<?php include 'lib.php';\n"
                     "echo getq(); ?>"),
    }

    def test_included_source_function_flags_xss(self, tmp_path):
        root = write_tree(tmp_path, self.TAINTED)
        report = Wape().analyze_tree(root, ScanOptions(jobs=1))
        hits = xss_in(report, "main.php")
        assert hits, "cross-file flow not detected"

    def test_provenance_spans_both_files(self, tmp_path):
        root = write_tree(tmp_path, self.TAINTED)
        report = Wape().analyze_tree(root, ScanOptions(jobs=1))
        cand = xss_in(report, "main.php")[0].candidate
        files = {s.file for s in cand.path if s.file}
        assert any(f.endswith("lib.php") for f in files)
        # the source hop is attributed to the included file
        source = next(s for s in cand.path if s.kind == "source")
        assert source.file.endswith("lib.php")

    def test_included_sanitizer_suppresses(self, tmp_path):
        root = write_tree(tmp_path, {
            "lib.php": ("<?php function getq() "
                        "{ return htmlentities($_GET['q']); } ?>"),
            "main.php": "<?php include 'lib.php'; echo getq(); ?>",
        })
        report = Wape().analyze_tree(root, ScanOptions(jobs=1))
        assert not xss_in(report, "main.php")

    def test_propagated_global_state(self, tmp_path):
        root = write_tree(tmp_path, {
            "glob.php": "<?php $v = $_POST['x']; ?>",
            "use.php": "<?php require 'glob.php'; echo $v; ?>",
        })
        report = Wape().analyze_tree(root, ScanOptions(jobs=1))
        assert xss_in(report, "use.php")

    def test_include_once_cycle_terminates(self, tmp_path):
        root = write_tree(tmp_path, {
            "a.php": ("<?php include_once 'b.php';\n"
                      "$t = $_GET['t']; ?>"),
            "b.php": ("<?php include_once 'a.php';\n"
                      "echo $t; ?>"),
        })
        report = Wape().analyze_tree(root, ScanOptions(jobs=1))
        # analysis must terminate; b.php sees a.php's tainted global
        assert xss_in(report, "b.php")

    def test_unresolvable_dynamic_include_falls_back(self, tmp_path):
        root = write_tree(tmp_path, {
            "main.php": ("<?php include $_GET['page'];\n"
                         "echo $_GET['q']; ?>"),
        })
        report = Wape().analyze_tree(root, ScanOptions(jobs=1))
        # no crash, the per-file flows still reported, counted unresolved
        assert xss_in(report, "main.php")
        entry = report.files[0]
        assert entry.resolved_includes == 0
        assert entry.unresolved_includes == 1

    def test_no_includes_disables_cross_file(self, tmp_path):
        root = write_tree(tmp_path, self.TAINTED)
        on = Wape().analyze_tree(root, ScanOptions(jobs=1))
        off = Wape().analyze_tree(root, ScanOptions(jobs=1, includes=False))
        assert xss_in(on, "main.php")
        assert not xss_in(off, "main.php")

    def test_parallel_matches_sequential(self, tmp_path):
        root = write_tree(tmp_path, {
            **self.TAINTED,
            "glob.php": "<?php $v = $_POST['x']; ?>",
            "use.php": "<?php require 'glob.php'; echo $v; ?>",
            "plain.php": "<?php echo $_GET['z']; ?>",
        })
        seq = Wape().analyze_tree(root, ScanOptions(jobs=1))
        par = Wape().analyze_tree(root, ScanOptions(jobs=3))
        assert sorted(o.candidate.key() for o in seq.outcomes) \
            == sorted(o.candidate.key() for o in par.outcomes)


# ---------------------------------------------------------------------------
# cache interaction
# ---------------------------------------------------------------------------

class TestIncludeCacheInvalidation:
    def test_edit_to_included_file_invalidates_includer(self, tmp_path):
        tree = tmp_path / "tree"
        root = write_tree(tree, {
            "lib.php": "<?php function getq() { return 'safe'; } ?>",
            "main.php": "<?php include 'lib.php'; echo getq(); ?>",
        })
        cache = str(tmp_path / "cache")
        tool = Wape()
        first = tool.analyze_tree(root, ScanOptions(jobs=1, cache_dir=cache))
        assert not xss_in(first, "main.php")

        # the edited dependency now returns attacker input: main.php must
        # be re-analyzed even though its own bytes did not change
        (tree / "lib.php").write_text(
            "<?php function getq() { return $_GET['q']; } ?>")
        scheduler = ScanScheduler(tool._config_groups(), tool_version=tool.version, options=ScanOptions(jobs=1, cache_dir=cache))
        results = scheduler.scan_tree(root)
        main = next(r for r in results if r.filename.endswith("main.php"))
        assert main.candidates, "stale cache served after include edit"
        second = tool.analyze_tree(root, ScanOptions(jobs=1, cache_dir=cache))
        assert xss_in(second, "main.php")

    def test_unrelated_file_still_hits(self, tmp_path):
        tree = tmp_path / "tree"
        root = write_tree(tree, {
            "lib.php": "<?php function getq() { return 'safe'; } ?>",
            "main.php": "<?php include 'lib.php'; echo getq(); ?>",
            # other.php mentions a source so the prefilter analyzes
            # (and caches) it; a marker-free file would be skipped
            # outright and never enter the cache at all
            "other.php": "<?php echo $_GET['other']; ?>",
        })
        cache = str(tmp_path / "cache")
        tool = Wape()
        tool.analyze_tree(root, ScanOptions(jobs=1, cache_dir=cache))

        (tree / "lib.php").write_text(
            "<?php function getq() { return $_GET['q']; } ?>")
        scheduler = ScanScheduler(tool._config_groups(), tool_version=tool.version, options=ScanOptions(jobs=1, cache_dir=cache))
        scheduler.scan_tree(root)
        # other.php has no include edge to lib.php: still served cached
        assert scheduler.cache.stats().hits >= 1
        # main.php misses (its closure changed); lib.php is dep-only
        # under the prefilter — parsed lazily for its summary, not a
        # scan unit of its own
        assert scheduler.cache.stats().misses >= 1


# ---------------------------------------------------------------------------
# report surface
# ---------------------------------------------------------------------------

class TestReportSurface:
    def test_json_report_carries_include_counters_and_hop_files(
            self, tmp_path):
        root = write_tree(tmp_path, TestCrossFileTaint.TAINTED)
        report = Wape().analyze_tree(root, ScanOptions(jobs=1))
        data = report.to_dict()
        assert data["summary"]["resolved_includes"] == 1
        assert data["summary"]["unresolved_includes"] == 0
        main = next(f for f in data["files"]
                    if f["path"].endswith("main.php"))
        hop_files = [s["file"] for finding in main["findings"]
                     for s in finding["path"] if "file" in s]
        assert any(f.endswith("lib.php") for f in hop_files)

    def test_stats_footer_counts(self, tmp_path):
        from repro.telemetry import Telemetry
        from repro.telemetry.stats import build_scan_stats

        root = write_tree(tmp_path, TestCrossFileTaint.TAINTED)
        telemetry = Telemetry(enabled=True)
        report = Wape().analyze_tree(root, ScanOptions(jobs=1, telemetry=telemetry))
        assert report.stats is not None
        assert report.stats.resolved_includes == 1
        assert "includes: 1 resolved" in report.stats.render()

    def test_explain_provenance_marks_foreign_hops(self, tmp_path):
        from repro.telemetry.provenance import build_provenance

        root = write_tree(tmp_path, TestCrossFileTaint.TAINTED)
        report = Wape().analyze_tree(root, ScanOptions(jobs=1))
        outcome = xss_in(report, "main.php")[0]
        prov = build_provenance(outcome.candidate, outcome.prediction)
        foreign = [e for e in prov.events if e.file]
        assert foreign and foreign[0].file.endswith("lib.php")
        assert "lib.php" in prov.render()

"""Parse-once frontend: AstStore identity and the on-disk AST cache.

The tentpole guarantee of ISSUE 5: one scan lexes and parses each unique
file content exactly once.  The include resolver, the include context and
the fused detector all draw from one shared :class:`repro.php.AstStore`,
so the resolve phase hands its ASTs to the scan phase.  These tests pin
that property down by counting actual ``Parser.parse_program`` calls,
not just the telemetry counters that report it.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.options import ScanOptions
from repro.analysis.pipeline import ScanScheduler
from repro.exceptions import PhpSyntaxError
from repro.php import AstCache, AstStore, Parser
from repro.php.parser import parse_with_recovery


VULN = "<?php $q = $_GET['q']; echo $q;\n"
CLEAN = "<?php echo htmlentities($_GET['x']);\n"


# ---------------------------------------------------------------------------
# AstStore unit behavior
# ---------------------------------------------------------------------------

class TestAstStore:
    def test_memory_memo_parses_each_content_once(self, monkeypatch):
        calls = []
        original = Parser.parse_program

        def counted(self):
            calls.append(self.filename)
            return original(self)

        monkeypatch.setattr(Parser, "parse_program", counted)
        store = AstStore()
        store.parse_recovering(VULN, "a.php")
        store.parse_recovering(VULN, "b.php")   # same content, other path
        store.parse_recovering(CLEAN, "c.php")
        assert calls == ["a.php", "c.php"]
        assert store.parses == 2
        assert store.reparse_avoided == 1

    def test_results_match_parse_with_recovery(self):
        store = AstStore()
        program, warnings = store.parse_recovering(VULN, "a.php")
        direct_program, direct_warnings = parse_with_recovery(
            VULN, "a.php")
        assert type(program).__name__ == "Program"
        assert len(program.body) == len(direct_program.body)
        assert warnings == direct_warnings == []

    def test_warnings_reattributed_to_requesting_filename(self):
        damaged = "<?php $a = = 1;\necho 'ok';\n"
        store = AstStore()
        _, first = store.parse_recovering(damaged, "first.php")
        _, second = store.parse_recovering(damaged, "second.php")
        assert first[0].filename == "first.php"
        assert second[0].filename == "second.php"
        assert (first[0].message, first[0].line) == \
            (second[0].message, second[0].line)

    def test_fatal_errors_are_memoized_and_reraised(self, monkeypatch):
        import repro.php.parser as parser_module

        calls = []
        original = parser_module.tokenize

        def counted(source, filename="<source>"):
            calls.append(filename)
            return original(source, filename)

        # the error below is a *lexer* error, so count tokenize calls
        monkeypatch.setattr(parser_module, "tokenize", counted)
        store = AstStore()
        broken = '<?php echo "unterminated;'  # lexer errors stay fatal
        with pytest.raises(PhpSyntaxError) as first:
            store.parse_recovering(broken, "a.php")
        with pytest.raises(PhpSyntaxError) as second:
            store.parse_recovering(broken, "b.php")
        assert calls == ["a.php"]  # the hit re-raises without re-lexing
        assert first.value.filename == "a.php"
        assert second.value.filename == "b.php"
        assert first.value.message == second.value.message

    def test_metrics_sink_receives_counters(self):
        from repro.telemetry.metrics import Metrics

        metrics = Metrics()
        store = AstStore(metrics=metrics)
        store.parse_recovering(VULN, "a.php")
        store.parse_recovering(VULN, "b.php")
        assert metrics.counter("frontend_reparse_avoided").value == 1


# ---------------------------------------------------------------------------
# the on-disk tier
# ---------------------------------------------------------------------------

class TestAstCache:
    def test_disk_roundtrip_across_stores(self, tmp_path):
        cold = AstStore(disk=AstCache(str(tmp_path)))
        cold.parse_recovering(VULN, "a.php")
        assert cold.disk.puts == 1
        cold.flush()  # puts are buffered until the per-scan flush

        warm = AstStore(disk=AstCache(str(tmp_path)))
        program, warnings = warm.parse_recovering(VULN, "other.php")
        assert warm.parses == 0 and warm.disk_hits == 1
        assert len(program.body) == 2
        assert warnings == []

    def test_error_entries_roundtrip(self, tmp_path):
        broken = '<?php echo "unterminated;'  # lexer errors stay fatal
        cold = AstStore(disk=AstCache(str(tmp_path)))
        with pytest.raises(PhpSyntaxError):
            cold.parse_recovering(broken, "a.php")
        cold.flush()

        warm = AstStore(disk=AstCache(str(tmp_path)))
        with pytest.raises(PhpSyntaxError) as exc:
            warm.parse_recovering(broken, "b.php")
        assert warm.parses == 0
        assert exc.value.filename == "b.php"

    def test_corrupt_entry_is_evicted_then_reparsed(self, tmp_path):
        cache = AstCache(str(tmp_path))
        store = AstStore(disk=cache)
        store.parse_recovering(VULN, "a.php")
        key = AstStore.source_key(VULN)
        entry = os.path.join(cache.directory, key + ".pkl")
        with open(entry, "wb") as f:
            f.write(b"not a pickle")

        fresh = AstStore(disk=AstCache(str(tmp_path)))
        fresh.parse_recovering(VULN, "a.php")
        assert fresh.parses == 1          # reparsed, not served corrupt
        assert fresh.disk.evictions == 1
        assert not os.path.exists(entry) or fresh.disk.puts == 1

    def test_format_version_partitions_the_directory(self, tmp_path):
        from repro.php import AST_FORMAT

        cache = AstCache(str(tmp_path))
        assert cache.directory.endswith(f"ast-v{AST_FORMAT}")


# ---------------------------------------------------------------------------
# pipeline identity: resolve + scan share one store
# ---------------------------------------------------------------------------

def _write_project(root) -> None:
    (root / "lib.php").write_text(
        "<?php function q($x) { return $x; }\n")
    (root / "index.php").write_text(
        "<?php include 'lib.php'; $q = $_GET['q']; echo q($q);\n")
    (root / "admin.php").write_text(
        "<?php require 'lib.php'; echo q($_GET['id']);\n")
    (root / "copy.php").write_text(          # duplicate content of lib
        "<?php function q($x) { return $x; }\n")


class TestPipelineParseOnce:
    def test_scan_parses_each_unique_content_once(self, tmp_path,
                                                  monkeypatch):
        from repro.telemetry import Telemetry
        from repro.tool import Wape

        project = tmp_path / "proj"
        project.mkdir()
        _write_project(project)

        # build the tool BEFORE counting: predictor training and
        # knowledge loading may parse PHP of their own
        tool = Wape()
        calls: list[str] = []
        original = Parser.parse_program

        def counted(self):
            calls.append(self.filename)
            return original(self)

        monkeypatch.setattr(Parser, "parse_program", counted)
        telemetry = Telemetry()
        scheduler = ScanScheduler(
            tool._config_groups(), tool_version=tool.version,
            options=ScanOptions(jobs=1, telemetry=telemetry))
        tool.run_scheduler(scheduler, str(project))

        unique_contents = 3  # lib == copy byte-for-byte
        assert len(calls) == unique_contents, calls
        # include resolution lexed the two includers and parsed nothing:
        # every parse above is the scan phase's or its include context's
        counters = telemetry.metrics.counters
        assert counters["include_files_lexed"].value == 2
        assert counters["include_fallback_parses"].value == 0

    def test_scan_store_serves_include_dependencies(self, tmp_path,
                                                    monkeypatch):
        # IncludeContext's dependency parses must hit the store too
        from repro.tool import Wape

        project = tmp_path / "proj"
        project.mkdir()
        _write_project(project)
        tool = Wape()

        calls: list[str] = []
        original = Parser.parse_program

        def counted(self):
            calls.append(self.filename)
            return original(self)

        monkeypatch.setattr(Parser, "parse_program", counted)
        report = tool.analyze_tree(str(project), ScanOptions(jobs=1))
        assert len(calls) == 3
        assert any(o.vuln_class == "xss"
                   for entry in report.files for o in entry.outcomes)

    def test_ast_cache_disabled_by_option(self, tmp_path):
        from repro.tool import Wape

        tool = Wape()
        cache_dir = str(tmp_path / "cache")
        on = ScanScheduler(tool._config_groups(),
                           tool_version=tool.version,
                           options=ScanOptions(cache_dir=cache_dir))
        off = ScanScheduler(tool._config_groups(),
                            tool_version=tool.version,
                            options=ScanOptions(cache_dir=cache_dir,
                                                ast_cache=False))
        none = ScanScheduler(tool._config_groups(),
                             tool_version=tool.version,
                             options=ScanOptions())
        assert on.ast_store.disk is not None
        assert off.ast_store.disk is None
        assert none.ast_store.disk is None

    def test_cli_no_ast_cache_flag(self, tmp_path, capsys):
        from repro.tool.cli import main

        project = tmp_path / "proj"
        project.mkdir()
        _write_project(project)
        cache_dir = str(tmp_path / "cache")
        code = main(["--cache-dir", cache_dir, "--no-ast-cache",
                     "--quiet", str(project)])
        assert code in (0, 1)  # findings exist -> non-zero policies vary
        assert not any(name.startswith("ast-v")
                       for name in os.listdir(cache_dir))
        code = main(["--cache-dir", cache_dir, "--quiet", str(project)])
        assert any(name.startswith("ast-v")
                   for name in os.listdir(cache_dir))

    def test_scan_populates_disk_tier_for_later_consumers(self, tmp_path):
        from repro.telemetry.metrics import Metrics
        from repro.tool import Wape

        project = tmp_path / "proj"
        project.mkdir()
        _write_project(project)
        tool = Wape()
        cache_dir = str(tmp_path / "cache")

        first = ScanScheduler(
            tool._config_groups(), tool_version=tool.version,
            options=ScanOptions(jobs=1, cache_dir=cache_dir))
        tool.run_scheduler(first, str(project))
        assert first.ast_cache.puts == 3  # one per unique content

        # a later frontend consumer over the same directory (a fresh
        # process, the daemon's warm path, ...) parses nothing: every
        # content is served from the on-disk tier.  (A full re-*scan* is
        # served even earlier, by the result cache + include-graph blob.)
        metrics = Metrics()
        warm = AstStore(disk=AstCache(cache_dir), metrics=metrics)
        for name in ("lib.php", "index.php", "admin.php", "copy.php"):
            warm.parse_recovering((project / name).read_text(), name)
        assert warm.parses == 0
        assert warm.disk_hits == 3       # copy.php reuses lib's entry
        assert warm.reparse_avoided == 1
        assert metrics.counters["ast_cache_hit"].value == 3

"""The one content-addressed store behind every cache kind.

* every kind of :data:`repro.php.ast_store.KINDS` shares one policy:
  round trip across processes, a corrupt blob is a miss plus an
  eviction that stays gone after the flush, a wrongly-shaped value
  (an older layout) is evicted, an unpicklable value is skipped;
* the on-disk layout a cold scan leaves: one pack per scope/kind;
* per-kind counts: a ``jobs=2`` scan reports the work its workers did.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.analysis.includes import IncludeGraph
from repro.analysis.options import ScanOptions
from repro.obs.ledger import build_record
from repro.php.ast_store import (
    AST_FORMAT,
    EVICTIONS,
    HITS,
    KINDS,
    MISSES,
    PUTS,
    PackFile,
    Store,
)
from repro.telemetry import Telemetry
from repro.tool import Wape

FP = "f" * 64

#: kind -> (a well-formed value, a value of the wrong shape, the pack
#: file it lives in, its key prefix)
CASES = {
    "result": ({"candidates": [], "lines_of_code": 3, "parse_error": None},
               ("not", "a dict"), f"{FP[:24]}/pack.pkl", ""),
    "verdict": ((True, False), {"not": "a verdict"},
                f"{FP[:24]}/pack.pkl", "prefilter-"),
    "graph": (IncludeGraph(deps={"/p/a.php": ("/p/b.php",)}),
              {"deps": {}}, f"{FP[:24]}/pack.pkl", "includes-"),
    "ast": ((None, (), ("unexpected end", 1, 2), None),
            ("stale", (), None),  # the 3-slot format-1 entry
            f"ast-v{AST_FORMAT}/pack.pkl", ""),
    "facts": ((("", "/a.php"),), ["not", "a tuple"],
              f"ast-v{AST_FORMAT}/facts.pkl", ""),
    "summary": (({"g": frozenset()}, {}), ({},),
                f"ast-v{AST_FORMAT}/sum-pack.pkl", ""),
}


def test_cases_cover_every_kind():
    assert sorted(CASES) == sorted(KINDS)


def _raw_pack(cache_dir, kind: str) -> tuple[PackFile, str]:
    _value, _wrong, where, prefix = CASES[kind]
    return PackFile(os.path.join(str(cache_dir), where)), prefix


@pytest.mark.parametrize("kind", KINDS)
class TestOnePolicy:
    def test_round_trip(self, kind, tmp_path):
        value = CASES[kind][0]
        store = Store(str(tmp_path), FP)
        assert store.get(kind, "k") is None
        store.put(kind, "k", value)
        store.flush()
        assert store.counts[kind] == [0, 1, 0, 1]

        fresh = Store(str(tmp_path), FP)
        assert fresh.get(kind, "k") == value
        assert fresh.counts[kind][HITS] == 1
        # the entry sits in the kind's own pack, under its prefix
        pack, prefix = _raw_pack(tmp_path, kind)
        assert pack.get(prefix + "k") is not None

    def test_corrupt_blob_is_a_miss_and_an_eviction(self, kind, tmp_path):
        Store(str(tmp_path), FP)  # creates the directories
        pack, prefix = _raw_pack(tmp_path, kind)
        pack.put(prefix + "k", b"\x80not a pickle")
        pack.flush()

        store = Store(str(tmp_path), FP)
        assert store.get(kind, "k") is None
        assert store.counts[kind][MISSES] == 1
        assert store.counts[kind][EVICTIONS] == 1
        store.flush()
        # gone from disk too: the next process pays nothing for it
        assert _raw_pack(tmp_path, kind)[0].get(prefix + "k") is None
        fresh = Store(str(tmp_path), FP)
        assert fresh.get(kind, "k") is None
        assert fresh.counts[kind][EVICTIONS] == 0

    def test_wrongly_shaped_value_is_evicted(self, kind, tmp_path):
        store = Store(str(tmp_path), FP)
        store.put(kind, "k", CASES[kind][1])
        store.flush()

        fresh = Store(str(tmp_path), FP)
        assert fresh.get(kind, "k") is None
        assert fresh.counts[kind][EVICTIONS] == 1
        assert fresh.get(kind, "k") is None  # discarded, not re-decoded
        assert fresh.counts[kind][EVICTIONS] == 1

    def test_unpicklable_value_is_skipped(self, kind, tmp_path):
        store = Store(str(tmp_path), FP)
        store.put(kind, "k", (lambda: None,))
        assert store.counts[kind][PUTS] == 0
        store.flush()
        assert Store(str(tmp_path), FP).get(kind, "k") is None


def test_kinds_sharing_a_pack_never_collide(tmp_path):
    store = Store(str(tmp_path), FP)
    store.put("result", "k", CASES["result"][0])
    store.put("verdict", "k", (True, True))
    store.flush()
    fresh = Store(str(tmp_path), FP)
    assert fresh.get("result", "k") == CASES["result"][0]
    assert fresh.get("verdict", "k") == (True, True)


def test_counts_are_taken_and_added(tmp_path):
    # a worker's take_counts() lands in the parent through add_counts()
    store = Store(str(tmp_path), FP)
    store.add_counts({"ast": [1, 2, 3, 4], "summary": [0, 1, 0, 1]})
    store.add_counts({"ast": [1, 0, 0, 0]})
    taken = store.take_counts()
    assert taken["ast"] == [2, 2, 3, 4] and taken["summary"] == [0, 1, 0, 1]
    assert store.counts["ast"] == [0, 0, 0, 0]


# ---------------------------------------------------------------------------
# layout and counts of real scans
# ---------------------------------------------------------------------------

def _write_project(root) -> None:
    (root / "lib.php").write_text(
        "<?php\n"
        "$prefix = $_GET['prefix'];\n"
        "function q($x) { return $x; }\n")
    (root / "index.php").write_text(
        "<?php include 'lib.php';\n"
        "echo q($_GET['q']);\n"
        "echo $prefix;\n")
    (root / "admin.php").write_text(
        "<?php require 'lib.php'; echo q($_GET['id']);\n")


@pytest.fixture(scope="module")
def tool():
    return Wape()


@pytest.fixture()
def project(tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    _write_project(root)
    return root


def _pack_keys(cache_dir: str, name: str) -> int:
    with open(os.path.join(cache_dir, f"ast-v{AST_FORMAT}", name),
              "rb") as f:
        return len(pickle.load(f))


def test_cold_scan_layout(tool, project, tmp_path):
    from repro.analysis.pipeline import config_fingerprint

    cache_dir = str(tmp_path / "cache")
    tool.analyze_tree(str(project), ScanOptions(jobs=1,
                                                cache_dir=cache_dir))
    scope = config_fingerprint(tool._config_groups(), tool.version)[:24]
    files = sorted(os.path.relpath(os.path.join(dirpath, name), cache_dir)
                   for dirpath, _dirs, names in os.walk(cache_dir)
                   for name in names)
    assert files == sorted([
        f"{scope}/pack.pkl",            # results, verdicts, graph
        f"ast-v{AST_FORMAT}/facts.pkl",
        f"ast-v{AST_FORMAT}/pack.pkl",
        f"ast-v{AST_FORMAT}/sum-pack.pkl",
    ])
    with open(os.path.join(cache_dir, scope, "pack.pkl"), "rb") as f:
        keys = pickle.load(f)
    assert sum(k.startswith("prefilter-") for k in keys) == 3
    assert sum(k.startswith("includes-") for k in keys) == 1


@pytest.mark.slow
def test_jobs2_stats_count_the_workers_store_work(tool, project, tmp_path):
    def cold(jobs: int):
        cache_dir = str(tmp_path / f"cache-{jobs}")
        report = tool.analyze_tree(str(project), ScanOptions(
            jobs=jobs, cache_dir=cache_dir, telemetry=Telemetry()))
        return report, cache_dir

    serial_report, serial_dir = cold(1)
    serial = serial_report.stats
    assert serial.ast_cache_puts == _pack_keys(serial_dir, "pack.pkl") == 3
    assert serial.summary_cache_puts == \
        _pack_keys(serial_dir, "sum-pack.pkl") > 0

    parallel_report, parallel_dir = cold(2)
    parallel = parallel_report.stats
    ast_entries = _pack_keys(parallel_dir, "pack.pkl")
    assert ast_entries == 3
    # workers may both parse a shared dependency: at least, never 0
    assert parallel.ast_cache_puts >= ast_entries
    assert parallel.ast_cache_misses >= ast_entries
    assert parallel.summary_cache_puts >= \
        _pack_keys(parallel_dir, "sum-pack.pkl") > 0
    record = build_record(parallel_report, "run", FP, jobs=2, seconds=1.0)
    assert record["caches"]["ast"]["puts"] == parallel.ast_cache_puts
    assert record["caches"]["summary"]["puts"] == \
        parallel.summary_cache_puts

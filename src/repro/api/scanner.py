"""Warm, incremental project scanning for embedders and the daemon.

A cold ``wape scan`` pays three big fixed costs on every invocation:
interpreter + import time, predictor training (the dominant term — the
classifiers of §III-B are fit when the tool is constructed), and a full
tree analysis.  :class:`Scanner` amortizes all three: it holds one
configured tool and, per scanned root, the *warm state* of the last scan —
the file snapshot, the resolved include graph and every per-file result.
A repeat scan then

1. re-stats the tree and re-hashes only files whose ``(mtime, size)``
   changed,
2. patches the include graph incrementally
   (:func:`~repro.analysis.includes.update_include_graph`) when the file
   set is unchanged, rebuilding it only when files appeared/disappeared,
3. re-analyzes exactly the files whose
   :func:`~repro.analysis.pipeline.closure_key` changed — the edited
   files plus everything whose include closure reaches them — and reuses
   every other result verbatim,
4. re-runs the false-positive predictor over all candidates (memoized, so
   unchanged candidates cost a dict lookup) and builds the report through
   the same code path as the batch pipeline.

Sharing :func:`closure_key` with :class:`~repro.analysis.pipeline
.ScanScheduler` is what makes the warm path trustworthy: the scheduler
and the scanner agree byte-for-byte on what invalidates a file, so a warm
scan can never reuse a result the batch pipeline would have recomputed.

Scans themselves are not thread-safe — the daemon serializes them
through a single worker thread per :class:`Scanner` — but the *warm
state* is guarded by a lock so read-only observers (:meth:`roots`,
:meth:`root_info`, the daemon's ``/v1/health`` and ``/v1/status``
handlers) may run concurrently with a scan: state is only ever published
as a whole fresh :class:`_RootState` under the lock, and observers copy
references under the same lock before touching them.  A concurrent edit
*during* a scan is safe in the conservative direction: the snapshot is
taken before analysis, so the file hashes as dirty again on the next
scan.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from repro.analysis.detector import FileResult
from repro.analysis.includes import (
    IncludeGraph,
    build_include_graph,
    update_include_graph,
)
from repro.analysis.options import ScanOptions
from repro.analysis.pipeline import (
    CRASH_ERROR,
    FusedDetector,
    ResultCache,
    ScanScheduler,
    closure_key,
    config_fingerprint,
    frontend_store,
)
from repro.analysis.prefilter import (
    TIER_SINK_BEARING,
    RelevancePrefilter,
    matcher_for,
)
from repro.php.ast_store import AstStore, Store
from repro.telemetry import CacheStats, build_scan_stats
from repro.telemetry.stats import IncludeStats
from repro.tool.report import AnalysisReport


@dataclass(frozen=True)
class ScanResult:
    """One :meth:`Scanner.scan` answer: the report plus what was done.

    Attributes:
        report: the full :class:`~repro.tool.report.AnalysisReport`, the
            same object a batch ``wape scan`` of the tree would produce.
        incremental: whether warm state was reused (``False`` for the
            first scan of a root or after the tool's knowledge changed).
        analyzed_files: files actually (re-)analyzed this scan.
        reused_files: files served from warm state untouched.
        dirty: project-relative paths of the re-analyzed files — the
            edited files plus their include-closure dependents.
        seconds: wall time of the whole scan call.
    """

    report: AnalysisReport
    incremental: bool
    analyzed_files: int
    reused_files: int
    dirty: tuple[str, ...]
    seconds: float

    def service_info(self) -> dict:
        """The ``service`` block of the report schema (request fields
        — ``request_id``, ``queue_seconds`` — are filled by the daemon).
        """
        return {
            "request_id": None,
            "incremental": self.incremental,
            "analyzed_files": self.analyzed_files,
            "reused_files": self.reused_files,
            "dirty": list(self.dirty),
            "seconds": round(self.seconds, 6),
            "queue_seconds": 0.0,
        }

    def to_dict(self) -> dict:
        """Schema-versioned report dict with the ``service`` block set."""
        data = self.report.to_dict()
        data["service"] = self.service_info()
        return data

    def diff(self, baseline: dict) -> "FindingsDelta":
        """This scan's findings delta against a *baseline* report dict.

        The baseline may be any schema version the tool can read (it is
        upgraded — and fingerprinted — on the way in).  See
        :func:`repro.api.delta.diff_reports`.
        """
        from repro.api.delta import diff_reports
        return diff_reports(self.to_dict(), baseline)


#: snapshot entry for a file that vanished or cannot be read: always
#: hashes unequal to any real content, so the file stays dirty.
_MISSING = (0, -1, "missing")


def _line_count(path: str) -> int:
    """Raw line count for a prefilter-skipped file (batch-pipeline rule:
    newline count + 1, so reports agree byte-for-byte across paths)."""
    try:
        with open(path, "rb") as f:
            return f.read().count(b"\n") + 1
    except OSError:
        return 0


@dataclass
class _RootState:
    """Everything remembered about one scanned root between scans."""

    fingerprint: str
    snapshot: dict[str, tuple[int, int, str]]
    graph: IncludeGraph | None
    keys: dict[str, str]
    results: dict[str, FileResult] = field(default_factory=dict)
    #: the on-disk store, opened by the cold scan and kept warm (its
    #: packs stay loaded across rescans)
    store: Store | None = None


class Scanner:
    """A warm scanning session over one configured tool.

    Args:
        tool: the tool facade to scan with (:class:`~repro.tool.wap.Wape`
            or :class:`~repro.tool.wap.Wap21`); built fresh — predictor
            training included — when omitted.
        options: the :class:`ScanOptions` applied to every scan.  ``jobs``
            affects only cold scans (warm re-scans run in-process — the
            dirty set is almost always far too small to win from worker
            startup); a ``cache_dir`` is shared with the batch pipeline,
            so a daemon and CLI runs feed each other's caches.
    """

    def __init__(self, tool=None, options: ScanOptions | None = None
                 ) -> None:
        if tool is None:
            from repro.tool.wap import Wape
            tool = Wape()
        self.tool = tool
        self.options = options if options is not None else ScanOptions()
        self._states: dict[str, _RootState] = {}
        #: guards ``_states`` against HTTP handler threads reading warm
        #: state while the scan thread publishes a fresh one — without it
        #: ``roots()``/``root_info()`` raced scan completion ("dictionary
        #: changed size during iteration", torn multi-field reads).
        self._lock = threading.Lock()
        #: relevance verdicts carried across scan cycles, keyed by
        #: content hash (verdicts are pure functions of file bytes +
        #: knowledge fingerprint; a fingerprint change cold-scans and
        #: the stale hashes simply stop being looked up)
        self._prefilter_memo: dict[str, tuple[bool, bool]] = {}
        #: include facts carried across scan cycles, keyed by content
        #: hash (knowledge-independent): a changed file set re-resolves
        #: every file without re-lexing the unchanged ones
        self._facts_memo: dict = {}
        #: cumulative prefilter tier counts across every scan served by
        #: this scanner (the ``/v1/status`` "prefilter" block); guarded
        #: by ``_lock``
        self.prefilter_totals = {"skipped": 0, "dep_only": 0,
                                 "sink_bearing": 0}
        #: optional ``callable(FileReport)`` fired per file as its
        #: verdicts are finalized, in report order — the streaming hook
        #: behind ``POST /v1/scan?stream=1``.  Called on the scanning
        #: thread; exceptions propagate and fail the scan.
        self.on_file = None

    # ------------------------------------------------------------------
    def roots(self) -> list[str]:
        """The roots currently holding warm state."""
        with self._lock:
            return sorted(self._states)

    def forget(self, root: str | None = None) -> None:
        """Drop warm state for *root* (or for every root)."""
        with self._lock:
            if root is None:
                self._states.clear()
            else:
                self._states.pop(os.path.abspath(root), None)

    def root_info(self, root: str) -> dict:
        """Facts about one warm root (the ``/v1/status`` per-root row).

        ``approx_bytes`` estimates the state's resident size via its
        pickled length — cheap, stable, and honest enough for a status
        panel; ``None`` when the state holds something unpicklable.

        Safe to call from any thread while a scan runs: the state's
        structures are copied by reference under the lock (a scan never
        mutates a published structure, it publishes fresh ones), so the
        counts and pickles below always describe one consistent scan.
        """
        root = os.path.abspath(root)
        with self._lock:
            state = self._states.get(root)
            if state is None:
                return {"root": root, "warm": False}
            snapshot, results = state.snapshot, state.results
            graph, keys = state.graph, state.keys
        approx = None
        try:
            import pickle
            approx = len(pickle.dumps(snapshot)) \
                + len(pickle.dumps(results)) \
                + len(pickle.dumps(graph)) \
                + len(pickle.dumps(keys))
        except Exception:
            pass
        return {
            "root": root,
            "warm": True,
            "files": len(snapshot),
            "results": len(results),
            "candidates": sum(len(r.candidates)
                              for r in results.values()),
            "approx_bytes": approx,
        }

    def prefilter_info(self) -> dict:
        """Cumulative prefilter tier counts across this scanner's scans."""
        with self._lock:
            totals = dict(self.prefilter_totals)
        total = sum(totals.values())
        totals["skip_rate"] = \
            round(totals["skipped"] / total, 4) if total else 0.0
        return totals

    def _note_prefilter(self, stats) -> None:
        if stats is None:
            return
        with self._lock:
            self.prefilter_totals["skipped"] += stats.skipped
            self.prefilter_totals["dep_only"] += stats.dep_only
            self.prefilter_totals["sink_bearing"] += stats.sink_bearing

    # ------------------------------------------------------------------
    def scan(self, root: str) -> ScanResult:
        """Scan *root*, incrementally when warm state allows it."""
        start = time.perf_counter()
        root = os.path.abspath(root)
        groups = self.tool._config_groups()
        fingerprint = config_fingerprint(groups, self.tool.version)
        with self._lock:
            state = self._states.get(root)
        if state is not None and state.fingerprint != fingerprint:
            state = None  # knowledge changed: every warm result is stale
        paths = ScanScheduler.discover(root)
        snapshot = self._snapshot(paths, state)
        if state is None:
            return self._cold_scan(root, groups, fingerprint, paths,
                                   snapshot, start)
        return self._warm_scan(root, groups, fingerprint, paths, snapshot,
                               state, start)

    # ------------------------------------------------------------------
    @staticmethod
    def _snapshot(paths: list[str], state: _RootState | None
                  ) -> dict[str, tuple[int, int, str]]:
        """(mtime_ns, size, content-hash) per file, hashing lazily.

        Files whose stat signature matches the previous snapshot keep
        their recorded hash without being re-read — the common case on a
        warm re-scan is one ``stat()`` per file and zero reads.
        """
        snap: dict[str, tuple[int, int, str]] = {}
        for path in paths:
            prev = state.snapshot.get(path) if state is not None else None
            try:
                st = os.stat(path)
            except OSError:
                snap[path] = _MISSING
                continue
            if prev is not None and prev[0] == st.st_mtime_ns \
                    and prev[1] == st.st_size:
                snap[path] = prev
                continue
            try:
                with open(path, "rb") as f:
                    digest = ResultCache.content_hash(f.read())
            except OSError:
                snap[path] = _MISSING
                continue
            snap[path] = (st.st_mtime_ns, st.st_size, digest)
        return snap

    # ------------------------------------------------------------------
    def _cold_scan(self, root: str, groups, fingerprint: str,
                   paths: list[str],
                   snapshot: dict[str, tuple[int, int, str]],
                   start: float) -> ScanResult:
        """First scan of a root: the batch pipeline, then seed the state."""
        scheduler = ScanScheduler(groups, tool_version=self.tool.version,
                                  options=self.options)
        results: list[FileResult] = []
        report = self.tool.run_scheduler(scheduler, root, paths=paths,
                                         collect=results,
                                         on_file=self.on_file)
        telem = scheduler.telemetry
        telem.metrics.counter("scans_cold").inc()
        if scheduler.prefilter is not None:
            # carry the batch run's verdicts into the warm path's memo:
            # the first warm re-scan then classifies without re-reading
            # unchanged files
            self._prefilter_memo.update(scheduler.prefilter.memo)
        self._facts_memo.update(scheduler.ast_store.facts_memo)
        self._note_prefilter(report.prefilter)
        raw_hashes = {p: snapshot[p][2] for p in paths}
        graph = scheduler.include_graph
        keys = {p: closure_key(p, snapshot[p][2], graph, raw_hashes)
                for p in paths}
        with self._lock:
            self._states[root] = _RootState(
                fingerprint, snapshot, graph, keys,
                dict(zip(paths, results)), scheduler.store)
        hits = report.cache.hits if report.cache else 0
        # prefilter-skipped files (irrelevant + dep-only) were neither
        # analyzed nor served from cache: keep analyzed_files honest
        skipped = (report.prefilter.skipped + report.prefilter.dep_only) \
            if report.prefilter is not None else 0
        return ScanResult(report, incremental=False,
                          analyzed_files=len(paths) - hits - skipped,
                          reused_files=hits, dirty=(),
                          seconds=time.perf_counter() - start)

    # ------------------------------------------------------------------
    def _warm_scan(self, root: str, groups, fingerprint: str,
                   paths: list[str],
                   snapshot: dict[str, tuple[int, int, str]],
                   state: _RootState, start: float) -> ScanResult:
        """Repeat scan: re-analyze only the dirty include-closure."""
        opts = self.options
        telem = opts.resolve_telemetry()
        predictor = opts.predictor or self.tool.predictor
        assert predictor is not None

        report = AnalysisReport(self.tool.version, root,
                                groups=dict(self.tool.groups))
        store = state.store
        cache = None
        if store is not None:
            cache = ResultCache(store)
            store.take_counts()  # count this scan's work from zero
        with telem.tracer.span("warm_scan", phase="run",
                               root=root) as root_span:
            prev_snapshot = state.snapshot
            dirty = [p for p in paths
                     if prev_snapshot.get(p, _MISSING)[2] != snapshot[p][2]]
            raw_hashes = {p: snapshot[p][2] for p in paths}
            with telem.tracer.span("resolve_includes", phase="link",
                                   files=len(paths), dirty=len(dirty)):
                graph, report.includes = self._updated_graph(
                    state, paths, dirty, prev_snapshot, raw_hashes)
            keys = {p: closure_key(p, snapshot[p][2], graph, raw_hashes)
                    for p in paths}
            to_run = [p for p in paths
                      if keys[p] != state.keys.get(p)
                      or p not in state.results
                      or state.results[p].parse_error == CRASH_ERROR]
            results: dict[str, FileResult] = {
                p: state.results[p] for p in paths if p not in set(to_run)}

            tiers = None
            if opts.prefilter and groups:
                prefilter = RelevancePrefilter(
                    matcher_for(groups, fingerprint), store=store,
                    memo=self._prefilter_memo)
                with telem.tracer.span("prefilter", phase="prefilter",
                                       files=len(paths)):
                    tiers = prefilter.classify(paths, graph, {},
                                               raw_hashes)
                report.prefilter = RelevancePrefilter.stats_of(tiers)
                self._note_prefilter(report.prefilter)

            skipped_run = 0
            if to_run:
                # a fresh detector per scan with changes: IncludeContext
                # memoizes dependency state, which edited files invalidate
                # (parses persist across scans via the warm store)
                detector = FusedDetector(
                    groups, telemetry=telem, include_graph=graph,
                    ast_store=frontend_store(store, telem))
                with telem.tracer.span("scan", phase="scan",
                                       files=len(to_run)):
                    for path in to_run:
                        if tiers is not None and tiers.get(
                                path, TIER_SINK_BEARING) \
                                != TIER_SINK_BEARING:
                            # provably candidate-free: synthesize the
                            # clean result before the cache probe, same
                            # as the batch pipeline
                            results[path] = FileResult(
                                filename=path,
                                lines_of_code=_line_count(path))
                            skipped_run += 1
                            continue
                        cached = cache.get(keys[path], path) \
                            if cache is not None else None
                        if cached is not None:
                            results[path] = cached
                            continue
                        results[path] = detector.detect_file(path)
                        if cache is not None:
                            cache.put(keys[path], results[path])
            counts = None
            if store is not None:
                store.flush()
                counts = store.take_counts()
            if graph is not None:
                for path, result in results.items():
                    result.resolved_includes = graph.resolved.get(path, 0)
                    result.unresolved_includes = \
                        graph.unresolved.get(path, 0)
            with telem.tracer.span("predict", phase="predict",
                                   files=len(paths)):
                for path in paths:
                    file_report = self.tool._predict_result(
                        results[path], telem, predictor)
                    report.files.append(file_report)
                    if self.on_file is not None:
                        self.on_file(file_report)
        if counts is not None:
            report.cache = CacheStats(*counts["result"])
        if telem.enabled:
            metrics = telem.metrics
            metrics.counter("scans_incremental").inc()
            metrics.counter("files_reanalyzed").inc(len(to_run))
            metrics.counter("files_reused").inc(len(paths) - len(to_run))
            if report.prefilter is not None:
                metrics.gauge("prefilter_skipped") \
                    .set(report.prefilter.skipped)
                metrics.gauge("prefilter_dep_only") \
                    .set(report.prefilter.dep_only)
                metrics.gauge("prefilter_sink_bearing") \
                    .set(report.prefilter.sink_bearing)
            report.stats = build_scan_stats(report, telem, root_span,
                                            counts=counts)

        # publish the new warm state as one fresh object under the lock:
        # observers never see a half-updated snapshot/results pair
        with self._lock:
            self._states[root] = _RootState(
                fingerprint, snapshot, graph, keys, results, store)
        return ScanResult(
            report, incremental=True,
            analyzed_files=len(to_run) - skipped_run,
            reused_files=len(paths) - len(to_run),
            dirty=tuple(os.path.relpath(p, root) for p in to_run),
            seconds=time.perf_counter() - start)

    def _updated_graph(self, state: _RootState, paths: list[str],
                       dirty: list[str], prev_snapshot: dict,
                       hashes: dict[str, str]
                       ) -> tuple[IncludeGraph | None, IncludeStats | None]:
        """The include graph for this scan, patched incrementally, and the
        include-fact work it took.

        Content-only edits re-derive just the dirty files' facts; any
        change to the file *set* re-resolves every file (a new file can
        steal a unique-basename resolution from an untouched one), with
        unchanged files' facts served by content hash.
        """
        if not self.options.includes:
            return None, None
        # the memo the cold scan seeded is the facts tier here: an edit
        # costs one file's lex, not a rewrite of the on-disk facts pack
        store = AstStore(facts=self._facts_memo)
        if set(paths) != set(prev_snapshot):
            graph = build_include_graph(paths, ast_store=store,
                                        hashes=hashes)
        elif dirty:
            graph = update_include_graph(state.graph or IncludeGraph(),
                                         paths, dirty, ast_store=store,
                                         hashes=hashes)
        else:
            graph = state.graph
        return graph, IncludeStats(files_lexed=store.include_lexes,
                                   fallback_parses=store.include_fallbacks,
                                   facts_hits=store.include_fact_hits)

"""The ``--stats`` summary: phase-time breakdown and scan health.

:func:`build_scan_stats` distills a finished trace + metrics registry into
a :class:`ScanStats` value that the report renders as a footer:

* **wall phases** — the top-level sequential phases of the run
  (``discover`` → ``scan`` → ``predict`` ...) plus an explicit ``other``
  bucket for unattributed time, so the table always sums to the measured
  wall clock (the acceptance bound: within 10%).
* **per-file phases** — aggregate latency distributions (p50/p95/max) of
  the per-file stage spans (``lex``/``parse``/``taint``/``split``/
  ``predict``/cache accesses), summed across workers; under ``--jobs N``
  their total legitimately exceeds wall time — it is CPU time.
* **scan health** — slowest files, cache hit/miss/eviction counts, worker
  retries and crashes (file + exception class), parse errors with the
  first message.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: per-file stage span names aggregated into the CPU-time table.
FILE_PHASE_NAMES = ("lex", "parse", "lower", "taint", "split",
                    "predict_file", "cache_get", "cache_put")

#: how many slowest files the footer lists.
TOP_SLOWEST = 5


@dataclass(frozen=True)
class CacheStats:
    """Result-cache behaviour for one scan (telemetry-independent)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0

    @property
    def hit_rate(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "puts": self.puts,
                "hit_rate": round(self.hit_rate, 4)}


@dataclass(frozen=True)
class PrefilterStats:
    """Relevance-prefilter tier counts for one scan (telemetry-independent).

    Produced by :mod:`repro.analysis.prefilter`: how many files the
    byte-level knowledge matcher classified into each tier.  ``skipped``
    files never touched the lex/parse/taint pipeline.
    """

    skipped: int = 0
    dep_only: int = 0
    sink_bearing: int = 0

    @property
    def total(self) -> int:
        return self.skipped + self.dep_only + self.sink_bearing

    @property
    def skip_rate(self) -> float:
        """Fraction of classified files that bypassed the pipeline
        entirely (dep-only files are parsed lazily, so they don't
        count as skipped)."""
        total = self.total
        return self.skipped / total if total else 0.0

    def to_dict(self) -> dict:
        return {"skipped": self.skipped, "dep_only": self.dep_only,
                "sink_bearing": self.sink_bearing,
                "skip_rate": round(self.skip_rate, 4)}


@dataclass(frozen=True)
class IncludeStats:
    """Include-resolution work for one scan (telemetry-independent).

    ``files_lexed`` files were lexed by the token-level include folder,
    ``fallback_parses`` of them needed the AST fold, and ``facts_hits``
    files had their include facts served by content hash (memo or the
    AST tier) instead of derived.
    """

    files_lexed: int = 0
    fallback_parses: int = 0
    facts_hits: int = 0

    def to_dict(self) -> dict:
        return {"files_lexed": self.files_lexed,
                "fallback_parses": self.fallback_parses,
                "facts_hits": self.facts_hits}

    def render(self) -> str:
        """The ``--stats`` footer line."""
        return (f"   include facts: {self.files_lexed} lexed, "
                f"{self.fallback_parses} AST fallbacks, "
                f"{self.facts_hits} served by content hash")


@dataclass
class ScanStats:
    """Everything the ``--stats`` footer shows, in structured form."""

    total_seconds: float = 0.0
    files: int = 0
    lines: int = 0
    workers: int = 0
    #: ordered (phase, seconds) rows summing to ``total_seconds``.
    wall_phases: list[tuple[str, float]] = field(default_factory=list)
    #: per-file stage name -> histogram summary dict.
    file_phases: dict[str, dict] = field(default_factory=dict)
    slowest_files: list[tuple[str, float]] = field(default_factory=list)
    cache: CacheStats | None = None
    worker_retries: list[tuple[str, str]] = field(default_factory=list)
    worker_crashes: list[tuple[str, str]] = field(default_factory=list)
    parse_errors: int = 0
    first_parse_error: tuple[str, str] | None = None
    #: files where statement-level recovery skipped damaged statements
    #: (still analyzed) and how many statements were dropped in total.
    parse_warnings: int = 0
    recovered_statements: int = 0
    #: include statements statically resolved / not resolvable.
    resolved_includes: int = 0
    unresolved_includes: int = 0
    #: the store's ``ast`` and ``summary`` kinds (workers' counts are
    #: shipped home per chunk).  ``reparse_avoided`` counts requests
    #: served from the in-memory AST memo without touching the store.
    ast_cache_hits: int = 0
    ast_cache_misses: int = 0
    ast_cache_puts: int = 0
    reparse_avoided: int = 0
    summary_cache_hits: int = 0
    summary_cache_misses: int = 0
    summary_cache_puts: int = 0
    candidates: int = 0
    predicted_fp: int = 0
    #: relevance-prefilter tier counts (None when the prefilter was off).
    prefilter: PrefilterStats | None = None
    #: include-resolution work (None when includes were off).
    includes: IncludeStats | None = None

    # ------------------------------------------------------------------
    @property
    def loc_per_second(self) -> float:
        return self.lines / self.total_seconds if self.total_seconds \
            else 0.0

    @property
    def fp_rate(self) -> float:
        return self.predicted_fp / self.candidates if self.candidates \
            else 0.0

    def to_dict(self) -> dict:
        return {
            "total_seconds": round(self.total_seconds, 6),
            "files": self.files,
            "lines": self.lines,
            "workers": self.workers,
            "loc_per_second": round(self.loc_per_second, 1),
            "wall_phases": [
                {"phase": name, "seconds": round(seconds, 6)}
                for name, seconds in self.wall_phases],
            "file_phases": self.file_phases,
            "slowest_files": [
                {"file": path, "seconds": round(seconds, 6)}
                for path, seconds in self.slowest_files],
            "cache": self.cache.to_dict() if self.cache else None,
            "worker_retries": [
                {"file": path, "error": error}
                for path, error in self.worker_retries],
            "worker_crashes": [
                {"file": path, "error": error}
                for path, error in self.worker_crashes],
            "parse_errors": self.parse_errors,
            "first_parse_error": (
                {"file": self.first_parse_error[0],
                 "error": self.first_parse_error[1]}
                if self.first_parse_error else None),
            "parse_warnings": self.parse_warnings,
            "recovered_statements": self.recovered_statements,
            "resolved_includes": self.resolved_includes,
            "unresolved_includes": self.unresolved_includes,
            "ast_cache": {"hits": self.ast_cache_hits,
                          "misses": self.ast_cache_misses,
                          "puts": self.ast_cache_puts,
                          "reparse_avoided": self.reparse_avoided},
            "summary_cache": {"hits": self.summary_cache_hits,
                              "misses": self.summary_cache_misses,
                              "puts": self.summary_cache_puts},
            "candidates": self.candidates,
            "predicted_false_positives": self.predicted_fp,
            "predictor_fp_rate": round(self.fp_rate, 4),
            "prefilter": self.prefilter.to_dict()
            if self.prefilter is not None else None,
            "includes": self.includes.to_dict()
            if self.includes is not None else None,
        }

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The human ``--stats`` footer."""
        lines = ["== scan statistics",
                 f"   wall time: {self.total_seconds:.3f}s   "
                 f"files: {self.files}   lines: {self.lines}   "
                 f"throughput: {self.loc_per_second:,.0f} LoC/s   "
                 f"workers: {self.workers or 1}"]
        lines.append("   phase breakdown (wall):")
        for name, seconds in self.wall_phases:
            share = seconds / self.total_seconds * 100 \
                if self.total_seconds else 0.0
            lines.append(f"      {name:<10} {seconds:>9.4f}s  "
                         f"{share:>5.1f}%")
        if self.file_phases:
            lines.append("   per-file phases (CPU time across workers):")
            for name, summary in self.file_phases.items():
                lines.append(
                    f"      {name:<12} n={summary['count']:<5} "
                    f"sum={summary['sum']:.4f}s  "
                    f"p50={summary['p50'] * 1000:.2f}ms  "
                    f"p95={summary['p95'] * 1000:.2f}ms  "
                    f"max={summary['max'] * 1000:.2f}ms")
        if self.slowest_files:
            lines.append(f"   top-{len(self.slowest_files)} slowest files:")
            for path, seconds in self.slowest_files:
                lines.append(f"      {seconds:>9.4f}s  {path}")
        if self.cache is not None:
            lines.append(
                f"   cache: {self.cache.hits} hits, "
                f"{self.cache.misses} misses, "
                f"{self.cache.evictions} evictions, "
                f"{self.cache.puts} puts "
                f"(hit rate {self.cache.hit_rate * 100:.1f}%)")
        if self.prefilter is not None:
            lines.append(
                f"   prefilter: {self.prefilter.skipped} skipped, "
                f"{self.prefilter.dep_only} dep-only, "
                f"{self.prefilter.sink_bearing} sink-bearing "
                f"(skip rate {self.prefilter.skip_rate * 100:.1f}%)")
        if (self.ast_cache_hits or self.ast_cache_misses
                or self.ast_cache_puts or self.reparse_avoided):
            lines.append(
                f"   ast cache: {self.ast_cache_hits} hits, "
                f"{self.ast_cache_misses} misses, "
                f"{self.ast_cache_puts} puts, "
                f"{self.reparse_avoided} reparses avoided")
        if (self.summary_cache_hits or self.summary_cache_misses
                or self.summary_cache_puts):
            probes = self.summary_cache_hits + self.summary_cache_misses
            rate = self.summary_cache_hits / probes * 100 if probes else 0.0
            lines.append(
                f"   summary cache: {self.summary_cache_hits} hits, "
                f"{self.summary_cache_misses} misses, "
                f"{self.summary_cache_puts} puts "
                f"(hit rate {rate:.1f}%)")
        if self.worker_retries or self.worker_crashes:
            lines.append(
                f"   worker faults: {len(self.worker_retries)} isolated "
                f"retries, {len(self.worker_crashes)} crashes")
            for path, error in (self.worker_retries
                                + self.worker_crashes)[:TOP_SLOWEST]:
                lines.append(f"      {error}: {path}")
        if self.parse_errors:
            first = ""
            if self.first_parse_error:
                first = (f" (first: {self.first_parse_error[0]}: "
                         f"{self.first_parse_error[1]})")
            lines.append(f"   parse errors: {self.parse_errors}{first}")
        if self.parse_warnings:
            lines.append(
                f"   parse warnings: {self.parse_warnings} file(s), "
                f"{self.recovered_statements} damaged statement(s) "
                f"skipped by recovery")
        if self.resolved_includes or self.unresolved_includes:
            lines.append(
                f"   includes: {self.resolved_includes} resolved, "
                f"{self.unresolved_includes} unresolved")
        if self.includes is not None:
            lines.append(self.includes.render())
        lines.append(
            f"   candidates: {self.candidates}   predicted FPs: "
            f"{self.predicted_fp} "
            f"(predictor FP rate {self.fp_rate * 100:.1f}%)")
        return "\n".join(lines)


def build_scan_stats(report, telemetry, root_span=None,
                     counts=None, retries=(), crashes=()) -> ScanStats:
    """Distill one run's trace + metrics + report into :class:`ScanStats`.

    Args:
        report: the :class:`~repro.tool.report.AnalysisReport` (duck-typed:
            ``files``, ``outcomes``, totals).
        telemetry: the run's :class:`~repro.telemetry.Telemetry`.
        root_span: the run's root span; wall phases are its direct
            children.  When omitted the first parentless span is used.
        counts: the run's per-kind ``[hits, misses, evictions, puts]``
            rows (:attr:`repro.php.ast_store.Store.counts`), if it had a
            store.
        retries: (file, exception class) isolated-retry log.
        crashes: (file, exception class) crash log.
    """
    tracer = telemetry.tracer
    stats = ScanStats()
    stats.files = len(report.files)
    stats.lines = report.total_lines
    stats.candidates = len(report.outcomes)
    stats.predicted_fp = len(report.predicted_false_positives)

    if root_span is None:
        root_span = next((s for s in tracer.spans
                          if s.parent_id is None), None)
    if root_span is not None:
        stats.total_seconds = root_span.duration
        scoped = tracer.descendants_of(root_span.span_id)
        accounted = 0.0
        for child in tracer.children_of(root_span.span_id):
            stats.wall_phases.append((child.name, child.duration))
            accounted += child.duration
        stats.wall_phases.append(
            ("other", max(0.0, root_span.duration - accounted)))
        by_name: dict[str, list[float]] = {}
        workers = set()
        for span in scoped:
            if span.name in FILE_PHASE_NAMES:
                by_name.setdefault(span.name, []).append(span.duration)
            if span.worker is not None:
                workers.add(span.worker)
        stats.workers = len(workers)
        for name in FILE_PHASE_NAMES:
            durations = by_name.get(name)
            if durations:
                stats.file_phases[name] = _summarize(durations)

    stats.slowest_files = sorted(
        ((f.filename, f.seconds) for f in report.files),
        key=lambda item: -item[1])[:TOP_SLOWEST]
    if counts is not None:
        stats.cache = CacheStats(*counts["result"])
        (stats.ast_cache_hits, stats.ast_cache_misses, _,
         stats.ast_cache_puts) = counts["ast"]
        (stats.summary_cache_hits, stats.summary_cache_misses, _,
         stats.summary_cache_puts) = counts["summary"]
    stats.worker_retries = list(retries)
    stats.worker_crashes = list(crashes)
    stats.prefilter = getattr(report, "prefilter", None)
    stats.includes = getattr(report, "includes", None)
    failed = [f for f in report.files if f.parse_error]
    stats.parse_errors = len(failed)
    if failed:
        stats.first_parse_error = (failed[0].filename,
                                   failed[0].parse_error)
    for f in report.files:
        if getattr(f, "parse_warning", None):
            stats.parse_warnings += 1
        stats.recovered_statements += getattr(f, "recovered_statements", 0)
        stats.resolved_includes += getattr(f, "resolved_includes", 0)
        stats.unresolved_includes += getattr(f, "unresolved_includes", 0)

    metrics = telemetry.metrics
    if metrics.enabled:
        avoided = metrics.counters.get("frontend_reparse_avoided")
        stats.reparse_avoided = int(avoided.value) if avoided else 0
        metrics.gauge("loc_per_second").set(stats.loc_per_second)
        metrics.gauge("predictor_fp_rate").set(stats.fp_rate)
        if stats.cache is not None:
            metrics.gauge("cache_hit_rate").set(stats.cache.hit_rate)
    return stats


def _summarize(durations: list[float]) -> dict:
    ordered = sorted(durations)

    def pick(q: float) -> float:
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]

    return {"count": len(ordered), "sum": round(sum(ordered), 6),
            "p50": round(pick(0.50), 6), "p95": round(pick(0.95), 6),
            "max": round(ordered[-1], 6)}

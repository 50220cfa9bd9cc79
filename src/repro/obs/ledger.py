"""The persistent run ledger: one compact record per scan, forever.

Telemetry answers "where did *this* scan's time go"; the ledger answers
"is that getting worse".  Every ``wape scan`` of a directory target
appends one JSON line — run id, config fingerprint, cpu/jobs facts,
per-phase wall times, per-tier cache hit rates, findings count + digest
— to an append-only JSONL file (``--ledger``, default
``<cache-dir>/ledger.jsonl``).  Records are versioned
(:data:`LEDGER_VERSION`) and loaders skip lines they cannot parse, so a
ledger survives partial writes and future format growth.

Two consumers:

* ``wape history`` renders trend tables over the ledger and, with
  ``--check``, runs :func:`detect_regressions` — a rolling-baseline
  detector that compares the newest record against the median of the
  previous same-configuration runs and flags phase-time or hit-rate
  regressions beyond a tolerance.
* ``make bench-check`` (CI) scans a fixed corpus, appends to a scratch
  ledger, and fails the build when the detector fires — converting the
  repo's benchmark story from one-off JSON files into a durable,
  regression-gated trajectory.

The findings digest is a SHA-256 over the sorted candidate dedup keys:
two scans that agree on every finding produce byte-identical digests,
which is both the determinism oracle ("same config re-run ⇒ same
digest") and a cheap drift alarm ("digest changed but no code did").
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass

#: bump when the record layout changes meaning; loaders keep accepting
#: older versions (missing keys default) but never newer ones silently.
LEDGER_VERSION = 1

#: how many prior same-configuration records the rolling baseline uses.
BASELINE_WINDOW = 5

#: phase-time regressions below this absolute delta are noise, not news.
MIN_ABS_SECONDS = 0.05


def default_ledger_path(cache_dir: str) -> str:
    """Where the ledger lives when ``--ledger`` is not given."""
    return os.path.join(cache_dir, "ledger.jsonl")


def findings_digest(outcomes, fingerprints=()) -> str:
    """SHA-256 over the sorted candidate dedup keys of a report.

    Stable across runs, orderings and processes: the key
    (:meth:`~repro.analysis.model.CandidateVulnerability.key`) is pure
    detection identity — class, file, sink line/name, entry point.
    *fingerprints* (the report's v3 stable finding fingerprints, when
    the caller has them) are folded in sorted, so the digest also
    certifies the identity layer the baseline diff and SARIF exports
    are built on — a fingerprint-algorithm drift flips the digest even
    when the raw candidate set did not move.
    """
    keys = sorted(repr(o.candidate.key()) for o in outcomes)
    material = "\n".join(keys)
    fps = sorted(fp for fp in fingerprints if fp)
    if fps:
        material += "\x00" + "\n".join(fps)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _cache_entry(hits: int, misses: int, puts: int = 0) -> dict:
    probes = hits + misses
    return {"hits": hits, "misses": misses, "puts": puts,
            "hit_rate": round(hits / probes, 4) if probes else None}


def build_record(report, run_id: str, fingerprint: str,
                 jobs: int, seconds: float,
                 target: str | None = None,
                 mode: str = "batch") -> dict:
    """One ledger record for a finished scan.

    Args:
        report: the run's :class:`~repro.tool.report.AnalysisReport`.
        run_id: the scan's correlated run id (shared with the log).
        fingerprint: the knowledge/config fingerprint
            (:func:`~repro.analysis.pipeline.config_fingerprint`).
        jobs: the *resolved* worker count the scan ran with.
        seconds: wall time of the whole scan call.
        target: scanned root; defaults to ``report.target``.
        mode: how the scan was driven — ``"batch"`` (one ``wape scan``)
            or ``"watch"`` (an incremental ``wape watch`` cycle).
            Regression baselines never mix modes: a warm watch cycle
            must not make a cold batch scan look like a regression.

    Phase times and the AST/summary tiers are included when the run had
    telemetry (they ride on ``report.stats``); the result-cache tier is
    always present because the cache counts independently of telemetry.
    """
    cpu_count = os.cpu_count() or 1
    stats = report.stats
    phases: dict[str, float] = {}
    if stats is not None:
        phases = {name: round(secs, 6)
                  for name, secs in stats.wall_phases}
    caches: dict[str, dict | None] = {"result": None, "ast": None,
                                      "summary": None}
    cache = report.cache
    if cache is not None:
        caches["result"] = _cache_entry(cache.hits, cache.misses,
                                        cache.puts)
    if stats is not None:
        if stats.ast_cache_hits or stats.ast_cache_misses \
                or stats.ast_cache_puts:
            caches["ast"] = _cache_entry(stats.ast_cache_hits,
                                         stats.ast_cache_misses,
                                         stats.ast_cache_puts)
        if stats.summary_cache_hits or stats.summary_cache_misses \
                or stats.summary_cache_puts:
            caches["summary"] = _cache_entry(stats.summary_cache_hits,
                                             stats.summary_cache_misses,
                                             stats.summary_cache_puts)
    outcomes = report.outcomes
    from repro.tool.report import report_fingerprints
    fingerprints = report_fingerprints(report.to_dict())
    # like the result cache, prefilter counts are telemetry-independent
    prefilter = getattr(report, "prefilter", None)
    includes = getattr(report, "includes", None)
    return {
        "version": LEDGER_VERSION,
        "run_id": run_id,
        "ts": round(time.time(), 3),
        "target": target if target is not None else report.target,
        "tool": report.tool_version,
        "mode": mode,
        "fingerprint": fingerprint,
        "cpu_count": cpu_count,
        "jobs": jobs,
        "jobs_capped_by_cpu": jobs >= cpu_count,
        "files": report.total_files,
        "lines": report.total_lines,
        "seconds": round(seconds, 6),
        "candidates": len(outcomes),
        "real": len(report.real_vulnerabilities),
        "predicted_fp": len(report.predicted_false_positives),
        "parse_errors": len(report.parse_errors),
        "parse_warnings": len(report.parse_warnings),
        "phases": phases,
        "caches": caches,
        "prefilter": prefilter.to_dict() if prefilter is not None
        else None,
        "includes": includes.to_dict() if includes is not None else None,
        "findings": {"count": len(outcomes),
                     "digest": findings_digest(outcomes, fingerprints)},
    }


class RunLedger:
    """Append-only JSONL store of scan records."""

    def __init__(self, path: str) -> None:
        self.path = path

    def append(self, record: dict) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    def load(self) -> list[dict]:
        """Every parseable record, oldest first (bad lines skipped)."""
        records: list[dict] = []
        try:
            with open(self.path, encoding="utf-8") as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue  # torn write or hand edit: skip, keep going
                    if isinstance(record, dict) \
                            and record.get("version", 0) <= LEDGER_VERSION:
                        records.append(record)
        except FileNotFoundError:
            pass
        return records


# ---------------------------------------------------------------------------
# rolling-baseline regression detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Regression:
    """One flagged metric of the newest ledger record."""

    run_id: str
    metric: str
    baseline: float
    current: float
    kind: str  # "time" (higher is worse) or "rate" (lower is worse)

    def describe(self) -> str:
        if self.kind == "time":
            ratio = self.current / self.baseline if self.baseline else 0.0
            return (f"{self.metric}: {self.current:.3f}s vs baseline "
                    f"{self.baseline:.3f}s ({ratio:.2f}x)")
        return (f"{self.metric}: {self.current * 100:.1f}% vs baseline "
                f"{self.baseline * 100:.1f}%")


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _comparable(latest: dict, record: dict) -> bool:
    """Prior records count toward the baseline only when the scan setup
    matched: same target, knowledge fingerprint, worker count and scan
    mode (a ~30ms warm watch cycle is not a baseline for a cold batch
    scan; records from before the ``mode`` field default to batch)."""
    return (record.get("target") == latest.get("target")
            and record.get("fingerprint") == latest.get("fingerprint")
            and record.get("jobs") == latest.get("jobs")
            and record.get("mode", "batch") == latest.get("mode", "batch"))


def detect_regressions(records: list[dict],
                       tolerance: float = 0.5,
                       rate_tolerance: float = 0.15,
                       window: int = BASELINE_WINDOW,
                       min_seconds: float = MIN_ABS_SECONDS
                       ) -> list[Regression]:
    """Flag where the newest record regressed against its own history.

    The baseline for each metric is the **median** of the previous (up
    to *window*) records with the same target/fingerprint/jobs — the
    median shrugs off one noisy historical run the way a mean cannot.
    A time metric is flagged when it exceeds baseline × (1 + tolerance)
    AND by at least *min_seconds* absolute (tiny phases jitter in
    relative terms); a hit rate is flagged when it drops more than
    *rate_tolerance* below baseline.  Fewer than two comparable prior
    records means no verdict: an empty list.
    """
    if len(records) < 3:
        return []
    latest = records[-1]
    prior = [r for r in records[:-1] if _comparable(latest, r)][-window:]
    if len(prior) < 2:
        return []
    out: list[Regression] = []
    run_id = str(latest.get("run_id", "?"))

    def check_time(metric: str, current, values: list[float]) -> None:
        if not isinstance(current, (int, float)) or len(values) < 2:
            return
        baseline = _median(values)
        if current > baseline * (1.0 + tolerance) \
                and current - baseline > min_seconds:
            out.append(Regression(run_id, metric, baseline,
                                  float(current), "time"))

    check_time("seconds", latest.get("seconds"),
               [r["seconds"] for r in prior
                if isinstance(r.get("seconds"), (int, float))])
    for phase, current in (latest.get("phases") or {}).items():
        values = [r["phases"][phase] for r in prior
                  if isinstance((r.get("phases") or {}).get(phase),
                                (int, float))]
        check_time(f"phase:{phase}", current, values)

    for tier in ("result", "ast", "summary"):
        entry = (latest.get("caches") or {}).get(tier)
        if not isinstance(entry, dict) \
                or not isinstance(entry.get("hit_rate"), (int, float)):
            continue
        values = []
        for r in prior:
            prev = (r.get("caches") or {}).get(tier)
            if isinstance(prev, dict) \
                    and isinstance(prev.get("hit_rate"), (int, float)):
                values.append(float(prev["hit_rate"]))
        if len(values) < 2:
            continue
        baseline = _median(values)
        current = float(entry["hit_rate"])
        if current < baseline - rate_tolerance:
            out.append(Regression(run_id, f"cache:{tier}:hit_rate",
                                  baseline, current, "rate"))

    # a collapsing prefilter skip rate means the classifier stopped
    # skipping (e.g. an over-broad pattern) — the scan silently slows
    # down while findings stay identical, so only this gate notices
    entry = latest.get("prefilter")
    if isinstance(entry, dict) \
            and isinstance(entry.get("skip_rate"), (int, float)):
        values = []
        for r in prior:
            prev = r.get("prefilter")
            if isinstance(prev, dict) \
                    and isinstance(prev.get("skip_rate"), (int, float)):
                values.append(float(prev["skip_rate"]))
        if len(values) >= 2:
            baseline = _median(values)
            current = float(entry["skip_rate"])
            if current < baseline - rate_tolerance:
                out.append(Regression(run_id, "prefilter:skip_rate",
                                      baseline, current, "rate"))
    return out


# ---------------------------------------------------------------------------
# trend rendering (`wape history`)
# ---------------------------------------------------------------------------

def _fmt_rate(entry: dict | None) -> str:
    if not isinstance(entry, dict) or entry.get("hit_rate") is None:
        return "-"
    return f"{entry['hit_rate'] * 100:.0f}%"


def render_history(records: list[dict], limit: int = 20) -> str:
    """A fixed-width trend table over the newest *limit* records."""
    if not records:
        return "ledger is empty"
    rows = records[-limit:]
    header = (f"{'run':<24} {'when':<16} {'files':>5} {'secs':>8} "
              f"{'scan':>8} {'res$':>5} {'sum$':>5} {'skip%':>5} "
              f"{'cand':>5} {'jobs':>4}  digest")
    lines = [header, "-" * len(header)]
    for r in rows:
        when = time.strftime("%m-%d %H:%M:%S",
                             time.localtime(r.get("ts", 0)))
        caches = r.get("caches") or {}
        phases = r.get("phases") or {}
        scan = phases.get("scan")
        digest = (r.get("findings") or {}).get("digest", "")
        prefilter = r.get("prefilter")
        skip = "-"
        if isinstance(prefilter, dict) \
                and isinstance(prefilter.get("skip_rate"), (int, float)):
            skip = f"{prefilter['skip_rate'] * 100:.0f}%"
        lines.append(
            f"{str(r.get('run_id', '?'))[:24]:<24} {when:<16} "
            f"{r.get('files', 0):>5} {r.get('seconds', 0.0):>8.3f} "
            f"{(f'{scan:.3f}' if isinstance(scan, (int, float)) else '-'):>8} "
            f"{_fmt_rate(caches.get('result')):>5} "
            f"{_fmt_rate(caches.get('summary')):>5} "
            f"{skip:>5} "
            f"{r.get('candidates', 0):>5} "
            f"{r.get('jobs', 1):>4}  {digest[:12]}")
    return "\n".join(lines)

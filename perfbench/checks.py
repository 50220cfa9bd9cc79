"""Output checks: reports against ground truth the tool did not produce.

* Corpus: the paper's constants in ``repro.corpus`` -- 602 real findings
  (413 + 18 web-application, 169 + 2 plugin: the FPs WAPe misses are
  reported as real), 107 predicted false positives (104 + 3), every
  report group at least its paper class total, and no parse error.
* Include project: the exact multiset of ``(reporting file, sink line,
  class)`` the generator planted, no predicted false positive, no parse
  error.
"""

from __future__ import annotations

import os
from collections import Counter

XSS = "xss"


def _paper():
    from repro.corpus import (PAPER_CLASS_TOTALS, PAPER_PLUGIN_CLASS_TOTALS,
                              PAPER_PLUGIN_FP, PAPER_PLUGIN_FPP,
                              PAPER_PLUGIN_TOTAL_VULNS, PAPER_TOTAL_VULNS,
                              PAPER_WAPE_FP, PAPER_WAPE_FPP)
    groups = Counter(PAPER_CLASS_TOTALS)
    groups.update(PAPER_PLUGIN_CLASS_TOTALS)
    real = PAPER_TOTAL_VULNS + PAPER_WAPE_FP \
        + PAPER_PLUGIN_TOTAL_VULNS + PAPER_PLUGIN_FP
    return real, PAPER_WAPE_FPP + PAPER_PLUGIN_FPP, groups


def corpus_problems(totals: dict, appended: int = 0) -> list[str]:
    """Compare a corpus report's totals with the paper's constants.

    *appended* counts vulnerable XSS lines the edit loop has added.
    """
    real, fps, groups = _paper()
    problems = []
    if totals["real"] != real + appended:
        problems.append(f"real findings {totals['real']} != "
                        f"{real + appended}")
    if totals["fp"] != fps:
        problems.append(f"predicted FPs {totals['fp']} != {fps}")
    if totals["parse_errors"]:
        problems.append(f"{totals['parse_errors']} parse errors")
    by_group = totals["by_group"]
    for group, count in sorted(groups.items()):
        want = count + (appended if group == "XSS" else 0)
        if by_group.get(group, 0) < want:
            problems.append(f"{group}: {by_group.get(group, 0)} < {want}")
    return problems


def includes_problems(found: Counter, expected: Counter,
                      totals: dict) -> list[str]:
    problems = []
    if found != expected:
        missing = expected - found
        extra = found - expected
        problems.append(f"{sum(missing.values())} missing "
                        f"{sorted(missing)[:3]}, {sum(extra.values())} "
                        f"unexpected {sorted(extra)[:3]}")
    if totals["fp"]:
        problems.append(f"{totals['fp']} predicted FPs, expected 0")
    if totals["parse_errors"]:
        problems.append(f"{totals['parse_errors']} parse errors")
    return problems


# -- reading reports ---------------------------------------------------------

def _rel(path: str, root: str) -> str:
    return os.path.relpath(path, root).replace(os.sep, "/")


def report_totals(report) -> dict:
    return {"real": len(report.real_vulnerabilities),
            "fp": len(report.predicted_false_positives),
            "parse_errors": len(report.parse_errors),
            "by_group": dict(report.counts_by_group())}


def dict_totals(data: dict) -> dict:
    summary = data["summary"]
    return {"real": summary["real_vulnerabilities"],
            "fp": summary["predicted_false_positives"],
            "parse_errors": summary["parse_errors"],
            "by_group": summary["by_class"]}


def tree_findings(report, root: str) -> Counter:
    """Real findings keyed by the report entry they sit under."""
    return Counter((_rel(f.filename, root), o.candidate.sink_line,
                    o.vuln_class)
                   for f in report.files for o in f.outcomes if o.is_real)


def project_findings(report, root: str) -> Counter:
    """Real findings keyed by the candidate's own file (project mode)."""
    return Counter((_rel(o.candidate.filename, root), o.candidate.sink_line,
                    o.vuln_class)
                   for o in report.real_vulnerabilities)


def dict_findings(data: dict, root: str) -> Counter:
    """Real findings of a JSON report, keyed like :func:`tree_findings`."""
    return Counter((_rel(entry["path"], root), finding["sink_line"],
                    finding["class"])
                   for entry in data.get("files") or ()
                   for finding in entry.get("findings") or ()
                   if finding.get("verdict") == "real")

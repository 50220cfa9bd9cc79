"""One fresh interpreter of a benchmark run (started by ``run.py``).

Roles:

* ``setup``: import the program and build the armed tool (predictor
  training included), then report how long that took from the moment
  the parent spawned this process -- a user's ``wape`` start-up cost.
* ``measure``: the same set-up, then the workload's timed operations
  with tracing off.
* ``trace``: wrappers installed before the tool is built, then one
  traced pass of the workload that gives the per-layer metrics, and
  untraced / traced / untraced batch passes that give the tracing
  overhead.

The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))


def _build_tool():
    from repro.tool import Wape
    from perfbench.workloads import WEAPON_FLAGS
    return Wape(list(WEAPON_FLAGS))


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _run_summary(run) -> dict:
    return {"samples": run.samples, "probes": run.probes,
            "attempted": run.attempted,
            "failures": run.failures, "sizes": run.sizes,
            "edit_mix": dict(run.edit_mix),
            "peak_rss_mb": _peak_rss_mb()}


def measure(args, t0: float) -> dict:
    tool = _build_tool()
    setup = time.monotonic() - t0
    from perfbench.workloads import Run, host_probe

    probe = host_probe()

    run = Run(args.workload, args.seed, args.workdir, tool)
    run.build_inputs()
    try:
        run.measured(args.seconds)
    finally:
        run.stop_daemon()
    out = _run_summary(run)
    out["setup_s"] = setup
    out["setup_probe"] = probe
    return out


def trace(args, t0: float) -> dict:
    from perfbench import tracing
    from perfbench.workloads import TRACED_LOOP_OPS, Run

    rec = tracing.Recorder()
    tracing.install(rec)
    rec.on = True
    span = rec.begin("op.setup")
    tool = _build_tool()
    rec.end(span)
    rec.on = False
    run = Run(args.workload, args.seed, args.workdir, tool, recorder=rec)
    run.build_inputs()

    try:
        # the traced pass: jobs=1 only, so every layer call is in-process
        rec.on = True
        run.batch(1, jobs2=False)
        run.start_daemon()
        run.edit_loop(TRACED_LOOP_OPS)
    finally:
        rec.on = False
        run.stop_daemon()
    # overhead: a traced batch between two untraced ones, all three after
    # the first pass warmed the process; the traced one's spans are dropped
    before = run.batch(1, jobs2=False)
    mark = rec.mark()
    rec.on = True
    traced = run.batch(1, jobs2=False)
    rec.on = False
    rec.rollback(mark)
    after = run.batch(1, jobs2=False)
    run.check_fixed()
    untraced = (sum(before.values()) + sum(after.values())) / 2.0
    stats = _stats_scan(run, rec)

    metrics = layer_metrics(rec, run, sum(traced.values()), untraced, stats)
    if args.spans:
        rec.dump(args.spans)
    out = _run_summary(run)
    out["layers"] = metrics
    return out


def _stats_scan(run, rec) -> dict:
    """One cold scan with the program's own telemetry, counted outside too.

    The program's ``--stats`` phase counts are recorded beside the calls
    the wrappers saw in the same scan; they need not agree.
    """
    from repro.analysis.options import ScanOptions

    mark = rec.mark()
    rec.on = True
    report, _secs = run.timed("stats_scan", lambda: run.tool.analyze_tree(
        run.roots[run.spec.root],
        ScanOptions(jobs=1, cache_dir=run.fresh_dir("cache"),
                    telemetry=True)))
    rec.on = False
    # keep the traced pass's books as they were before this scan
    spans = rec.rollback(mark)
    phases = {}
    if report is not None:
        run.verdict("stats_scan", run.check_tree(run.spec.root, report))
        phases = report.stats.file_phases if report.stats else {}
    outside = {"lex": "php.lex", "parse": "php.parse", "lower": "ir.lower"}
    out = {}
    for phase, span_name in outside.items():
        out[f"stats.{phase}_count"] = phases.get(phase, {}).get("count", 0)
        out[f"stats.outside_{phase}_calls"] = sum(
            1 for s in spans if s[0] == span_name)
    return out


def layer_metrics(rec, run, traced_wall: float, untraced_wall: float,
                  stats: dict) -> dict:
    """Per-layer metrics of the traced pass.

    Times and call counts are totals over the pass; the parse-per-content
    ratio and the resolver's parse and edge counts are those of its cold
    scan.  *traced_wall* / *untraced_wall* are the batch walls of the
    overhead passes.
    """
    selfs = rec.self_times()
    count: dict[str, int] = {}
    incl: dict[str, float] = {}
    own: dict[str, float] = {}
    for index, (name, start, end, _parent, _op) in enumerate(rec.spans):
        count[name] = count.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + selfs[index]
    c = rec.counts

    def ratio(num, den):
        return num / den if den else 0.0

    # the first traced cold scan: one resolver pass over the whole tree
    cold_op = next((span[4] for span in rec.spans if span[0] == "op.cold"),
                   None)
    parses_in_includes = sum(
        1 for index, span in enumerate(rec.spans)
        if span[0] == "php.parse" and span[4] == cold_op
        and rec.has_ancestor(index, {"includes.build"}))
    edges = sum(value for index, value in rec.notes.items()
                if rec.spans[index][0] == "includes.build"
                and rec.spans[index][4] == cold_op)
    candidates = sum(value for index, value in rec.notes.items()
                     if rec.spans[index][0] == "engine.detect_file")
    op_wall = sum(incl[n] for n in incl
                  if n.startswith("op.") and n != "op.setup")
    op_self = sum(own[n] for n in own
                  if n.startswith("op.") and n != "op.setup")
    m = {
        "php.lex_calls": count.get("php.lex", 0),
        "php.lex_s": own.get("php.lex", 0.0)
        + own.get("php.tokenize_call", 0.0),
        "php.parse_calls": count.get("php.parse", 0),
        "php.parse_s": own.get("php.parse", 0.0),
        "php.parses_per_unique_content": ratio(
            sum(1 for span in rec.spans
                if span[0] == "php.parse" and span[4] == cold_op),
            sum(1 for op, _digest in rec.contents if op == cold_op)),
        "php.ast_cache_hit_rate": ratio(c["php.ast.hits"],
                                        c["php.ast.calls"]),
        "includes.build_s": incl.get("includes.build", 0.0),
        "includes.update_s": incl.get("includes.update", 0.0),
        "includes.files_parsed": parses_in_includes,
        "includes.edges_resolved": edges,
        "includes.edges_per_parsed_file": ratio(edges, parses_in_includes),
        "prefilter.classify_s": own.get("prefilter.classify", 0.0)
        + own.get("prefilter.verdict", 0.0),
        "prefilter.skip_rate": 1.0 - ratio(c["prefilter.sink_bearing"],
                                           c["prefilter.files"])
        if c["prefilter.files"] else 0.0,
        "ir.lower_calls": count.get("ir.lower", 0),
        "ir.lower_s": incl.get("ir.lower", 0.0),
        "engine.detect_calls": count.get("engine.detect_file", 0),
        "engine.detect_self_s": own.get("engine.detect_file", 0.0),
        "engine.candidates": candidates,
        "summaries.hit_rate": ratio(c["summaries.hits"],
                                    c["summaries.calls"]),
        "summaries.get_s": incl.get("summaries.get", 0.0),
        "summaries.put_s": incl.get("summaries.put", 0.0),
        "pipeline.discover_s": incl.get("pipeline.discover", 0.0),
        "pipeline.hash_s": incl.get("pipeline.hash", 0.0),
        "pipeline.result_hit_rate": ratio(c["pipeline.result.hits"],
                                          c["pipeline.result.calls"]),
        "pipeline.cache_get_s": incl.get("pipeline.cache_get", 0.0),
        "pipeline.cache_put_s": incl.get("pipeline.cache_put", 0.0),
        "pipeline.flush_s": own.get("pipeline.flush", 0.0),
        "mining.train_s": incl.get("mining.train", 0.0),
        "mining.predict_calls": count.get("mining.predict", 0),
        "mining.predict_s": incl.get("mining.predict", 0.0),
        "mining.memo_hit_rate": ratio(c["mining.memo_hits"],
                                      c["mining.predict_calls"]),
        "corrector.correct_calls": count.get("corrector.correct", 0),
        "corrector.correct_s": incl.get("corrector.correct", 0.0),
        "corrector.applied_per_real": ratio(c["corrector.applied"],
                                            c["corrector.requested"]),
        "api.scan_s": incl.get("api.scan", 0.0),
        "api.dirty_files": c["api.dirty_files"],
        "api.analyzed_files": c["api.analyzed_files"],
        "api.reused_files": c["api.reused_files"],
        "service.handle_s": own.get("service.handle", 0.0),
        "service.report_encode_s": incl.get("service.report_encode", 0.0),
        "service.response_bytes": ratio(c["service.response_bytes"],
                                        c["service.responses"]),
        # client time outside the HTTP round trip: JSON decode, upgrade
        "service.client_decode_s": incl.get("service.client_scan", 0.0)
        - incl.get("service.client_request", 0.0),
        "service.queue_wait_s": sum(run.queue_seconds),
        "tool.predict_phase_s": incl.get("tool.predict", 0.0),
        "tool.report_build_s": incl.get("tool.report_build", 0.0),
        "trace.other_share": ratio(op_self, op_wall),
        "trace.overhead": ratio(traced_wall, untraced_wall),
    }
    m.update(stats)
    m["error_rate"] = ratio(len(run.failures), run.attempted)
    return m


def main(argv=None) -> int:
    t_start = time.monotonic()
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() at spawn, in the parent")
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else t_start
    if args.role == "setup":
        _build_tool()
        setup = time.monotonic() - t0
        from perfbench.workloads import host_probe
        result = {"setup_s": setup, "setup_probe": host_probe()}
    elif args.role == "measure":
        result = measure(args, t0)
    else:
        result = trace(args, t0)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())

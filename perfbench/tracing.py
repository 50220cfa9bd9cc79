"""Outside-in tracing: spans around the calls into each layer.

Nothing inside the program is changed.  :func:`install` replaces each
layer's public functions and methods with a timing wrapper, at every name
binding the program's modules hold (``from x import f`` copies included),
so no call escapes.  While :attr:`Recorder.on` is false a wrapper costs
one attribute check and records nothing.

Spans are kept in memory.  A span's parent is the innermost open span of
its own thread; a span that opens on an empty thread stack (the daemon's
handler and scan threads) takes the most recently opened span that is
still open anywhere, which is exact for the benchmark's closed loop (one
request in flight).  Self time is a span's duration minus the union of
its children's intervals.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import pkgutil
import sys
import threading
import time
from collections import defaultdict


class Recorder:
    """In-memory span store plus the counters the hooks fill."""

    def __init__(self) -> None:
        self.on = False
        self.op = 0
        #: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self._local = threading.local()
        self._open: list[int] = []
        self._lock = threading.Lock()
        self.counts: dict[str, float] = defaultdict(float)
        #: (op id, content digest) of every source handed to the lexer
        self.contents: set[tuple[int, bytes]] = set()
        #: span index -> value its hook attached (edges, candidates)
        self.notes: dict[int, float] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent,
                               self.op])
            self._open.append(index)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        with self._lock:
            self._open.remove(index)

    def mark(self) -> tuple:
        """The books as they stand, for :meth:`rollback`."""
        return (len(self.spans), dict(self.counts), set(self.contents))

    def rollback(self, mark: tuple) -> list[list]:
        """Forget everything recorded since *mark*; returns its spans."""
        first, counts, contents = mark
        spans = self.spans[first:]
        self.spans = self.spans[:first]
        self.counts.clear()
        self.counts.update(counts)
        self.contents = contents
        self.notes = {k: v for k, v in self.notes.items() if k < first}
        return spans

    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start = max(c_start, cursor)
                c_end = min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out.append((end - start) - covered)
        return out

    def has_ancestor(self, index: int, names: set[str]) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path: str) -> None:
        """Write every span (name, start, end, parent, op) as JSON."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, f)


def _wrap(fn, name: str, rec: Recorder, hook, probe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        before = probe(args) if probe is not None else None
        index = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if hook is not None:
            if probe is not None:
                hook(rec, index, args, result, before)
            else:
                hook(rec, index, args, result)
        return result
    return wrapper


# -- hooks: counts measured where the work happens ---------------------------

def _note_source(rec, index, args, result):
    rec.contents.add((rec.op, hashlib.blake2b(
        args[0].encode("utf-8", "replace"), digest_size=16).digest()))


def _hit_if_found(key):
    def hook(rec, index, args, result):
        rec.counts[key + ".calls"] += 1
        if result is not None:
            rec.counts[key + ".hits"] += 1
    return hook


def _note_edges(rec, index, args, result):
    rec.notes[index] = sum(len(d) for d in result.deps.values())


def _note_candidates(rec, index, args, result):
    rec.notes[index] = len(result.candidates)


def _note_tiers(rec, index, args, result):
    rec.counts["prefilter.files"] += len(result)
    rec.counts["prefilter.sink_bearing"] += sum(
        1 for tier in result.values() if tier == "sink_bearing")


def _memo_probe(args):
    return args[1] in args[0]._memo


def _note_memo(rec, index, args, result, was_cached):
    rec.counts["mining.predict_calls"] += 1
    if was_cached:
        rec.counts["mining.memo_hits"] += 1


def _note_fix(rec, index, args, result):
    rec.counts["corrector.applied"] += len(result.applied)
    rec.counts["corrector.requested"] += len(args[2])


def _note_response(rec, index, args, result):
    rec.counts["service.responses"] += 1
    rec.counts["service.response_bytes"] += len(result[1])


def _note_scan_result(rec, index, args, result):
    rec.counts["api.dirty_files"] += len(result.dirty)
    rec.counts["api.analyzed_files"] += result.analyzed_files
    rec.counts["api.reused_files"] += result.reused_files


#: (module, attribute path, span name, hook).  A dotted attribute path is
#: a method (or staticmethod) on a class; a plain name is a module
#: function, rebound wherever a program module holds it.
TARGETS = (
    ("repro.php.lexer", "Lexer.tokenize", "php.lex", None),
    ("repro.php.lexer", "tokenize", "php.tokenize_call", _note_source),
    ("repro.php.parser", "Parser.parse_program", "php.parse", None),
    ("repro.php.ast_store", "AstStore.lookup", "php.ast_lookup",
     _hit_if_found("php.ast")),
    ("repro.analysis.includes", "build_include_graph", "includes.build",
     _note_edges),
    ("repro.analysis.includes", "update_include_graph", "includes.update",
     _note_edges),
    ("repro.analysis.prefilter", "RelevancePrefilter.verdict",
     "prefilter.verdict", None),
    ("repro.analysis.prefilter", "RelevancePrefilter.classify",
     "prefilter.classify", _note_tiers),
    ("repro.ir.lower", "lower_program", "ir.lower", None),
    ("repro.analysis.pipeline", "FusedDetector.detect_file",
     "engine.detect_file", _note_candidates),
    ("repro.analysis.summaries", "SummaryCache.get", "summaries.get",
     _hit_if_found("summaries")),
    ("repro.analysis.summaries", "SummaryCache.put", "summaries.put", None),
    ("repro.analysis.pipeline", "ScanScheduler.discover",
     "pipeline.discover", None),
    ("repro.analysis.pipeline", "ResultCache.content_hash",
     "pipeline.hash", None),
    ("repro.analysis.pipeline", "ResultCache.get", "pipeline.cache_get",
     _hit_if_found("pipeline.result")),
    ("repro.analysis.pipeline", "ResultCache.put", "pipeline.cache_put",
     None),
    ("repro.php.ast_store", "PackFile.flush", "pipeline.flush", None),
    ("repro.mining.predictor", "new_predictor", "mining.train", None),
    ("repro.mining.predictor", "FalsePositivePredictor.predict_symptoms",
     "mining.predict", (_note_memo, _memo_probe)),
    ("repro.corrector.corrector", "CodeCorrector.correct_file",
     "corrector.correct", _note_fix),
    ("repro.api.scanner", "Scanner.scan", "api.scan", _note_scan_result),
    ("repro.service.server", "ScanService.scan", "service.handle", None),
    ("repro.service.server", "_Handler._respond_json",
     "service.report_encode", None),
    ("repro.service.client", "ServiceClient.scan", "service.client_scan",
     None),
    ("repro.service.client", "ServiceClient._request",
     "service.client_request", _note_response),
    ("repro.tool.wap", "_BaseTool._predict_result", "tool.predict", None),
    ("repro.tool.report", "AnalysisReport.to_dict", "tool.report_build",
     None),
)


def _import_all() -> None:
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def install(rec: Recorder) -> None:
    """Wrap every target at every binding held by a program module."""
    _import_all()
    modules = [m for name, m in list(sys.modules.items())
               if name == "repro" or name.startswith("repro.")]
    for mod_name, attr, span, hook in TARGETS:
        probe = None
        if isinstance(hook, tuple):
            hook, probe = hook
        owner = sys.modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth,
                        staticmethod(_wrap(raw.__func__, span, rec, hook,
                                           probe)))
            else:
                setattr(cls, meth, _wrap(raw, span, rec, hook, probe))
            continue
        original = getattr(owner, attr)
        wrapper = _wrap(original, span, rec, hook, probe)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

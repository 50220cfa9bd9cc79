"""Content-hash-keyed compositional function-summary cache.

The include-aware scan used to *re-execute* dependency bodies: analyzing
``index.php`` meant running the top level of every file in its include
closure (to learn the exported globals) and re-interpreting every
dependency function a call reached.  With the taint engine compiled to
the flat IR, per-function behaviour is fully captured by
:class:`~repro.analysis.model.FunctionSummary`, so a dependency's
contribution to its includers reduces to two values: the taint env its
top level exports and its own function summaries.  This module persists
exactly that pair.

:class:`SummaryCache` is that pair's codec over the one content-addressed
:class:`~repro.php.ast_store.Store` (its ``summary`` kind, the
``ast-v<N>/sum-pack.pkl`` pack beside the ASTs: both invalidate on
frontend/engine format changes, which bump
:data:`repro.php.ast_store.AST_FORMAT`).  Keys cover

* the file's own content hash (:meth:`repro.php.ast_store
  .AstStore.source_key`),
* the (relative path, content hash) pairs of its include closure — an
  edit to anything the file includes invalidates its summaries, exactly
  like :func:`repro.analysis.pipeline.closure_key` for results, and
* the knowledge fingerprint (:func:`repro.analysis.pipeline
  .config_fingerprint`) — summaries embed sanitization verdicts and
  group-scoped sink hits, so they are config-dependent even though the
  IR below them is not.

Entries never embed checkout paths: path-step files and candidate
filenames are stored relative to the summarized file and re-joined at
load, mirroring ``ResultCache``, so a cache survives a moved or renamed
project root.  Buffering, flushing and corrupt-entry eviction are the
store's, shared with every other kind.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

from repro.analysis.model import FunctionSummary
from repro.php.ast_store import Store

#: bump when the summary payload layout changes without an engine or
#: frontend format change (rare: AST_FORMAT covers most invalidations).
SUMMARY_FORMAT = 1

Env = dict[str, frozenset]


# ---------------------------------------------------------------------------
# path mapping (relativize on put, absolutize on get)
# ---------------------------------------------------------------------------

def _map_steps(steps, mapper):
    return tuple(
        dataclasses.replace(step, file=mapper(step.file)) if step.file
        else step
        for step in steps)


def _map_taints(taints, mapper):
    return frozenset(
        dataclasses.replace(t, path=_map_steps(t.path, mapper))
        if any(s.file for s in t.path) else t
        for t in taints)


def _map_env(env: Env, mapper) -> Env:
    return {var: _map_taints(taints, mapper)
            for var, taints in env.items()}


def _map_summary(summary: FunctionSummary, mapper) -> FunctionSummary:
    return dataclasses.replace(
        summary,
        filename=mapper(summary.filename) if summary.filename else "",
        returns_params={
            index: _map_steps(steps, mapper)
            for index, steps in summary.returns_params.items()},
        param_sinks=[
            (index, class_id, name, kind, line, _map_steps(steps, mapper))
            for index, class_id, name, kind, line, steps
            in summary.param_sinks],
        internal_candidates=[
            dataclasses.replace(cand,
                                filename=mapper(cand.filename),
                                path=_map_steps(cand.path, mapper))
            for cand in summary.internal_candidates],
        returned_sources=[
            dataclasses.replace(t, path=_map_steps(t.path, mapper))
            for t in summary.returned_sources],
    )


def _map_state(env: Env, summaries: dict, mapper) -> tuple[Env, dict]:
    return (_map_env(env, mapper),
            {name: _map_summary(s, mapper) for name, s in summaries.items()})


class SummaryCache:
    """The ``summary`` kind's codec over the one :class:`Store`.

    An entry is one dependency file's (exported env, function summaries)
    pair.  Path-step files and candidate filenames are stored relative to
    the summarized file and re-joined onto whatever path it has at load
    time; :meth:`state_key` builds the keys.  Storage, eviction, counting
    and flushing are the store's (``store.counts["summary"]``); the
    telemetry-facing ``summary_cache_hit``/``summary_cache_miss``
    counters are published by the caller
    (:class:`repro.analysis.includes.IncludeContext`).
    """

    def __init__(self, store: Store) -> None:
        self.store = store
        self.fingerprint = store.fingerprint

    # ------------------------------------------------------------------
    def state_key(self, source_key: str,
                  closure_pairs: list[tuple[str, str]]) -> str:
        """Digest identifying one file's summary state.

        Args:
            source_key: the file's own content hash.
            closure_pairs: (path relative to the file, content hash) of
                every member of its include closure, in closure order.
        """
        digest = hashlib.sha256(
            f"summary-v{SUMMARY_FORMAT}|{self.fingerprint}|{source_key}"
            .encode())
        for rel, dep_key in closure_pairs:
            digest.update(f"\n{rel}\x00{dep_key}".encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    def get(self, key: str, filename: str) -> tuple[Env, dict] | None:
        """Cached (env, summaries) for *key*, rebased onto *filename*."""
        state = self.store.get("summary", key)
        if state is None:
            return None
        base = os.path.dirname(filename)

        def absolutize(path: str) -> str:
            return os.path.normpath(os.path.join(base, path))

        env, summaries = state
        return _map_state(env, summaries, absolutize)

    def put(self, key: str, filename: str,
            env: Env, summaries: dict) -> None:
        """Buffer one file's state for the store's next flush."""
        base = os.path.dirname(filename)

        def relativize(path: str) -> str:
            return os.path.relpath(path, base)

        self.store.put("summary", key,
                       _map_state(env, summaries, relativize))

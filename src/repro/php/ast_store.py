"""Parse-once frontend, plus the one content-addressed on-disk store.

Every frontend consumer of a scan — the include context, the fused
detector and the include resolver's AST fallback — asks one
:class:`AstStore`, which memoizes parse results keyed by a content hash
of the source text, so each unique content is lexed and parsed at most
once per process.  The include resolver itself parses almost nothing: it
reads edges off the token stream (:mod:`repro.analysis.includes`) and
only the few files its token folder cannot decide take the AST fold, so
the scan phase parses only the files the prefilter keeps.

Parse results are content-addressed, not path-addressed: two identical
files share one entry, and cached syntax errors/warnings are re-attributed
to the *requesting* filename on every hit (error messages never embed the
path; only :class:`~repro.exceptions.PhpSyntaxError` carries it).

The on-disk side of every cache lives here too: :class:`Store` is the
one content-addressed store behind all six cache kinds (per-file
results, prefilter verdicts, include graphs, ASTs, include facts and
function summaries), each a namespaced ``(kind, key)`` inside one of
four :class:`PackFile` packs.  An :class:`AstStore` with a ``disk``
store serves parses of unchanged content from it, so incremental
re-scans of a dirty include closure stop re-lexing unchanged includer
files, and keeps each file's *include facts* (:meth:`AstStore.get_facts`)
beside the ASTs, keyed by the hash of the file's raw bytes: they are
knowledge-independent, so dropping the result packs never forces a
re-lex.

Every successful entry also carries the file's lowered
:class:`~repro.ir.opcodes.IRModule`: :meth:`AstStore.parse_recovering`
lowers eagerly (timed into the ``ir_lower_seconds`` counter), so the
taint engine's hot path never re-lowers a content the process — or, via
the disk store, an earlier process — has already seen.  Lowered modules
are config-independent (see :mod:`repro.ir.lower`), which is what lets
them be keyed purely by content hash, unlike the config-fingerprinted
summaries (:mod:`repro.analysis.summaries`).

The module deliberately has no dependency on :mod:`repro.telemetry`
(which transitively imports the analysis layer): callers may hand an
:class:`AstStore` any object with the ``Metrics`` counter interface via
``metrics=`` (it then also publishes ``frontend_reparse_avoided`` /
``ast_cache_hit`` counters) and any object with the ``Tracer`` span
interface via ``tracer=``; the plain integer counters on the store
itself are always maintained.

Shared ``Program`` objects must be treated as read-only by consumers.
Every analysis-side consumer already is; the corrector, which mutates
ASTs, parses its own private copy and never goes through the store.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from contextlib import nullcontext

from repro.exceptions import PhpSyntaxError
from repro.php.ast_nodes import Program
from repro.php.lexer import tokenize
from repro.php.parser import Parser

#: bump whenever the token stream, grammar, AST node layout, entry
#: layout, the IR instruction set (:data:`repro.ir.opcodes.IR_FORMAT`)
#: or the include-fact folder changes — pickled programs/modules/facts
#: from an older frontend must never be served.  2: entries grew a
#: fourth slot, the lowered IR module.  3: PHP integer literals (octal,
#: ``0o``, ``_``) and the include-facts pack.
AST_FORMAT = 3

#: (message, line, col) triples: enough to rebuild a PhpSyntaxError
#: against whatever filename the current request used.
_ErrorSpec = tuple[str, int, int]

#: a memoized parse: (program, recovery warnings, fatal error, lowered
#: IR module).  Exactly one of ``program``/``error`` is set; the module
#: is ``None`` for error entries and for programs lowering gave up on.
_Entry = tuple[Program | None, tuple[_ErrorSpec, ...], _ErrorSpec | None,
               object | None]


#: the span of an untraced store (reusable: it holds no state).
_NO_SPAN = nullcontext()


def _spec_of(exc: PhpSyntaxError) -> _ErrorSpec:
    return (exc.message, exc.line, exc.col)


def read_source(raw: bytes) -> str:
    """Decode a file's bytes exactly as a text-mode ``open`` does (UTF-8
    with replacement, universal newlines), so text decoded from bytes
    already read for hashing keys the same store entries."""
    return raw.decode("utf-8", errors="replace") \
        .replace("\r\n", "\n").replace("\r", "\n")


class PackFile:
    """One atomically-rewritten pickle pack: ``{key: entry bytes}``.

    Writing thousands of tiny cache entries as individual files spends
    most of a cold scan's cache time in ``open``/``close``/``rename``
    syscalls (measured ~30x slower than one sequential write of the same
    bytes).  A pack buffers puts in memory and :meth:`flush` merges them
    into a single on-disk dict in one temp-write + rename.  Values stay
    pickled *bytes* inside the pack, so loading the pack deserializes
    only the key index — each entry is unpickled on its first ``get``.

    Concurrent flushes from several workers re-read the pack before
    replacing it; a racing writer can still drop the other's freshest
    entries (last rename wins), which for a cache only costs a later
    re-computation, never wrong data.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._pending: dict[str, bytes] = {}
        self._discarded: set[str] = set()
        self._loaded: dict[str, bytes] | None = None
        self.corrupt = False  # last load found an unreadable pack

    def _load(self) -> dict[str, bytes]:
        if self._loaded is None:
            self._loaded, self.corrupt = self._read()
            if self.corrupt:
                try:
                    os.unlink(self.path)
                except OSError:
                    pass
        return self._loaded

    def _read(self) -> tuple[dict[str, bytes], bool]:
        try:
            with open(self.path, "rb") as f:
                pack = pickle.load(f)
            if isinstance(pack, dict):
                return pack, False
            return {}, True
        except FileNotFoundError:
            return {}, False
        except Exception:  # corrupt/foreign pack: start over
            return {}, True

    def get(self, key: str) -> bytes | None:
        blob = self._pending.get(key)
        if blob is not None:
            return blob
        return self._load().get(key)

    def put(self, key: str, blob: bytes) -> None:
        self._pending[key] = blob
        self._discarded.discard(key)

    def discard(self, key: str) -> None:
        """Drop *key* (an evicted corrupt/stale entry) — also from disk
        at the next :meth:`flush`, so the eviction is paid once, not on
        every future scan."""
        self._pending.pop(key, None)
        self._load().pop(key, None)
        self._discarded.add(key)

    def flush(self) -> None:
        """Merge pending entries into the on-disk pack, atomically."""
        if not self._pending and not self._discarded:
            return
        disk, _corrupt = self._read()  # pick up concurrent flushes
        merged = self._load() | disk | self._pending
        for key in self._discarded:
            merged.pop(key, None)
        directory = os.path.dirname(self.path)
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as f:
                pickle.dump(merged, f, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self.path)
        except OSError:
            try:
                os.unlink(tmp)
            except (OSError, UnboundLocalError):
                pass
            return
        self._loaded = merged
        self._pending = {}
        self._discarded = set()


def _is_graph(value) -> bool:
    # imported lazily: repro.analysis.includes imports this module
    from repro.analysis.includes import IncludeGraph
    return isinstance(value, IncludeGraph)


#: one store kind -> (pack file under the cache dir, key prefix, shape).
#: ``{scope}`` is the knowledge-fingerprint prefix: results, verdicts and
#: include graphs depend on the knowledge and share its pack.  The
#: ``ast-v<AST_FORMAT>`` directory holds the knowledge-independent
#: frontend kinds, plus summaries (which carry the fingerprint in their
#: key instead).  A value whose shape check fails was written by an
#: older layout: it is evicted like an undecodable one.
_KINDS = {
    "result": ("{scope}/pack.pkl", "", lambda v: isinstance(v, dict)),
    "verdict": ("{scope}/pack.pkl", "prefilter-",
                lambda v: isinstance(v, tuple) and len(v) == 2
                and type(v[0]) is bool and type(v[1]) is bool),
    "graph": ("{scope}/pack.pkl", "includes-", _is_graph),
    "ast": ("ast-v{ast}/pack.pkl", "",
            lambda v: isinstance(v, tuple) and len(v) == 4),
    "facts": ("ast-v{ast}/facts.pkl", "", lambda v: isinstance(v, tuple)),
    "summary": ("ast-v{ast}/sum-pack.pkl", "",
                lambda v: isinstance(v, tuple) and len(v) == 2),
}
KINDS = tuple(_KINDS)

#: slots of a kind's :attr:`Store.counts` row.
HITS, MISSES, EVICTIONS, PUTS = range(4)


class Store:
    """The content-addressed on-disk store behind every cache kind.

    ``get(kind, key)`` / ``put(kind, key, value)`` / :meth:`flush` serve
    all six kinds in :data:`KINDS`; each kind maps to one
    :class:`PackFile` and key prefix, so two kinds sharing a pack never
    collide.  Keys are content hashes (plus, where the value depends on
    more, the include closure's hashes or the knowledge fingerprint),
    so an entry is invalidated exactly when its content or the
    knowledge changes.

    One policy for every kind: an undecodable or wrongly-shaped value is
    a miss plus an eviction (dropped from disk at the next flush); an
    unpicklable value is skipped.  Each kind keeps one
    ``[hits, misses, evictions, puts]`` row in :attr:`counts`.  Puts
    are buffered until :meth:`flush` (once per scan or worker chunk).
    """

    def __init__(self, cache_dir: str, fingerprint: str) -> None:
        self.fingerprint = fingerprint
        self._packs: dict[str, PackFile] = {}
        #: kind -> (pack, key prefix, shape check)
        self._kinds = {}
        for kind, (where, prefix, shape) in _KINDS.items():
            path = os.path.join(cache_dir, where.format(
                scope=fingerprint[:24], ast=AST_FORMAT))
            pack = self._packs.get(path)
            if pack is None:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                pack = self._packs[path] = PackFile(path)
            self._kinds[kind] = (pack, prefix, shape)
        self.counts = {kind: [0, 0, 0, 0] for kind in KINDS}

    def get(self, kind: str, key: str):
        """The stored value of *kind* under *key*, or None."""
        pack, prefix, shape = self._kinds[kind]
        counts = self.counts[kind]
        blob = pack.get(prefix + key)
        if pack.corrupt:  # the whole pack was unreadable and is gone
            pack.corrupt = False
            counts[EVICTIONS] += 1
        if blob is not None:
            try:
                value = pickle.loads(blob)
            except Exception:  # corrupt entries raise anything
                value = None
            if value is not None and shape(value):
                counts[HITS] += 1
                return value
            pack.discard(prefix + key)
            counts[EVICTIONS] += 1
        counts[MISSES] += 1
        return None

    def put(self, kind: str, key: str, value) -> None:
        """Buffer *value* under (*kind*, *key*) for the next flush."""
        pack, prefix, _shape = self._kinds[kind]
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        # unpicklable members surface as PicklingError, AttributeError
        # or TypeError depending on the object and protocol
        except (RecursionError, pickle.PicklingError,
                AttributeError, TypeError):
            return
        pack.put(prefix + key, blob)
        self.counts[kind][PUTS] += 1

    def flush(self) -> None:
        """Persist buffered puts: one atomic rewrite per touched pack."""
        for pack in self._packs.values():
            pack.flush()

    def take_counts(self) -> dict[str, list[int]]:
        """The counts so far, reset to zero: a worker ships them home
        per chunk, a warm rescan reads its own share."""
        counts = self.counts
        self.counts = {kind: [0, 0, 0, 0] for kind in KINDS}
        return counts

    def add_counts(self, counts: dict[str, list[int]]) -> None:
        """Fold another store's :meth:`take_counts` into this one."""
        for kind, row in counts.items():
            mine = self.counts[kind]
            for slot, value in enumerate(row):
                mine[slot] += value


class AstStore:
    """Process-local memo of parse results, keyed by source content hash.

    One store is shared by every frontend consumer of a scan (include
    resolver, include context, fused detector), so the resolve phase
    hands its ASTs to the scan phase instead of throwing them away.

    Args:
        disk: optional :class:`Store` second tier (its ``ast`` and
            ``facts`` kinds).
        metrics: optional ``Metrics``-shaped counter sink (kept
            duck-typed to avoid importing the telemetry layer).
        tracer: optional ``Tracer``-shaped span sink: every lex, parse
            and lower :meth:`parse_recovering` runs becomes a span, no
            matter which phase asked for the parse.
        facts: optional externally-owned ``{raw hash: include facts}``
            memo, letting a warm :class:`~repro.api.Scanner` keep facts
            across scan cycles.
    """

    def __init__(self, disk: Store | None = None, metrics=None,
                 tracer=None, facts: dict | None = None) -> None:
        self._memory: dict[str, _Entry] = {}
        self.disk = disk
        self.metrics = metrics
        self.tracer = tracer
        self.parses = 0           # unique contents actually parsed
        self.reparse_avoided = 0  # requests served from the in-memory memo
        self.disk_hits = 0        # requests served from the on-disk cache
        self.lower_seconds = 0.0  # cumulative AST -> IR lowering time
        self.facts_memo: dict = facts if facts is not None else {}
        #: include-fact work (filled by :mod:`repro.analysis.includes`):
        #: files lexed by the token folder, files it sent to the AST
        #: fold, and facts served from the memo or the disk tier
        self.include_lexes = 0
        self.include_fallbacks = 0
        self.include_fact_hits = 0
        #: store key -> token list lexed ahead of the parse (see
        #: :meth:`keep_tokens`)
        self._tokens: dict[str, list] = {}

    @staticmethod
    def source_key(source: str) -> str:
        """Content hash of decoded source text (the store's cache key)."""
        return hashlib.sha256(
            source.encode("utf-8", "backslashreplace")).hexdigest()

    def lookup(self, key: str) -> _Entry | None:
        """The memoized entry for *key*, or None (counts the outcome)."""
        entry = self._memory.get(key)
        if entry is not None:
            self.reparse_avoided += 1
            if self.metrics is not None:
                self.metrics.counter("frontend_reparse_avoided").inc()
            return entry
        if self.disk is not None:
            entry = self.disk.get("ast", key)
            if entry is not None:
                self._memory[key] = entry
                self.disk_hits += 1
                if self.metrics is not None:
                    self.metrics.counter("ast_cache_hit").inc()
                return entry
        return entry

    def _store(self, key: str, entry: _Entry) -> None:
        """Memoize a parse outcome (and write it to the disk tier)."""
        self._memory[key] = entry
        self.parses += 1
        if self.disk is not None:
            self.disk.put("ast", key, entry)

    def _lower(self, program: Program):
        """Lower *program*, timing it; ``None`` when lowering gives up
        (pathologically deep ASTs) — the engine then lowers lazily and
        surfaces the failure as an analysis error, like the old walker.
        """
        # imported lazily: repro.ir.lower imports repro.php back
        from time import perf_counter

        from repro.ir.lower import lower_program
        start = perf_counter()
        try:
            return lower_program(program)
        except Exception:  # includes RecursionError on degenerate nesting
            return None
        finally:
            seconds = perf_counter() - start
            self.lower_seconds += seconds
            if self.metrics is not None:
                self.metrics.counter("ir_lower_seconds").inc(seconds)

    # ------------------------------------------------------------------
    # include facts and tokens lexed ahead of the parse
    # ------------------------------------------------------------------
    def get_facts(self, key: str):
        """The include facts memoized for raw hash *key*, or None."""
        facts = self.facts_memo.get(key)
        if facts is None and self.disk is not None:
            facts = self.disk.get("facts", key)
            if facts is not None:
                self.facts_memo[key] = facts
        if facts is not None:
            self.include_fact_hits += 1
        return facts

    def put_facts(self, key: str, facts) -> None:
        self.facts_memo[key] = facts
        if self.disk is not None:
            self.disk.put("facts", key, facts)

    def keep_tokens(self, key: str, tokens: list) -> None:
        """Hold *tokens* for the next parse of content *key*."""
        self._tokens[key] = tokens

    def take_tokens(self, key: str) -> list | None:
        """The held token list of content *key* (released), or None."""
        return self._tokens.pop(key, None)

    def drop_tokens(self) -> None:
        """Release every held token list (the scan phase is over)."""
        self._tokens.clear()

    def module_for(self, key: str):
        """The lowered IR module memoized for *key*, or ``None``.

        Deliberately does not probe the disk tier or touch the hit/miss
        counters: callers ask right after :meth:`lookup` or
        :meth:`parse_recovering` populated the memory tier.
        """
        entry = self._memory.get(key)
        return entry[3] if entry is not None else None

    @staticmethod
    def materialize(entry: _Entry, filename: str
                    ) -> tuple[Program, list[PhpSyntaxError]]:
        """Turn an entry into (program, warnings) attributed to *filename*.

        Raises the memoized :class:`PhpSyntaxError` for failure entries.
        """
        program, warning_specs, error, _module = entry
        if error is not None:
            message, line, col = error
            raise PhpSyntaxError(message, line, col, filename)
        assert program is not None
        return program, [PhpSyntaxError(message, line, col, filename)
                         for message, line, col in warning_specs]

    # ------------------------------------------------------------------
    # the one frontend entry point
    # ------------------------------------------------------------------
    def parse_recovering(self, source: str, filename: str = "<source>",
                         key: str | None = None
                         ) -> tuple[Program, list[PhpSyntaxError]]:
        """Memoized :func:`repro.php.parser.parse_with_recovery`.

        Same contract: returns ``(program, warnings)`` and raises
        :class:`PhpSyntaxError` when nothing was salvageable — including
        on cache hits for sources that previously failed.  *key* is
        ``source_key(source)`` when the caller already computed it; a
        token list held for that content (:meth:`keep_tokens`) is parsed
        instead of lexing again.  A fresh parse is lowered to the flat
        IR right away (once per unique content); lex, parse and lower
        each get a span when the store has a tracer.
        """
        if key is None:
            key = self.source_key(source)
        entry = self.lookup(key)
        if entry is not None:
            return self.materialize(entry, filename)
        try:
            tokens = self.take_tokens(key)
            if tokens is None:
                with self.span("lex", filename):
                    tokens = tokenize(source, filename)
            with self.span("parse", filename):
                parser = Parser(tokens, filename, recover=True)
                program = parser.parse_program()
        except PhpSyntaxError as exc:
            self._store(key, (None, (), _spec_of(exc), None))
            raise
        warnings = list(parser.warnings)
        with self.span("lower", filename):
            module = self._lower(program)
        self._store(key, (program, tuple(_spec_of(w) for w in warnings),
                          None, module))
        return program, warnings

    def span(self, name: str, filename: str):
        """A *name* span for *filename* (a no-op without a tracer)."""
        if self.tracer is None:
            return _NO_SPAN
        return self.tracer.span(name, phase=name, file=filename)

"""Parse-once frontend: shared AST store with an optional on-disk cache.

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

:class:`AstCache` adds an optional on-disk tier (pickled, content-hash
keyed, format-versioned via :data:`AST_FORMAT` the way ``ResultCache``
uses the knowledge fingerprint), so incremental re-scans of a dirty
include closure stop re-lexing unchanged includer files.  Corrupt entries
are evicted on the miss that discovers them; writes are atomic
(temp + rename).  Beside the AST pack the tier keeps each file's
*include facts* (:meth:`AstStore.get_facts`), keyed by the hash of the
file's raw bytes: they are knowledge-independent, so dropping the
result tier never forces a re-lex.

Since format 2, every successful entry also carries the file's lowered
:class:`~repro.ir.opcodes.IRModule`: :meth:`AstStore.store` lowers
eagerly (timed into the ``ir_lower_seconds`` counter), so the taint
engine's hot path never re-lowers a content the process — or, via the
disk tier, an earlier process — has already seen.  Lowered modules are
config-independent (see :mod:`repro.ir.lower`), which is what lets them
be cached purely by content hash, unlike the config-fingerprinted
summary tier (:mod:`repro.analysis.summaries`).

The store deliberately has no dependency on :mod:`repro.telemetry`
(which transitively imports the analysis layer): callers may hand it any
object with the ``Metrics`` counter interface via ``metrics=`` and the
store then also publishes ``frontend_reparse_avoided`` /
``ast_cache_hit`` counters; the plain integer counters on the store
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

from repro.exceptions import PhpSyntaxError
from repro.php.ast_nodes import Program
from repro.php.parser import parse_with_recovery

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


class AstCache:
    """Content-addressed parse results on disk.

    Layout: ``<directory>/ast-v<AST_FORMAT>/pack.pkl`` — one
    :class:`PackFile` holding every entry, plus legacy per-entry
    ``<content-hash>.pkl`` files which are still read (and evicted when
    stale) but no longer written.  The format-version directory plays the
    role the knowledge fingerprint plays for
    :class:`~repro.analysis.pipeline.ResultCache`: any frontend change
    that alters tokens, grammar, node layout or the IR bumps
    :data:`AST_FORMAT` and strands the old entries.

    Puts are buffered; callers must :meth:`flush` once per scan (the
    scheduler and scan workers do) to persist them.
    """

    def __init__(self, directory: str) -> None:
        self.directory = os.path.join(directory, f"ast-v{AST_FORMAT}")
        os.makedirs(self.directory, exist_ok=True)
        self.pack = PackFile(os.path.join(self.directory, "pack.pkl"))
        #: include facts (see :meth:`AstStore.get_facts`), raw-hash keyed
        self.facts = PackFile(os.path.join(self.directory, "facts.pkl"))
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.puts = 0

    def _entry_path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".pkl")

    def get(self, key: str) -> _Entry | None:
        blob = self.pack.get(key)
        if self.pack.corrupt:
            self.pack.corrupt = False
            self.evictions += 1
        if blob is not None:
            try:
                # a stale pre-format-2 payload (3 elements) fails this
                # unpacking with ValueError and is evicted below — the
                # whole cache-version negotiation, no special casing
                program, warnings, error, module = pickle.loads(blob)
            except Exception:
                self.misses += 1
                self.pack.discard(key)
                self.evictions += 1
                return None
            self.hits += 1
            return (program, warnings, error, module)
        entry = self._entry_path(key)
        try:
            with open(entry, "rb") as f:
                program, warnings, error, module = pickle.load(f)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:  # corrupt entries raise anything: miss + evict
            self.misses += 1
            try:
                os.unlink(entry)
                self.evictions += 1
            except OSError:
                pass
            return None
        self.hits += 1
        return (program, warnings, error, module)

    def put(self, key: str, value: _Entry) -> None:
        """Buffer one parse result for the next :meth:`flush`."""
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        # unpicklable members surface as PicklingError, AttributeError
        # or TypeError depending on the object and protocol
        except (RecursionError, pickle.PicklingError,
                AttributeError, TypeError):
            return
        self.pack.put(key, blob)
        self.puts += 1

    def get_facts(self, key: str):
        """Stored include facts for raw hash *key*, or None (corrupt or
        foreign entries are evicted)."""
        blob = self.facts.get(key)
        if blob is None:
            return None
        try:
            facts = pickle.loads(blob)
        except Exception:
            facts = None
        if not isinstance(facts, tuple):
            self.facts.discard(key)
            return None
        return facts

    def put_facts(self, key: str, facts) -> None:
        self.facts.put(key, pickle.dumps(facts,
                                         protocol=pickle.HIGHEST_PROTOCOL))

    def flush(self) -> None:
        """Persist buffered puts (one atomic rewrite per pack)."""
        self.pack.flush()
        self.facts.flush()


class AstStore:
    """Process-local memo of parse results, keyed by source content hash.

    One store is shared by every frontend consumer of a scan (include
    resolver, include context, fused detector), so the resolve phase
    hands its ASTs to the scan phase instead of throwing them away.

    Args:
        disk: optional :class:`AstCache` second tier.
        metrics: optional ``Metrics``-shaped counter sink (kept
            duck-typed to avoid importing the telemetry layer).
        facts: optional externally-owned ``{raw hash: include facts}``
            memo, letting a warm :class:`~repro.api.Scanner` keep facts
            across scan cycles.
    """

    def __init__(self, disk: AstCache | None = None,
                 metrics=None, facts: dict | None = None) -> None:
        self._memory: dict[str, _Entry] = {}
        self.disk = disk
        self.metrics = metrics
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

    # ------------------------------------------------------------------
    # primitives (used by traced callers that lex/parse themselves)
    # ------------------------------------------------------------------
    def lookup(self, key: str) -> _Entry | None:
        """The memoized entry for *key*, or None (counts the outcome)."""
        entry = self._memory.get(key)
        if entry is not None:
            self.reparse_avoided += 1
            if self.metrics is not None:
                self.metrics.counter("frontend_reparse_avoided").inc()
            return entry
        if self.disk is not None:
            entry = self.disk.get(key)
            if entry is not None:
                self._memory[key] = entry
                self.disk_hits += 1
                if self.metrics is not None:
                    self.metrics.counter("ast_cache_hit").inc()
                return entry
        return entry

    def store(self, key: str, program: Program,
              warnings: list[PhpSyntaxError], module=None) -> None:
        """Memoize a successful parse (and write it to the disk tier).

        The program is lowered to the flat IR here — eagerly, once per
        unique content — unless the caller already lowered it (the
        traced pipeline path wraps the lowering in its own span).
        """
        if module is None:
            module = self._lower(program)
        entry: _Entry = (program, tuple(_spec_of(w) for w in warnings),
                         None, module)
        self._memory[key] = entry
        self.parses += 1
        if self.disk is not None:
            self.disk.put(key, entry)

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

    def store_error(self, key: str, exc: PhpSyntaxError) -> None:
        """Memoize a fatal parse failure (re-raised on later hits)."""
        entry: _Entry = (None, (), _spec_of(exc), None)
        self._memory[key] = entry
        self.parses += 1
        if self.disk is not None:
            self.disk.put(key, entry)

    def flush(self) -> None:
        """Persist the disk tier's buffered writes, if there is one."""
        if self.disk is not None:
            self.disk.flush()

    # ------------------------------------------------------------------
    # include facts and tokens lexed ahead of the parse
    # ------------------------------------------------------------------
    def get_facts(self, key: str):
        """The include facts memoized for raw hash *key*, or None."""
        facts = self.facts_memo.get(key)
        if facts is None and self.disk is not None:
            facts = self.disk.get_facts(key)
            if facts is not None:
                self.facts_memo[key] = facts
        if facts is not None:
            self.include_fact_hits += 1
        return facts

    def put_facts(self, key: str, facts) -> None:
        self.facts_memo[key] = facts
        if self.disk is not None:
            self.disk.put_facts(key, facts)

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
        counters: callers ask right after :meth:`lookup`/:meth:`store`
        populated the memory tier.
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
    # the all-in-one path
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
        instead of lexing again.
        """
        if key is None:
            key = self.source_key(source)
        entry = self.lookup(key)
        if entry is None:
            try:
                program, warnings = parse_with_recovery(
                    source, filename, tokens=self.take_tokens(key))
            except PhpSyntaxError as exc:
                self.store_error(key, exc)
                raise
            self.store(key, program, warnings)
            return program, warnings
        return self.materialize(entry, filename)

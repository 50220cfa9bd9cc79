"""Static resolution of ``include``/``require`` targets.

The paper's tool analyzes whole applications: taint entering in one file
must be observable at a sink in another when the files are linked by an
``include``.  This module provides the static half of that story:

* **Include facts** — per file, one entry per include statement: the
  target operand folded to a *template* (literal text split at every
  ``__DIR__`` / ``dirname(__FILE__)``, so the fact never embeds a path)
  or ``None`` for a dynamic target.  Facts depend only on the file's
  bytes, so they are memoized and persisted by content hash as the
  store's ``facts`` kind (:meth:`~repro.php.ast_store.AstStore
  .get_facts`).  They come from a **token-level folder**: a file is
  lexed only when its bytes mention an include keyword (any case), and
  nothing is parsed.  The
  folder decides exactly the forms the AST fold decides — quoted
  literals without interpolation or escapes, ``.``, grouping parens,
  ``__DIR__`` and ``dirname(__FILE__)`` — and a file with an operand it
  cannot prove equivalent falls back to the AST fold through the shared
  :class:`~repro.php.ast_store.AstStore` (``docs/prefilter.md`` states
  the rules and why they are sound).
* :class:`IncludeResolver` turns facts into edges against the project
  file set — literal paths, directory-relative concatenations and, as a
  last resort, a unique-basename match anywhere in the project.
  Dynamic targets are counted as *unresolved* and the file simply falls
  back to per-file analysis — never an error.
* :class:`IncludeGraph` is the resolved project graph: a picklable mapping
  from each file to its direct dependencies, plus per-file
  resolved/unresolved counters for telemetry.
* :class:`IncludeContext` turns the graph into what the
  :class:`~repro.analysis.engine.TaintEngine` needs per analyzed file: the
  merged function-declaration table of the include closure, the *composed
  function summaries* of every dependency, and the propagated global
  taint state of every included file's top level.  Per-dependency state
  is computed **once** — one ``analyze_with_state`` run per dependency
  yields both its exported env and its summaries — then composed into
  every includer, so analyzing ten files that include ``db.php`` runs
  ``db.php``'s bodies once, not ten times.  With an on-disk
  :class:`~repro.php.ast_store.Store` attached, that state additionally
  persists (its ``summary`` kind) keyed by content + closure + knowledge
  fingerprint, so a later process (worker, re-scan, daemon) composes
  cached summaries without re-executing dependency code at all.

``include_once``/``require_once`` cycles are handled the way PHP handles
them: each file contributes its state once; re-entry contributes nothing.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, field

from repro.exceptions import PhpSyntaxError
from repro.php import ast
from repro.analysis.summaries import SummaryCache
from repro.php.ast_store import AstStore, Store, read_source
from repro.php.lexer import tokenize
from repro.php.tokens import TokenType as T

#: a folded include operand: literal segments, with the including
#: file's directory standing between each pair (``__DIR__ . '/a.php'``
#: is ``("", "/a.php")``)
Template = tuple[str, ...]
#: one file's include facts: a template (or ``None`` when the target is
#: dynamic) per include statement, in document order
Facts = tuple[Template | None, ...]

#: byte-level hint: only files mentioning an include keyword are lexed.
#: PHP keywords fold case, so the match does too (``REQUIRE_ONCE`` is an
#: include); the word boundaries keep "required" in a form label out.
_KEYWORD_HINT = re.compile(rb"\b(?:include|require)(?:_once)?\b", re.IGNORECASE)

_INCLUDE_KEYWORDS = frozenset((T.KW_INCLUDE, T.KW_INCLUDE_ONCE,
                               T.KW_REQUIRE, T.KW_REQUIRE_ONCE))
#: a keyword right after one of these is a member or declaration name
_NAME_CONTEXT = frozenset((T.ARROW, T.NULLSAFE_ARROW, T.DOUBLE_COLON,
                           T.KW_FUNCTION, T.KW_CONST))
#: a keyword right after one of these starts an include expression; any
#: other predecessor sends the file to the AST fold
_EXPR_CONTEXT = frozenset((
    T.OPEN_TAG, T.SEMI, T.LBRACE, T.RBRACE, T.LPAREN, T.LBRACKET,
    T.ASSIGN, T.PLUS_ASSIGN, T.MINUS_ASSIGN, T.MUL_ASSIGN, T.DIV_ASSIGN,
    T.MOD_ASSIGN, T.CONCAT_ASSIGN, T.POW_ASSIGN, T.AND_ASSIGN,
    T.OR_ASSIGN, T.XOR_ASSIGN, T.SHL_ASSIGN, T.SHR_ASSIGN,
    T.COALESCE_ASSIGN, T.DOUBLE_ARROW, T.KW_RETURN, T.KW_ECHO,
    T.KW_PRINT, T.KW_ELSE, T.NOT, T.AT, T.QUESTION, T.COLON,
    T.BOOL_AND, T.BOOL_OR, T.KW_AND, T.KW_OR, T.KW_XOR, T.COALESCE))
#: the operand ends at these wherever they occur ...
_HARD_STOP = frozenset((T.SEMI, T.CLOSE_TAG, T.EOF))
#: ... and at these outside brackets
_STOP = frozenset((T.COMMA, T.COLON, T.DOUBLE_ARROW, T.KW_AS))
_OPEN = frozenset((T.LPAREN, T.LBRACKET, T.LBRACE))
_CLOSE = frozenset((T.RPAREN, T.RBRACKET, T.RBRACE))
#: the only token kinds a foldable operand is made of; any other kind
#: (a variable, a call, an operator other than ``.``) makes it dynamic
_FOLDABLE_KINDS = frozenset((T.SQ_STRING, T.DQ_STRING, T.HEREDOC,
                             T.NOWDOC, T.IDENT, T.LPAREN, T.RPAREN, T.DOT))
_FOLDABLE_NAMES = frozenset(("__dir__", "dirname", "__file__"))


class _Unknown(Exception):
    """The token folder cannot decide this operand; use the AST fold."""


def token_facts(tokens) -> Facts | None:
    """Include facts from one file's token list.

    ``None`` when some include needs the AST fold to be decided: an
    unusual predecessor of the keyword, or an operand that is neither
    provably foldable nor provably dynamic.
    """
    facts: list[Template | None] = []
    prev = None
    for i, tok in enumerate(tokens):
        kind = tok.type
        if kind in _INCLUDE_KEYWORDS and prev not in _NAME_CONTEXT:
            if prev not in _EXPR_CONTEXT:
                return None
            try:
                facts.append(_fold_operand(tokens, i + 1))
            except _Unknown:
                return None
        prev = kind
    return tuple(facts)


def _fold_operand(tokens, start: int) -> Template | None:
    """The template of the operand starting at *start*; ``None`` if it is
    dynamic.  Raises :class:`_Unknown` when undecidable here.

    Every token before the operand's end belongs to the operand's
    expression, so one token the fold never accepts proves the AST fold
    yields ``None`` too.
    """
    end = start
    depth = 0
    while True:
        kind = tokens[end].type
        if kind in _HARD_STOP or (depth == 0 and kind in _STOP):
            break
        if kind in _OPEN:
            depth += 1
        elif kind in _CLOSE:
            if depth == 0:
                break
            depth -= 1
        end += 1
    operand = tokens[start:end]
    if not operand:
        raise _Unknown
    for tok in operand:
        if tok.type not in _FOLDABLE_KINDS or (
                tok.type is T.IDENT
                and tok.value.lower() not in _FOLDABLE_NAMES):
            return None
    segments = [""]
    if _fold_concat(operand, 0, segments) != len(operand):
        raise _Unknown
    return tuple(segments)


def _fold_concat(tokens, i: int, segments: list[str]) -> int:
    """Fold ``atom ('.' atom)*`` from *i* into *segments*; returns the
    index after it."""
    i = _fold_atom(tokens, i, segments)
    while i < len(tokens) and tokens[i].type is T.DOT:
        i = _fold_atom(tokens, i + 1, segments)
    return i


def _fold_atom(tokens, i: int, segments: list[str]) -> int:
    if i >= len(tokens):
        raise _Unknown
    tok = tokens[i]
    kind = tok.type
    if kind is T.SQ_STRING or (kind is T.DQ_STRING and "\\" not in tok.value
                               and "$" not in tok.value):
        segments[-1] += tok.value
        return i + 1
    if kind is T.LPAREN:
        i = _fold_concat(tokens, i + 1, segments)
        if i >= len(tokens) or tokens[i].type is not T.RPAREN:
            raise _Unknown
        return i + 1
    if kind is T.IDENT:
        name = tok.value.lower()
        if name == "__dir__":
            segments.append("")
            return i + 1
        if name == "dirname" and [t.type for t in tokens[i + 1:i + 4]] \
                == [T.LPAREN, T.IDENT, T.RPAREN] \
                and tokens[i + 2].value.lower() == "__file__":
            segments.append("")
            return i + 4
    raise _Unknown


def ast_facts(program: ast.Program) -> Facts:
    """The AST fold: one fact per ``Include`` node, in pre-order."""
    return tuple(_ast_template(node.expr) for node in program.walk()
                 if isinstance(node, ast.Include))


def _ast_template(expr: ast.Node | None) -> Template | None:
    """Fold *expr* to a template, or None if it is dynamic."""
    if isinstance(expr, ast.Literal) and expr.kind == "string":
        return (str(expr.value),)
    if isinstance(expr, ast.ConstFetch) and expr.name.lower() == "__dir__":
        return ("", "")
    if isinstance(expr, ast.FunctionCall) \
            and isinstance(expr.name, str) \
            and expr.name.lower() == "dirname" and len(expr.args) == 1:
        inner = expr.args[0].value \
            if isinstance(expr.args[0], ast.Argument) else expr.args[0]
        if isinstance(inner, ast.ConstFetch) \
                and inner.name.lower() == "__file__":
            return ("", "")
    parts: list = []
    if isinstance(expr, ast.BinaryOp) and expr.op == ".":
        parts = [expr.left, expr.right]
    elif isinstance(expr, ast.InterpolatedString):
        parts = expr.parts
    else:
        return None
    segments = [""]
    for part in parts:
        folded = _ast_template(part)
        if folded is None:
            return None
        segments[-1] += folded[0]
        segments.extend(folded[1:])
    return tuple(segments)


def derive_facts(store: AstStore, raw: bytes, raw_hash: str, path: str,
                 keep_tokens: bool = False) -> Facts | None:
    """One file's include facts from its bytes, through *store*'s memo.

    Lexes only files whose bytes hint at an include keyword.  Returns
    ``None`` when the token folder defers to the AST fold
    (:func:`fallback_facts` then decides and stores the facts, parsing
    the tokens left in *store*).  With *keep_tokens*, a lexed file's
    token list is left in *store* for the scan-phase parse, so the file
    is not lexed twice.  The lex is a ``lex`` span of *store*'s tracer.
    """
    if _KEYWORD_HINT.search(raw) is None:
        return ()
    facts = store.get_facts(raw_hash)
    if facts is not None:
        return facts
    text = read_source(raw)
    store.include_lexes += 1
    try:
        with store.span("lex", path):
            tokens = tokenize(text, path)
    except PhpSyntaxError:
        tokens = None
    facts = token_facts(tokens) if tokens is not None else ()
    if tokens is not None and (keep_tokens or facts is None):
        # the scan phase, or the AST fold right after, parses them
        store.keep_tokens(store.source_key(text), tokens)
    if facts is not None:
        store.put_facts(raw_hash, facts)
    return facts


def fallback_facts(store: AstStore, path: str) -> Facts:
    """Decide one file's facts with the AST fold (and store them)."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError:
        return ()
    store.include_fallbacks += 1
    try:
        program, _ = store.parse_recovering(read_source(raw), path)
        facts = ast_facts(program)
    except (PhpSyntaxError, RecursionError):
        facts = ()  # unparseable file: no edges, scanned standalone
    store.put_facts(hashlib.sha256(raw).hexdigest(), facts)
    return facts


@dataclass
class IncludeGraph:
    """The resolved include graph of one project scan.

    Attributes:
        deps: file path -> direct, statically resolved include targets
            (paths exactly as the scan pipeline addresses them).
        resolved: file path -> number of include statements resolved.
        unresolved: file path -> number of include statements whose
            target could not be determined statically.
    """

    deps: dict[str, tuple[str, ...]] = field(default_factory=dict)
    resolved: dict[str, int] = field(default_factory=dict)
    unresolved: dict[str, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.deps)

    def closure(self, path: str) -> tuple[str, ...]:
        """Every file reachable from *path* via includes (cycle-safe).

        *path* itself is excluded; order is deterministic breadth-first.
        """
        out: list[str] = []
        seen = {path}
        queue = list(self.deps.get(path, ()))
        while queue:
            dep = queue.pop(0)
            if dep in seen:
                continue
            seen.add(dep)
            out.append(dep)
            queue.extend(self.deps.get(dep, ()))
        return tuple(out)

    def components(self, paths: list[str]) -> list[list[str]]:
        """Partition *paths* into include-connected groups.

        Files linked by an include edge (in either direction) end up in
        the same group, so a scheduler can keep them in one worker chunk
        and reuse the memoized dependency state.  Group order follows the
        first appearance of a member in *paths*.
        """
        index = {p: i for i, p in enumerate(paths)}
        parent = list(range(len(paths)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for path in paths:
            for dep in self.deps.get(path, ()):
                if dep in index:
                    ra, rb = find(index[path]), find(index[dep])
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
        groups: dict[int, list[str]] = {}
        for i, path in enumerate(paths):
            groups.setdefault(find(i), []).append(path)
        return [groups[root] for root in sorted(groups)]


class IncludeResolver:
    """Resolves include facts against the files of one scan."""

    def __init__(self, paths: list[str]) -> None:
        self.paths = list(paths)
        # membership indexes: absolute normalized path and basename
        self._by_abs: dict[str, str] = {}
        self._by_base: dict[str, list[str]] = {}
        for path in self.paths:
            self._by_abs.setdefault(self._abs(path), path)
            self._by_base.setdefault(os.path.basename(path), []).append(path)

    @staticmethod
    def _abs(path: str) -> str:
        return os.path.normcase(os.path.normpath(os.path.abspath(path)))

    # ------------------------------------------------------------------
    def add(self, graph: IncludeGraph, path: str, facts: Facts) -> None:
        """Resolve one file's facts and record them on *graph*.

        A file's edges depend only on its own source text and the project
        file *set* (the resolver's membership indexes) — which is what
        makes :func:`update_include_graph` sound: unchanged files of an
        unchanged file set keep their old edges verbatim.
        """
        deps: list[str] = []
        resolved = unresolved = 0
        for template in facts:
            target = self.resolve_template(template, path)
            if target is None:
                unresolved += 1
                continue
            resolved += 1
            if target != path and target not in deps:
                deps.append(target)
        if deps:
            graph.deps[path] = tuple(deps)
        if resolved:
            graph.resolved[path] = resolved
        if unresolved:
            graph.unresolved[path] = unresolved

    def resolve(self, expr: ast.Node | None, src_path: str) -> str | None:
        """Resolve one include target expression to a project file path."""
        return self.resolve_template(_ast_template(expr), src_path)

    def resolve_template(self, template: Template | None,
                         src_path: str) -> str | None:
        """Resolve one folded include target to a project file path."""
        if template is None:
            return None
        text = os.path.dirname(os.path.abspath(src_path)).join(template)
        if not text:
            return None
        if os.path.isabs(text):
            candidate = os.path.normcase(os.path.normpath(text))
        else:
            candidate = self._abs(
                os.path.join(os.path.dirname(src_path), text))
        hit = self._by_abs.get(candidate)
        if hit is not None:
            return hit
        # best effort: a unique basename anywhere in the project
        matches = self._by_base.get(os.path.basename(text), [])
        if len(matches) == 1:
            return matches[0]
        return None


def build_include_graph(paths: list[str],
                        facts: dict[str, Facts | None] | None = None,
                        ast_store: AstStore | None = None,
                        hashes: dict[str, str] | None = None
                        ) -> IncludeGraph:
    """Resolve the include graph of *paths*.

    Args:
        facts: path -> facts the caller already derived
            (:func:`derive_facts`); ``None`` values still need the AST
            fold.  Files not in it are read and derived here.
        ast_store: the memo facts are served from and stored in.
        hashes: path -> raw content hash, so memoized facts are served
            without reading the file.
    """
    store = ast_store if ast_store is not None else AstStore()
    resolver = IncludeResolver(paths)
    graph = IncludeGraph()
    for path in paths:
        resolver.add(graph, path,
                     _facts_of(store, path, facts, hashes))
    return graph


def update_include_graph(graph: IncludeGraph, paths: list[str],
                         dirty: set[str] | list[str],
                         ast_store: AstStore | None = None,
                         hashes: dict[str, str] | None = None
                         ) -> IncludeGraph:
    """Re-resolve only *dirty* files of an otherwise-unchanged project.

    Incremental counterpart of :func:`build_include_graph` for warm
    re-scans: a file's include edges depend solely on its own source and
    the project file set, so when the file set is unchanged only edited
    files need their facts — clean files carry their edges over verbatim.

    Callers must fall back to a full :func:`build_include_graph` whenever
    files were added or removed (a new file can steal a unique-basename
    resolution from every other file).  Returns a fresh graph; *graph*
    itself is never mutated.
    """
    store = ast_store if ast_store is not None else AstStore()
    resolver = IncludeResolver(paths)
    dirty_set = set(dirty)
    out = IncludeGraph()
    for path in paths:
        if path in dirty_set:
            resolver.add(out, path, _facts_of(store, path, None, hashes))
            continue
        if path in graph.deps:
            out.deps[path] = graph.deps[path]
        if path in graph.resolved:
            out.resolved[path] = graph.resolved[path]
        if path in graph.unresolved:
            out.unresolved[path] = graph.unresolved[path]
    return out


def _facts_of(store: AstStore, path: str,
              facts: dict[str, Facts | None] | None,
              hashes: dict[str, str] | None) -> Facts:
    """*path*'s facts: as the caller derived them, served by content
    hash, or read and derived here."""
    if facts is not None and path in facts:
        got = facts[path]
    else:
        got = store.get_facts(hashes[path]) \
            if hashes and path in hashes else None
        if got is None:
            try:
                with open(path, "rb") as f:
                    raw = f.read()
            except OSError:
                return ()
            got = derive_facts(store, raw, hashlib.sha256(raw).hexdigest(),
                               path)
    return got if got is not None else fallback_facts(store, path)


class IncludeContext:
    """Per-process provider of cross-file analysis state.

    One instance lives in each scan worker (and in the in-process
    detector).  Given a file, it supplies the taint engine with the
    merged function table, the composed dependency summaries and the
    propagated global taint state of the file's include closure,
    memoizing all per-dependency work and (optionally) persisting it
    as the *store*'s ``summary`` kind
    (:class:`~repro.analysis.summaries.SummaryCache`).
    """

    def __init__(self, graph: IncludeGraph,
                 ast_store: AstStore | None = None,
                 store: Store | None = None,
                 metrics=None) -> None:
        self.graph = graph
        self.ast_store = ast_store if ast_store is not None else AstStore()
        self.summary_cache = SummaryCache(store) \
            if store is not None else None
        self.metrics = metrics
        self._programs: dict[str, ast.Program | None] = {}
        self._modules: dict[str, object | None] = {}
        self._keys: dict[str, str | None] = {}
        self._tables: dict[str, dict] = {}
        #: path -> (exported env, own function summaries); the unit the
        #: summary cache persists and includers compose.
        self._states: dict[str, tuple[dict, dict]] = {}
        #: path -> content hash its memoized state was computed from
        #: (guards the preset replay against same-path/other-content).
        self._state_sources: dict[str, str | None] = {}
        self._active: set[str] = set()

    # ------------------------------------------------------------------
    def context_for(self, filename: str, engine
                    ) -> tuple[dict | None, dict | None, dict | None]:
        """(extra_functions, extra_summaries, initial_env) for *filename*.

        Returns ``(None, None, None)`` when the file has no resolved
        includes — the per-file fast path stays untouched.  The summaries
        are composed copies with ``internal_candidates`` stripped: the
        declaring file reports its internal flows, not its includers.
        """
        closure = self.graph.closure(filename)
        if not closure:
            return None, None, None
        extra: dict = {}
        for dep in closure:
            for name, entry in self._function_table(dep).items():
                extra.setdefault(name, entry)
        summaries: dict = {}
        env: dict = {}
        for dep in closure:
            dep_env, dep_summaries = self._state(dep, engine)
            for name, summary in dep_summaries.items():
                if name not in summaries:
                    summaries[name] = self._stripped(summary)
            for var, taints in dep_env.items():
                if var in env:
                    env[var] = env[var] | taints
                else:
                    env[var] = taints
        return (extra or None), (summaries or None), (env or None)

    def preset_for(self, filename: str, source_key: str | None = None
                   ) -> tuple[dict | None, str | None]:
        """(preset summaries, state key to store under) for *filename*.

        The scanned file's *own* summaries may already be known — computed
        earlier in this process when the file was analyzed as someone
        else's dependency, or persisted by the summary cache.  Replaying
        them skips re-interpreting every declared function body.  When
        they are not known, the returned key (non-``None`` only with a
        cache attached) is what :meth:`remember_state` stores under after
        the analysis ran.

        *source_key* is the content hash of the source actually being
        analyzed and is **required** for a replay: memoized/cached state
        belongs to a specific content, and ``detect_source`` may hand the
        same filename different text than what is on disk.
        """
        if source_key is None:
            return None, None
        state = self._states.get(filename)
        if state is not None:
            if self._state_sources.get(filename) == source_key:
                return (state[1] or None), None
            return None, None  # same path, different content
        if self.summary_cache is None:
            return None, None
        key = self._state_key(filename, source_key)
        if key is None:
            return None, None
        state = self._cached_state(key, filename)
        if state is not None:
            self._states[filename] = state
            self._state_sources[filename] = source_key
            return (state[1] or None), None
        return None, key

    def remember_state(self, filename: str, key: str | None,
                       env: dict, summaries: dict,
                       source_key: str | None = None) -> None:
        """Memoize (and persist) *filename*'s just-computed state.

        Called by the detector after a fresh analysis so includers of
        this file — and later processes, via the cache — reuse it.
        """
        state = (env, self._own_summaries(filename, summaries))
        if key is not None and self.summary_cache is not None:
            # always safe: the digest covers the analyzed content, so a
            # later lookup can only hit with identical text
            self.summary_cache.put(key, filename, state[0], state[1])
        if source_key is None:
            return  # content unknown: never path-memoize blindly
        disk = self._keys.get(filename)
        if disk is not None and disk != source_key:
            return  # detect_source text differs from the on-disk file
        self._states[filename] = state
        self._state_sources[filename] = source_key

    # ------------------------------------------------------------------
    def _program(self, path: str) -> ast.Program | None:
        # the per-path memo sits in front of the content-keyed store so a
        # repeat dependency costs neither a read nor a hash
        if path not in self._programs:
            program = key = module = None
            try:
                with open(path, "rb") as f:
                    source = read_source(f.read())
                key = self.ast_store.source_key(source)
                program, _ = self.ast_store.parse_recovering(source, path,
                                                             key)
                module = self.ast_store.module_for(key)
            except (OSError, PhpSyntaxError):
                program = None
            self._programs[path] = program
            self._keys[path] = key
            self._modules[path] = module
        return self._programs[path]

    def _function_table(self, path: str) -> dict:
        table = self._tables.get(path)
        if table is None:
            program = self._program(path)
            if program is None:
                table = {}
            else:
                from repro.analysis.project import (
                    ProjectAnalyzer,
                    ProjectFile,
                )
                table = ProjectAnalyzer.build_function_table(
                    [ProjectFile(path, program)])
            self._tables[path] = table
        return table

    def _state(self, path: str, engine) -> tuple[dict, dict]:
        """(exported env, own summaries) of one dependency, computed once.

        The env is the global taint state *path* leaves behind after its
        top level; the summaries cover the functions *declared in path*
        (foreign names resolve through their own declaring file's state).
        Candidates found while executing the dependency are discarded —
        the dependency reports its own flows when it is scanned itself.
        Cycles contribute nothing on re-entry (PHP ``include_once``
        semantics).
        """
        state = self._states.get(path)
        if state is not None:
            src = self._state_sources.get(path)
            if src is None or src == self._source_key(path):
                return state
            # the memoized state came from detect_source text that is
            # not what is on disk: recompute the dependency from disk
        if path in self._active:
            return {}, {}
        self._active.add(path)
        try:
            program = self._program(path)
            if program is None:
                state = ({}, {})
            else:
                key = self._state_key(path)
                state = self._cached_state(key, path)
                if state is None:
                    extra, composed, init = self.context_for(path, engine)
                    _, env, summaries = engine.analyze_with_state(
                        program, path, extra_functions=extra,
                        initial_env=init,
                        module=self._modules.get(path),
                        extra_summaries=composed)
                    state = (env, self._own_summaries(path, summaries))
                    if key is not None and self.summary_cache is not None:
                        self.summary_cache.put(key, path,
                                               state[0], state[1])
        finally:
            self._active.discard(path)
        self._states[path] = state
        self._state_sources[path] = self._keys.get(path)
        return state

    def _own_summaries(self, path: str, summaries: dict) -> dict:
        """The subset of a run's summaries declared in *path* itself.

        A run also adopts/computes summaries for foreign names; those
        belong to (and are cached under) their declaring file.  Filtering
        preserves completion order, which the preset replay relies on.
        """
        own_names = self._function_table(path)
        return {name: summary for name, summary in summaries.items()
                if name in own_names}

    @staticmethod
    def _stripped(summary):
        if not summary.internal_candidates:
            return summary
        from dataclasses import replace
        return replace(summary, internal_candidates=[])

    # ------------------------------------------------------------------
    # summary-cache plumbing
    # ------------------------------------------------------------------
    def _source_key(self, path: str) -> str | None:
        self._program(path)
        return self._keys.get(path)

    def _state_key(self, path: str,
                   source_key: str | None = None) -> str | None:
        """The summary-cache digest for *path*, or None (cache disabled,
        unreadable file).  Covers content + include closure + knowledge
        fingerprint — the same invalidation discipline as
        :func:`repro.analysis.pipeline.closure_key`.
        """
        if self.summary_cache is None:
            return None
        own = source_key if source_key is not None \
            else self._source_key(path)
        if own is None:
            return None
        base = os.path.dirname(path)
        pairs = [(os.path.relpath(dep, base),
                  self._source_key(dep) or "missing")
                 for dep in self.graph.closure(path)]
        return self.summary_cache.state_key(own, pairs)

    def _cached_state(self, key: str | None,
                      path: str) -> tuple[dict, dict] | None:
        if key is None or self.summary_cache is None:
            return None
        state = self.summary_cache.get(key, path)
        if self.metrics is not None:
            name = "summary_cache_hit" if state is not None \
                else "summary_cache_miss"
            self.metrics.counter(name).inc()
        return state

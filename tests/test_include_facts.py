"""Include edges from tokens: the token folder against the AST fold.

The include resolver reads each file's include facts off its token
stream and parses only files the folder cannot decide.  The AST fold
(parse, walk every ``Include`` node, fold its operand) stays the
reference: on every real file — the evaluation corpus, the include
fixtures, the grammar corpus and the demo app — and on generated
include statements, the token path must yield the same
``deps``/``resolved``/``unresolved``.  Where statement recovery drops a
damaged include statement, the token fact stands (docs/prefilter.md).
"""

from __future__ import annotations

import ast as pyast
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.includes import (
    IncludeGraph,
    IncludeResolver,
    ast_facts,
    build_include_graph,
    token_facts,
    update_include_graph,
)
from repro.analysis.options import ScanOptions
from repro.api import Scanner
from repro.corpus import build_webapp_corpus, build_wordpress_corpus
from repro.exceptions import PhpSyntaxError
from repro.php import ast, parse_with_recovery, tokenize
from repro.php.ast_store import (
    AST_FORMAT,
    EVICTIONS,
    AstStore,
    PackFile,
    Store,
    read_source,
)
from repro.php.visitor import find_all
from repro.tool import Wape

TESTS = os.path.dirname(__file__)
DEMO_APP = os.path.join(TESTS, os.pardir, "examples", "demo_app")


# ---------------------------------------------------------------------------
# the reference: the AST fold exactly as the resolver used to run it
# ---------------------------------------------------------------------------

def _static_text(expr, src_path: str):
    """Fold an include operand to text, or None if it is dynamic."""
    if isinstance(expr, ast.Literal) and expr.kind == "string":
        return str(expr.value)
    if isinstance(expr, ast.ConstFetch) and expr.name.lower() == "__dir__":
        return os.path.dirname(os.path.abspath(src_path))
    if isinstance(expr, ast.FunctionCall) and isinstance(expr.name, str) \
            and expr.name.lower() == "dirname" and len(expr.args) == 1:
        inner = expr.args[0].value \
            if isinstance(expr.args[0], ast.Argument) else expr.args[0]
        if isinstance(inner, ast.ConstFetch) \
                and inner.name.lower() == "__file__":
            return os.path.dirname(os.path.abspath(src_path))
    if isinstance(expr, ast.BinaryOp) and expr.op == ".":
        left = _static_text(expr.left, src_path)
        right = _static_text(expr.right, src_path)
        if left is not None and right is not None:
            return left + right
    if isinstance(expr, ast.InterpolatedString):
        parts = [_static_text(part, src_path) for part in expr.parts]
        if any(part is None for part in parts):
            return None
        return "".join(parts)
    return None


def reference_graph(paths: list[str]) -> IncludeGraph:
    """Parse every file and fold every Include node (the old resolver)."""
    resolver = IncludeResolver(paths)
    graph = IncludeGraph()
    for path in paths:
        with open(path, "rb") as f:
            source = read_source(f.read())
        try:
            program, _ = parse_with_recovery(source, path)
        except PhpSyntaxError:
            continue
        deps: list[str] = []
        resolved = unresolved = 0
        for node in find_all(program, ast.Include):
            text = _static_text(node.expr, path)
            target = resolver.resolve_template((text,), path) \
                if text is not None else None
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
    return graph


def as_tuple(graph: IncludeGraph):
    return graph.deps, graph.resolved, graph.unresolved


def php_files(root: str) -> list[str]:
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        out.extend(os.path.join(dirpath, name)
                   for name in sorted(filenames) if name.endswith(".php"))
    return out


def php_literals(module: str) -> list[str]:
    """Every string constant holding PHP in one of the test modules."""
    with open(os.path.join(TESTS, module), encoding="utf-8") as f:
        tree = pyast.parse(f.read())
    return sorted({node.value for node in pyast.walk(tree)
                   if isinstance(node, pyast.Constant)
                   and isinstance(node.value, str) and "<?" in node.value})


def write_sources(root, sources: list[str]) -> list[str]:
    """One file per source, plus targets the includes can resolve to."""
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, text in enumerate(sources):
        path = root / f"f{i:04d}.php"
        path.write_bytes(text.encode("utf-8"))
        paths.append(str(path))
    for name in ("lib.php", "db.php", "config.php", "lib/a.php",
                 "inc/header.php", "functions.php", "common.php"):
        target = root / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("<?php function helper() { return 1; }\n")
        paths.append(str(target))
    return paths


# ---------------------------------------------------------------------------
# differential: every real file
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestDifferentialOnRealTrees:
    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("corpus")
        build_webapp_corpus(str(root))
        build_wordpress_corpus(str(root))
        return str(root)

    def assert_same(self, paths: list[str]) -> None:
        assert as_tuple(build_include_graph(paths)) \
            == as_tuple(reference_graph(paths))
        for path in paths:
            with open(path, "rb") as f:
                source = read_source(f.read())
            try:
                facts = token_facts(tokenize(source, path))
                program, _ = parse_with_recovery(source, path)
            except PhpSyntaxError:
                continue
            if facts is not None:
                assert facts == ast_facts(program), path

    def test_evaluation_corpus(self, corpus):
        paths = php_files(corpus)
        assert len(paths) > 2000
        self.assert_same(paths)

    def test_corpus_resolves_without_parsing(self, corpus):
        store = AstStore()
        build_include_graph(php_files(corpus), ast_store=store)
        assert store.include_lexes > 2000
        assert store.parses == store.include_fallbacks == 0

    def test_demo_app(self):
        self.assert_same(php_files(DEMO_APP))

    @pytest.mark.parametrize("module", [
        "test_include_analysis.py", "test_php_grammar_corpus.py",
        "test_project_analysis.py", "test_prefilter.py",
        "test_php_edge_cases.py", "test_php_modern_syntax.py"])
    def test_test_fixtures(self, module, tmp_path):
        sources = php_literals(module)
        assert sources
        self.assert_same(write_sources(tmp_path, sources))


# ---------------------------------------------------------------------------
# property: generated include statements
# ---------------------------------------------------------------------------

def _cased(draw, word: str) -> str:
    flips = draw(st.lists(st.booleans(), min_size=len(word),
                          max_size=len(word)))
    return "".join(c.upper() if flip else c for c, flip in zip(word, flips))


_TARGETS = ("lib.php", "lib/a.php", "inc/header.php", "db.php",
            "missing.php", "../lib.php", "/abs/config.php", "")


@st.composite
def operands(draw) -> str:
    target = draw(st.sampled_from(_TARGETS))
    kind = draw(st.sampled_from((
        "sq", "dq", "dir", "dirname", "split", "paren", "var", "concat_var",
        "interp", "escaped", "call", "const", "or_die", "ternary",
        "method", "heredoc")))
    dir_form = draw(st.sampled_from(
        ("__DIR__", "__dir__", "dirname(__FILE__)", "DirName(__file__)",
         "dirname( __FILE__ )", "\\dirname(__FILE__)")))
    if kind == "sq":
        return f"'{target}'"
    if kind == "dq":
        return f'"{target}"'
    if kind == "dir":
        return f"{dir_form} . '/{target}'"
    if kind == "dirname":
        return f"{dir_form}.\"/{target}\""
    if kind == "split":
        head, tail = target[:2], target[2:]
        return f"'{head}' . '{tail}'"
    if kind == "paren":
        return f"({dir_form} . ('/' . '{target}'))"
    if kind == "var":
        return draw(st.sampled_from(("$page", "$_GET['p']", "$$name")))
    if kind == "concat_var":
        return f"'pages/' . $_GET['p'] . '.php'"
    if kind == "interp":
        return draw(st.sampled_from(('"pages/$page.php"',
                                     '"{$dir}/lib.php"')))
    if kind == "escaped":
        return draw(st.sampled_from(('"lib\\x2ephp"', '"lib\\\\a.php"',
                                     '"lib\\$x.php"')))
    if kind == "call":
        return draw(st.sampled_from(("get_path('x')", "Config::path()",
                                     "$o->path()")))
    if kind == "const":
        return f"APP_DIR . '/{target}'"
    if kind == "or_die":
        return f"'{target}' or die('missing')"
    if kind == "ternary":
        return f"$debug ? 'a.php' : '{target}'"
    if kind == "method":
        return f"('{target}')"
    return f"<<<EOT\n{target}\nEOT\n"


@st.composite
def include_statements(draw) -> str:
    keyword = _cased(draw, draw(st.sampled_from(
        ("include", "include_once", "require", "require_once"))))
    operand = draw(operands())
    if draw(st.booleans()) and not operand.startswith("<<<"):
        expr = f"{keyword}({operand})"
    else:
        expr = f"{keyword} {operand}"
    context = draw(st.sampled_from(
        ("stmt", "assign", "if", "return", "func", "arg", "not", "echo")))
    if context == "assign":
        return f"$r = {expr};"
    if context == "if":
        return f"if ({expr}) {{ echo 1; }}"
    if context == "return":
        return f"return {expr};"
    if context == "func":
        return f"function load_it() {{ {expr}; }}"
    if context == "arg":
        return f"check({expr});"
    if context == "not":
        return f"if (!{expr}) exit;"
    if context == "echo":
        return f"echo {expr};"
    return f"{expr};"


_DISTRACTORS = (
    "$o->require('lib.php');",
    "$o?->include('lib.php');",
    "Foo::include('db.php');",
    "Foo::REQUIRE_ONCE;",
    "class Loader { function include($f) { return $f; } "
    "const REQUIRE = 1; }",
    "// include 'lib.php';",
    "# require 'db.php';",
    "/* include_once 'lib.php'; */",
    "$s = 'include \"lib.php\";';",
    "$s = \"require 'db.php'\";",
    "$h = <<<EOT\ninclude 'lib.php';\nEOT;\n",
    "$n = <<<'EOT'\nrequire 'db.php';\nEOT;\n",
    "?><p>include 'lib.php'</p><?php",
    "echo 'required';",
)


@st.composite
def include_files(draw) -> str:
    parts = draw(st.lists(st.one_of(include_statements(),
                                    st.sampled_from(_DISTRACTORS)),
                          min_size=1, max_size=6))
    return "<?php\n" + "\n".join(parts) + "\n"


class TestGeneratedIncludes:
    @given(st.lists(include_files(), min_size=1, max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_token_path_matches_ast_fold(self, tmp_path_factory, sources):
        root = tmp_path_factory.mktemp("gen")
        paths = write_sources(root, sources)
        assert as_tuple(build_include_graph(paths)) \
            == as_tuple(reference_graph(paths))
        shutil.rmtree(root)

    @given(include_files())
    @settings(max_examples=120, deadline=None)
    def test_decided_facts_equal_the_ast_fold(self, source):
        program, warnings = parse_with_recovery(source, "t.php")
        assert not warnings, source
        facts = token_facts(tokenize(source, "t.php"))
        if facts is not None:
            assert facts == ast_facts(program)


class TestFolderUnits:
    def facts(self, body: str):
        return token_facts(tokenize("<?php " + body, "t.php"))

    def test_templates_keep_the_directory_as_a_marker(self):
        assert self.facts("include __DIR__ . '/a.php';") == (("", "/a.php"),)
        assert self.facts("require_once(dirname(__FILE__).'/b.php');") \
            == (("", "/b.php"),)
        assert self.facts("INCLUDE ('x' . ('y.php'));") == (("xy.php",),)

    def test_dynamic_operands_are_decided_without_parsing(self):
        assert self.facts("include $page;") == (None,)
        assert self.facts("include 'p/' . $_GET['p'] . '.php';") == (None,)
        assert self.facts("require 'a.php' or die('x');") == (None,)

    def test_member_and_declaration_names_are_not_includes(self):
        assert self.facts("$o->include('a.php'); Foo::require('b');"
                          " function include() {}") == ()

    def test_undecidable_operands_defer_to_the_ast(self):
        assert self.facts('include "pages/$p.php";') is None
        assert self.facts('include "a\\x2ephp";') is None
        assert self.facts("include <<<E\na.php\nE;\n") is None


# ---------------------------------------------------------------------------
# statement recovery: the rule the token path follows
# ---------------------------------------------------------------------------

class TestRecoveryDroppedIncludes:
    def test_damaged_statement_keeps_its_token_edge(self, tmp_path):
        # recovery drops the whole `if` (the include inside it with it);
        # the token fact stands, so the edge survives
        main = tmp_path / "main.php"
        main.write_text("<?php\nif ($x { include 'lib.php'; }\n"
                        "echo helper();\n")
        lib = tmp_path / "lib.php"
        lib.write_text("<?php function helper() { return 1; }\n")
        paths = [str(main), str(lib)]
        program, warnings = parse_with_recovery(main.read_text(),
                                                str(main))
        assert warnings and not list(find_all(program, ast.Include))
        assert reference_graph(paths).deps == {}
        graph = build_include_graph(paths)
        assert graph.deps == {str(main): (str(lib),)}
        assert graph.resolved == {str(main): 1}


# ---------------------------------------------------------------------------
# the facts path: persisted by content, one file re-derived per edit
# ---------------------------------------------------------------------------

LIB = "<?php function getq() { return $_GET['q']; }\n"
PAGE = '<?php\nREQUIRE_ONCE "lib.php";\necho getq();\n'
CLEAN = "<?php\n// a page without includes\necho 'hello';\n"


def write_tree(root) -> str:
    root.mkdir(parents=True, exist_ok=True)
    (root / "lib.php").write_text(LIB)
    (root / "page.php").write_text(PAGE)
    (root / "clean.php").write_text(CLEAN)
    return str(root)


def xss_in_page(report) -> list:
    return [o for o in report.outcomes if o.vuln_class == "xss"
            and o.candidate.filename.endswith("page.php")]


class TestFactsPersistence:
    def test_facts_live_in_the_ast_tier(self, tmp_path):
        root = write_tree(tmp_path / "app")
        cache_dir = str(tmp_path / "cache")
        tool = Wape()
        cold = tool.analyze_tree(root, ScanOptions(jobs=1,
                                                   cache_dir=cache_dir))
        assert cold.includes.files_lexed == 1  # only page.php hints
        assert os.path.exists(os.path.join(cache_dir, f"ast-v{AST_FORMAT}",
                                           "facts.pkl"))
        # dropping the result tier keeps the facts: nothing is re-lexed
        for name in os.listdir(cache_dir):
            if not name.startswith("ast-v"):
                shutil.rmtree(os.path.join(cache_dir, name))
        again = tool.analyze_tree(root, ScanOptions(jobs=1,
                                                    cache_dir=cache_dir))
        assert again.includes.files_lexed == 0
        assert again.includes.facts_hits == 1
        assert len(xss_in_page(again)) == len(xss_in_page(cold)) == 1

    def test_corrupt_facts_entries_are_evicted(self, tmp_path):
        store = Store(str(tmp_path), "f" * 64)
        pack = PackFile(os.path.join(str(tmp_path), f"ast-v{AST_FORMAT}",
                                     "facts.pkl"))
        pack.put("k", b"not a pickle")
        pack.put("j", b"\x80\x05N.")  # pickled None: not facts
        pack.flush()
        assert store.get("facts", "k") is None
        assert store.get("facts", "j") is None
        assert store.counts["facts"][EVICTIONS] == 2
        store.put("facts", "ok", ((("", "/a.php"),)))
        assert AstStore(disk=store).get_facts("ok") == (("", "/a.php"),)

    def test_daemon_edit_re_derives_one_file(self, tmp_path):
        root = write_tree(tmp_path / "app")
        scanner = Scanner(options=ScanOptions(
            jobs=1, cache_dir=str(tmp_path / "cache")))
        scanner.scan(root)
        with open(os.path.join(root, "page.php"), "a") as f:
            f.write("// edited\n")
        with open(os.path.join(root, "clean.php"), "a") as f:
            f.write("// edited too, still no includes\n")
        warm = scanner.scan(root)
        assert warm.incremental
        assert warm.report.includes.files_lexed == 1
        assert len(xss_in_page(warm.report)) == 1

    def test_update_matches_a_full_build(self, tmp_path):
        root = write_tree(tmp_path / "app")
        paths = php_files(root)
        store = AstStore()
        graph = build_include_graph(paths, ast_store=store)
        page = os.path.join(root, "page.php")
        with open(page, "w") as f:
            f.write("<?php include 'clean.php'; include $x;\n")
        updated = update_include_graph(graph, paths, [page],
                                       ast_store=store)
        assert as_tuple(updated) == as_tuple(build_include_graph(paths))


class TestIncludeWorkIsReported:
    def test_stats_footer_ledger_and_counters(self, tmp_path):
        from repro.obs.ledger import build_record
        from repro.telemetry import Telemetry

        root = write_tree(tmp_path / "app")
        telemetry = Telemetry()
        report = Wape().analyze_tree(root, ScanOptions(
            jobs=1, telemetry=telemetry))
        expected = {"files_lexed": 1, "fallback_parses": 0,
                    "facts_hits": 0}
        assert report.includes.to_dict() == expected
        assert "include facts: 1 lexed, 0 AST fallbacks" \
            in report.render_stats()
        assert report.stats.to_dict()["includes"] == expected
        record = build_record(report, "run", "fp", jobs=1, seconds=0.1)
        assert record["includes"] == expected
        counters = telemetry.metrics.counters
        assert counters["include_files_lexed"].value == 1
        assert counters["include_fallback_parses"].value == 0
        assert counters["include_facts_hits"].value == 0

    def test_no_includes_no_include_stats(self, tmp_path):
        root = write_tree(tmp_path / "app")
        report = Wape().analyze_tree(root, ScanOptions(jobs=1,
                                                       includes=False))
        assert report.includes is None
        assert "include facts" not in report.render_stats()


# ---------------------------------------------------------------------------
# regression: an uppercase include keyword kept its edge only sometimes
# ---------------------------------------------------------------------------

class TestUppercaseIncludeKeyword:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("cache", [False, True])
    @pytest.mark.parametrize("prefilter", [True, False])
    def test_cross_file_finding_survives_every_toggle(self, tmp_path, jobs,
                                                      cache, prefilter):
        root = write_tree(tmp_path / "app")
        options = ScanOptions(
            jobs=jobs, prefilter=prefilter,
            cache_dir=str(tmp_path / "cache") if cache else None)
        report = Wape().analyze_tree(root, options)
        assert len(xss_in_page(report)) == 1
        page = next(f for f in report.files
                    if f.filename.endswith("page.php"))
        assert page.resolved_includes == 1

    def test_warm_scanner_rescan(self, tmp_path):
        root = write_tree(tmp_path / "app")
        scanner = Scanner(options=ScanOptions(
            jobs=1, cache_dir=str(tmp_path / "cache")))
        assert len(xss_in_page(scanner.scan(root).report)) == 1
        with open(os.path.join(root, "page.php"), "a") as f:
            f.write("echo getq();\n")
        warm = scanner.scan(root)
        assert warm.incremental
        assert len(xss_in_page(warm.report)) == 2

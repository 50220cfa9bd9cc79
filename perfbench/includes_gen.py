"""Seeded generator of an include-heavy PHP project with its own ground truth.

The project is the opposite of the paper corpus: every file is
sink-bearing, shared libraries include other libraries (chains of
:data:`CHAIN`, every second one closed into an ``include_once`` cycle),
and every page composes several libraries.  The generator plants each
flow itself, so it also writes down which findings a correct analysis
must report -- the expectation never comes from the tool under test.
The shape is the same for every seed (see :func:`generate`), so a
seed changes the inputs but hardly the work.

Layout::

    lib/wbl_lib_007.php          shared libraries
    pages/g03/wbl_page_0151.php  pages, 50 per directory

Each library ``i`` defines three helpers and one global:

* ``wbl_get_i()``  source helper: returns ``$_GET[...]`` raw, sanitized
  with ``htmlspecialchars``, or delegates to ``wbl_get_j()`` of a library
  it includes (a lib->lib chain), optionally sanitizing the result.
* ``wbl_show_i($v)`` echoes its argument, raw or sanitized.
* ``wbl_find_i($id)`` runs ``mysql_query`` on its argument, raw or
  escaped with ``mysql_real_escape_string``.
* ``$wbl_cfg_i`` is set at top level from ``$_COOKIE`` or a literal.

Pages include libraries with every statically foldable target form
(literal relative path, bare basename, ``__DIR__ . '...'`` and
``dirname(__FILE__) . '...'``) and call the helpers.  The expected
findings follow from the planted flows:

* ``echo wbl_get_L();`` is an XSS finding at the page line iff the
  source chain of ``L`` is unsanitized (both modes).
* ``wbl_show_L($_POST[...])`` / ``wbl_find_L($_GET[...])`` is a finding
  at the helper's sink line iff the helper is raw.  Tree mode reports it
  once per calling page, under the page; ``--project`` mode reports it
  once, under the library.
* ``echo $wbl_cfg_L;`` is an XSS finding at the page line iff the global
  is tainted -- in tree mode only: the project analyzer does not
  propagate top-level state across files.

Findings are keyed ``(reporting file relative to the root, sink line,
class)``: the report entry a finding sits under, which is the page in
tree mode and the candidate's own file in project mode.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass, field

XSS = "xss"
SQLI = "sqli"

PAGES_PER_DIR = 50
#: libraries per include chain
CHAIN = 4
LIB_DIR = "lib"
PAGE_DIR = "pages"

_INCLUDE_KEYWORDS = ("include", "include_once", "require", "require_once")


def lib_path(i: int) -> str:
    return f"{LIB_DIR}/wbl_lib_{i:03d}.php"


def page_path(p: int) -> str:
    return f"{PAGE_DIR}/g{p // PAGES_PER_DIR:02d}/wbl_page_{p:04d}.php"


@dataclass
class Lib:
    """One generated library and the facts its expectation depends on."""

    index: int
    deps: list[int]
    get_tainted: bool = False
    show_line: int = 0
    show_raw: bool = True
    find_line: int = 0
    find_raw: bool = True
    cfg_tainted: bool = False


@dataclass
class Project:
    """A generated project: file texts plus expected findings.

    Attributes:
        files: relative POSIX path -> file text.
        tree: expected real findings of a tree scan, a multiset of
            ``(reporting path, sink line, class)``.
        project: expected real findings of ``--project`` mode.
        libs / pages: relative paths, in index order.
    """

    files: dict[str, str] = field(default_factory=dict)
    tree: Counter = field(default_factory=Counter)
    project: Counter = field(default_factory=Counter)
    libs: list[str] = field(default_factory=list)
    pages: list[str] = field(default_factory=list)

    def write(self, root: str) -> None:
        for rel, text in self.files.items():
            path = os.path.join(root, *rel.split("/"))
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="\n") as f:
                f.write(text)

    @property
    def loc(self) -> int:
        return sum(text.count("\n") + 1 for text in self.files.values())


def _target(rng: random.Random, from_dir_depth: int, rel: str) -> str:
    """A statically foldable include target expression for *rel*."""
    up = "../" * from_dir_depth
    base = rel.rsplit("/", 1)[1]
    form = rng.randrange(4)
    if form == 0:
        return f"'{up}{rel}'" if from_dir_depth else f"'{base}'"
    if form == 1:
        return f"'{base}'"  # unique-basename fallback
    if form == 2:
        return f"__DIR__ . '/{up}{rel}'" if from_dir_depth \
            else f"__DIR__ . '/{base}'"
    return f"dirname(__FILE__) . '/{up}{rel}'" if from_dir_depth \
        else f"dirname(__FILE__) . '/{base}'"


def _lib_text(rng: random.Random, lib: Lib, libs: list[Lib], form: int,
              cycle_back: int | None) -> str:
    i = lib.index
    lines = ["<?php", f"// shared library {i}"]
    for j in lib.deps:
        kw = rng.choice(("include_once", "require_once"))
        lines.append(f"{kw} {_target(rng, 0, lib_path(j))};")
    if cycle_back is not None:
        # include_once back edge: a cycle PHP resolves by skipping re-entry
        lines.append(f"include_once {_target(rng, 0, lib_path(cycle_back))};")
    if lib.cfg_tainted:
        lines.append(f"$wbl_cfg_{i} = $_COOKIE['c{i}'];")
    else:
        lines.append(f"$wbl_cfg_{i} = 'v{i}';")
    if form == 0:
        lines.append(f"function wbl_get_{i}() {{ return $_GET['k{i}']; }}")
        lib.get_tainted = True
    elif form == 1:
        lines.append(f"function wbl_get_{i}() "
                     f"{{ return htmlspecialchars($_GET['k{i}']); }}")
        lib.get_tainted = False
    elif form == 2:
        j = lib.deps[0]
        lines.append(f"function wbl_get_{i}() {{ return wbl_get_{j}(); }}")
        lib.get_tainted = libs[j].get_tainted
    else:
        j = lib.deps[0]
        lines.append(f"function wbl_get_{i}() "
                     f"{{ return htmlspecialchars(wbl_get_{j}()); }}")
        lib.get_tainted = False
    shown = "$v" if lib.show_raw else "htmlspecialchars($v)"
    lines.append(f"function wbl_show_{i}($v) {{ "
                 f"echo '<div>' . {shown} . '</div>'; }}")
    lib.show_line = len(lines)
    arg = "$id" if lib.find_raw else "mysql_real_escape_string($id)"
    lines.append(f"function wbl_find_{i}($id) {{ return mysql_query("
                 f"\"SELECT * FROM t{i} WHERE id = '\" . {arg} . \"'\"); }}")
    lib.find_line = len(lines)
    return "\n".join(lines) + "\n"


def _exact(rng: random.Random, n: int, share: float) -> list[bool]:
    """*n* flags, exactly ``round(n * share)`` of them true, shuffled."""
    k = round(n * share)
    flags = [True] * k + [False] * (n - k)
    rng.shuffle(flags)
    return flags


def generate(seed: int, n_libs: int = 40, n_pages: int = 800,
             libs_per_page: int = 3) -> Project:
    """Build the project for *seed*; the same arguments give the same bytes.

    The shape is the same for every seed, so the work a scan does hardly
    depends on it: libraries form chains of :data:`CHAIN` (every second
    chain closed into an ``include_once`` cycle), every library is
    included by the same number of pages, and each kind of flow is
    planted in an exact share of the (page, library) slots.  The seed
    decides which library sits where, which flows go where, and every
    include form.
    """
    if n_libs < libs_per_page + 1:
        raise ValueError("need more libraries than libraries per page")
    rng = random.Random(f"perfbench-includes:{seed}")
    project = Project()

    # slot q of the chain shape holds library order[q]
    order = list(range(n_libs))
    rng.shuffle(order)
    libs: list[Lib] = [Lib(i, []) for i in range(n_libs)]
    cycle_of: dict[int, int] = {}
    for q in range(n_libs):
        if q % CHAIN < CHAIN - 1 and q + 1 < n_libs:
            libs[order[q]].deps = [order[q + 1]]
        elif (q // CHAIN) % 2 and q % CHAIN:
            head = q - q % CHAIN
            cycle_of[order[q]] = order[head]
    for lib, tainted in zip(libs, _exact(rng, n_libs, 0.5)):
        lib.cfg_tainted = tainted
    show_raw = _exact(rng, n_libs, 0.6)
    find_raw = _exact(rng, n_libs, 0.6)
    with_deps = [q for q in range(n_libs) if libs[order[q]].deps]
    forms = {}
    for q, form in zip(with_deps, _forms(rng, len(with_deps), 4)):
        forms[q] = form
    tails = [q for q in range(n_libs) if q not in forms]
    for q, form in zip(tails, _forms(rng, len(tails), 2)):
        forms[q] = form
    texts = {}
    for q in reversed(range(n_libs)):  # dependencies before dependents
        lib = libs[order[q]]
        lib.show_raw = show_raw[lib.index]
        lib.find_raw = find_raw[lib.index]
        texts[lib.index] = _lib_text(rng, lib, libs, forms[q],
                                     cycle_of.get(lib.index))
    for i in range(n_libs):
        project.files[lib_path(i)] = texts[i]
        project.libs.append(lib_path(i))

    slots = n_pages * libs_per_page
    sanitized = _exact(rng, slots, 0.5)
    show = _exact(rng, slots, 0.5)
    find = _exact(rng, slots, 0.34)
    cfg = _exact(rng, slots, 0.34)
    stride = max(1, n_libs // libs_per_page)
    for p in range(n_pages):
        rel = page_path(p)
        # every library is included by the same number of pages
        chosen = sorted({order[(p + j * stride) % n_libs]
                         for j in range(libs_per_page)})
        lines = ["<?php", f"// page {p}"]
        for j in chosen:
            kw = rng.choice(_INCLUDE_KEYWORDS)
            lines.append(f"{kw} {_target(rng, 2, lib_path(j))};")
        for n, j in enumerate(chosen):
            slot = p * libs_per_page + n
            lib = libs[j]
            lines.append(f"echo wbl_get_{j}();")
            if lib.get_tainted:
                project.tree[(rel, len(lines), XSS)] += 1
                project.project[(rel, len(lines), XSS)] = 1
            if sanitized[slot]:
                lines.append(f"echo htmlspecialchars(wbl_get_{j}());")
            if show[slot]:
                lines.append(f"wbl_show_{j}($_POST['v']);")
                if lib.show_raw:
                    project.tree[(rel, lib.show_line, XSS)] += 1
                    project.project[(lib_path(j), lib.show_line, XSS)] = 1
            if find[slot]:
                lines.append(f"wbl_find_{j}($_GET['id']);")
                if lib.find_raw:
                    project.tree[(rel, lib.find_line, SQLI)] += 1
                    project.project[(lib_path(j), lib.find_line, SQLI)] = 1
            if cfg[slot]:
                lines.append(f"echo $wbl_cfg_{j};")
                if lib.cfg_tainted:
                    project.tree[(rel, len(lines), XSS)] += 1
        project.files[rel] = "\n".join(lines) + "\n"
        project.pages.append(rel)
    return project


def _forms(rng: random.Random, n: int, kinds: int) -> list[int]:
    """*n* source-helper forms, each of *kinds* equally often, shuffled."""
    forms = [i % kinds for i in range(n)]
    rng.shuffle(forms)
    return forms

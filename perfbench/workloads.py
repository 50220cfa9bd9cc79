"""Workload inputs, the timed operations, and the check on each output.

Every operation is timed around the program call only; its output is
checked afterwards against ground truth that does not come from the tool:
the paper's constants for the corpus (``repro.corpus``), and the planted
flows of :mod:`perfbench.includes_gen` for the include project and the
daemon's edits.  A wrong or failed operation is counted, never dropped.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass

from perfbench import checks
from perfbench.includes_gen import Project, generate

#: the paper's armed configuration: every builtin weapon
WEAPON_FLAGS = ("-nosqli", "-hei", "-wpsqli")


@dataclass(frozen=True)
class Spec:
    """What one workload builds and how often each operation runs.

    Attributes:
        libs / pages: size of the include project (``pages=0``: none; the
            operations then run on the paper corpus).  The batch
            operations and the edit loop use the same root; the loop
            writes to the daemon's own copy of it.
        rounds: batch rounds in a measured run (see :meth:`Run.batch`).
        appends / noops / reverts: operations of each kind in one pass of
            the edit loop's schedule (see :func:`schedule`).
        lib_writes: library writes in one pass (``None``: every library of
            the root once); every library is written once before any is
            written again.
    """

    libs: int
    pages: int
    rounds: int
    appends: int
    noops: int
    reverts: int
    lib_writes: int | None = None

    @property
    def root(self) -> str:
        """The root every operation of the workload runs on."""
        return "includes" if self.pages else "corpus"


SPECS = {
    "corpus": Spec(libs=0, pages=0, rounds=4, appends=40, noops=16,
                   reverts=2),
    "includes": Spec(libs=12, pages=200, rounds=6, appends=48, noops=16,
                     reverts=2),
}
#: warm scans and ``--fix`` steps per batch round
WARM_PER_ROUND = 3
FIX_PER_ROUND = 2

#: loop operations of a traced run
TRACED_LOOP_OPS = 40


#: iterations of the host-speed probe: about 2 ms of interpreter work
PROBE_LOOPS = 30000


def host_probe() -> float:
    """Seconds a fixed interpreter loop takes now: the host's speed.

    On a shared host the speed of the CPU a run gets drifts and jumps
    (by up to about 2x, for a second to minutes at a time).  The probe
    runs before and after each timed operation, untimed, and the
    operation's time is scaled by it (see ``run.normalized``); it does
    not depend on the program under test.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method) of at least two values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """One measured run of a workload inside a fresh interpreter."""

    def __init__(self, workload: str, seed: int, workdir: str, tool,
                 recorder=None) -> None:
        self.workload = workload
        self.spec = SPECS[workload]
        self.seed = seed
        self.workdir = workdir
        self.tool = tool
        self.rec = recorder
        self.samples: dict[str, list[float]] = {}
        #: metric -> the slower host probe around each of its samples
        self.probes: dict[str, list[float]] = {}
        self.last_probe = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.roots: dict[str, str] = {}
        self.project: Project | None = None
        self.sizes: dict[str, dict] = {}
        self.edit_mix: Counter = Counter()
        self.warm_dir: str | None = None
        #: the daemon's copy of the root, which the edit loop writes to
        self.live = ""
        self.fixes: dict[str, list] | None = None
        self.queue_seconds: list[float] = []
        self.service = None
        self.client = None
        self.edits: EditState | None = None
        self._op_id = 0
        self._dirs = 0

    # -- bookkeeping -----------------------------------------------------
    def fresh_dir(self, tag: str) -> str:
        self._dirs += 1
        path = os.path.join(self.workdir, f"{tag}-{self._dirs}")
        os.makedirs(path)
        return path

    def _begin(self, name: str):
        if self.rec is None or not self.rec.on:
            return None
        self._op_id += 1
        self.rec.op = self._op_id
        return self.rec.begin("op." + name)

    def _end(self, span) -> None:
        if span is not None:
            self.rec.end(span)

    def timed(self, name: str, fn, collect: bool = False):
        """Run *fn* timed; returns (result, seconds), errors recorded.

        *collect* runs a full garbage collection first (untimed), so a
        batch operation does not pay for the garbage its predecessors
        left behind.
        """
        if collect:
            gc.collect()
        before = host_probe()
        span = self._begin(name)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a crash is a failed operation
            self._end(span)
            self.attempted += 1
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - start
        seconds = time.perf_counter() - start
        self._end(span)
        self.last_probe = max(before, host_probe())
        return result, seconds

    def verdict(self, name: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems[:5]))
            return False
        return True

    def sample(self, metric: str, value: float) -> None:
        """Record a sample of the last timed operation."""
        self.samples.setdefault(metric, []).append(value)
        self.probes.setdefault(metric, []).append(self.last_probe)

    # -- inputs ----------------------------------------------------------
    def build_inputs(self) -> None:
        spec = self.spec
        root = os.path.join(self.workdir, spec.root)
        if spec.pages:
            self.project = generate(self.seed, spec.libs, spec.pages)
            self.project.write(root)
        else:
            from repro.corpus import (build_webapp_corpus,
                                      build_wordpress_corpus)
            build_webapp_corpus(root)
            build_wordpress_corpus(root)
        self.roots[spec.root] = root
        # the loop edits its own copy, so batch rounds between loop
        # chunks still scan the generated text
        self.live = os.path.join(self.workdir, "live-" + spec.root)
        _copy_tree(root, self.live)
        for name, root in self.roots.items():
            files = loc = 0
            for dirpath, _dirs, names in os.walk(root):
                for fname in names:
                    with open(os.path.join(dirpath, fname), "rb") as f:
                        loc += f.read().count(b"\n") + 1
                    files += 1
            self.sizes[name] = {"files": files, "loc": loc}

    # -- checks ----------------------------------------------------------
    def check_tree(self, kind: str, report) -> list[str]:
        root = self.roots[kind]
        if kind == "corpus":
            return checks.corpus_problems(checks.report_totals(report))
        found = checks.tree_findings(report, root)
        return checks.includes_problems(found, self.project.tree,
                                        checks.report_totals(report))

    def check_project(self, kind: str, report) -> list[str]:
        root = self.roots[kind]
        if kind == "corpus":
            return checks.corpus_problems(checks.report_totals(report))
        found = checks.project_findings(report, root)
        return checks.includes_problems(found, self.project.project,
                                        checks.report_totals(report))

    # -- batch operations --------------------------------------------------
    def _checked(self, op: str, metric: str, call, check):
        """Time *call*, check its report; returns (report or None, secs)."""
        report, secs = self.timed(op, call, collect=True)
        if report is None or not self.verdict(op, check(report)):
            return None, secs
        self.sample(metric, secs)
        return report, secs

    def batch(self, rounds: int, jobs2: bool = True) -> Counter:
        """Rounds of cold, warm, summary-warm, project and fix operations.

        Each round runs every operation once (warm and fix
        :data:`WARM_PER_ROUND` and :data:`FIX_PER_ROUND` times).
        ``jobs2=False`` leaves out the ``jobs=2`` cold scan, whose work
        runs in pool workers a traced pass cannot see.  Returns the wall
        seconds of each operation kind, summed over the rounds, so a
        traced run can compare passes.
        """
        from repro.analysis.options import ScanOptions

        kind = self.spec.root
        root = self.roots[kind]
        tool = self.tool
        walls: Counter = Counter()

        def tree_scan(op: str, metric: str, jobs: int, cache_dir: str):
            report, secs = self._checked(
                op, metric,
                lambda: tool.analyze_tree(root, ScanOptions(
                    jobs=jobs, cache_dir=cache_dir)),
                lambda report: self.check_tree(kind, report))
            walls[op] += secs
            return report

        for _ in range(rounds):
            cache = self.fresh_dir("cache")
            report = tree_scan("cold", "cold_scan_s", 1, cache)
            if self.fixes is None and report is not None:
                self.fixes = _fix_targets(report)
            for _ in range(WARM_PER_ROUND):
                tree_scan("warm", "warm_scan_s", 1, cache)
            if jobs2:
                scratch = self.fresh_dir("cache")
                tree_scan("cold_jobs2", "cold_scan_jobs2_s", 2, scratch)
                shutil.rmtree(scratch)
            drop_result_tier(cache)
            tree_scan("summary_warm", "summary_warm_scan_s", 1, cache)
            _report, secs = self._checked(
                "project", "project_scan_s",
                lambda: tool.analyze_project(root, ScanOptions(jobs=1)),
                lambda report: self.check_project(kind, report))
            walls["project"] += secs
            if self.fixes is not None:
                for _ in range(FIX_PER_ROUND):
                    walls["fix"] += self._fix(root, self.fixes)
            self.warm_dir = cache
        return walls

    def _fix(self, root: str, fixes: dict) -> float:
        """``--fix``: correct every file holding a real finding's sink.

        The corrected sources are written to the null device.  Written to
        files, the time was mostly the file system's and drifted with its
        state: overwriting an earlier fix's copies made each fix slower
        than the one before (a truncated file is flushed on close), and
        creating new copies cost a millisecond per file in some trees.
        :meth:`check_fixed` writes and rescans a corrected tree, untimed.
        """
        corrector = self.tool.corrector

        def fix_all():
            return {path: len(corrector.correct_file(
                        path, cands, os.devnull).applied)
                    for path, cands in fixes.items()}

        applied, secs = self.timed("fix", fix_all, collect=True)
        if applied is not None:
            problems = [f"{os.path.relpath(p, root)}: {applied[p]} fixes "
                        f"for {len(fixes[p])} findings"
                        for p in fixes if applied[p] != len(fixes[p])]
            if self.verdict("fix", problems):
                self.sample("fix_s", secs)
        return secs

    def check_fixed(self) -> None:
        """Untimed: a corrected copy of the tree rescans to zero real
        findings."""
        from repro.analysis.options import ScanOptions

        if not self.fixes:
            return
        root = self.roots[self.spec.root]
        whole = self.fresh_dir("fixed")
        _copy_tree(root, whole)
        try:
            for path, cands in self.fixes.items():
                self.tool.corrector.correct_file(
                    path, cands, os.path.join(whole,
                                              os.path.relpath(path, root)))
            rescan = self.tool.analyze_tree(
                whole, ScanOptions(jobs=1, cache_dir=self.warm_dir))
        except Exception as exc:
            self.verdict("fix-rescan", [f"{type(exc).__name__}: {exc}"])
            return
        totals = checks.report_totals(rescan)
        problems = []
        if totals["real"]:
            problems.append(f"{totals['real']} real findings remain")
        if totals["parse_errors"]:
            problems.append(f"{totals['parse_errors']} parse errors")
        self.verdict("fix-rescan", problems)

    # -- the daemon's closed loop -----------------------------------------
    def start_daemon(self) -> None:
        """Start the daemon on loopback, on the cache dir the first batch
        round populated, and scan its root once (untimed)."""
        from repro.analysis.options import ScanOptions
        from repro.service import ScanService
        from repro.service.client import ServiceClient

        span = self._begin("daemon_start")
        self.service = ScanService(
            self.tool, ScanOptions(jobs=1, cache_dir=self.warm_dir), port=0)
        self.service.start_background()
        self._end(span)
        self.client = ServiceClient(port=self.service.port, timeout=120.0)
        self.edits = EditState(self)
        self.edits_rng = random.Random(
            f"perfbench-edits:{self.seed}:{self.workload}")
        self._scan_and_check("first_scan")

    def stop_daemon(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service.close()
            self.service = None
        if self.edits is not None:
            self.edits.restore()

    def edit_loop(self, ops: int) -> float:
        """Run the next *ops* operations of the seeded edit loop.

        The loop is closed: one client, each request waits for its
        reply.  Returns the seconds the operations took.
        """
        start = time.perf_counter()
        for _ in range(ops):
            kind = self.edits.step(self.edits_rng)
            self.edit_mix[kind] += 1
            self._scan_and_check(kind, kind + "_ms")
        return time.perf_counter() - start

    def measured(self, seconds: float) -> None:
        """The measured run: batch rounds and edit-loop chunks in turn.

        The machine's speed drifts over seconds, so each metric's samples
        are spread over the whole run rather than one stretch of it: each
        batch round is followed by an equal share of the loop's *seconds*.
        The loop runs at least one whole pass of its schedule, so every
        kind of operation is sampled.
        """
        rounds = self.spec.rounds
        loop_s = 0.0
        for index in range(rounds):
            self.batch(1)
            if self.service is None:
                self.start_daemon()
            while loop_s < seconds * (index + 1) / rounds:
                loop_s += self.edit_loop(1)
        self.edit_loop(max(0, len(self.edits.schedule) - self.edits.counter))
        self.check_fixed()

    def _scan_and_check(self, kind: str, metric: str | None = None) -> None:
        root = self.live
        state = self.edits
        data, secs = self.timed("daemon." + kind,
                                lambda: self.client.scan(root))
        if data is None:
            return
        if self.spec.root == "corpus":
            problems = checks.corpus_problems(
                checks.dict_totals(data), appended=state.corpus_appended)
            problems += state.corpus_line_problems(data)
        else:
            found = checks.dict_findings(data, root)
            problems = checks.includes_problems(
                found, state.expected_includes(), checks.dict_totals(data))
        if self.verdict(kind, problems) and metric is not None:
            self.sample(metric, secs * 1000.0)
        service_block = data.get("service") or {}
        self.queue_seconds.append(service_block.get("queue_seconds", 0.0))


def schedule(counts: dict[str, int]) -> list[str]:
    """One pass of the edit loop: each kind's operations evenly spread.

    The counts per kind are a synthetic assumption (no recorded editing
    traffic exists to derive them from); the loop metrics are reported
    per kind, so no metric is a blend of the assumed shares.
    """
    slots = sorted(((i + 0.5) / n, kind)
                   for kind, n in counts.items() for i in range(n))
    return [kind for _slot, kind in slots]


class EditState:
    """The edit sequence's files and the findings they should produce.

    Writes, all to the daemon's copy of the workload's root: append a
    vulnerable line to a page (its dirty closure is the page alone),
    append a function to a library without changing any finding (dirty
    closure: every includer; the corpus's ``lib.php`` files have none),
    and revert an edited file to its generated text.  Reads: a no-op
    rescan of the root.
    """

    def __init__(self, run: Run) -> None:
        self.run = run
        self.root = run.spec.root
        self.original: dict[str, bytes] = {}
        #: path -> appended vulnerable lines (line numbers)
        self.appended: dict[str, list[int]] = {}
        self.counter = 0
        root = run.live
        if self.root == "includes":
            self.pages = [os.path.join(root, *rel.split("/"))
                          for rel in run.project.pages]
            self.libs = [os.path.join(root, *rel.split("/"))
                         for rel in run.project.libs]
        else:
            # pages end in HTML mode and take an appended PHP block; the
            # rest are the corpus's libraries, which end in PHP mode
            self.pages, self.libs = [], []
            for dirpath, dirs, names in os.walk(root):
                dirs.sort()
                for fname in sorted(names):
                    path = os.path.join(dirpath, fname)
                    with open(path, "rb") as f:
                        is_page = f.read().endswith(b"</html>\n")
                    (self.pages if is_page else self.libs).append(path)
        spec = run.spec
        self.schedule = schedule({
            "append": spec.appends,
            "lib": spec.lib_writes or len(self.libs),
            "noop": spec.noops, "revert": spec.reverts})
        self.lib_queue: list[str] = []

    @property
    def corpus_appended(self) -> int:
        """Vulnerable lines the loop has added to the corpus."""
        if self.root != "corpus":
            return 0
        return sum(len(lines) for lines in self.appended.values())

    def _remember(self, path: str) -> bytes:
        if path not in self.original:
            with open(path, "rb") as f:
                self.original[path] = f.read()
        with open(path, "rb") as f:
            return f.read()

    def step(self, rng: random.Random) -> str:
        """Apply the next operation; returns its kind.

        Kinds follow :attr:`schedule` (a revert becomes a page append
        while nothing is edited yet); the files are seeded choices, and
        every library is written once before any is written again.
        """
        kind = self.schedule[self.counter % len(self.schedule)]
        if kind == "revert" and not self.original:
            kind = "append"
        self.counter += 1
        if kind == "noop":
            return kind
        if kind == "revert":
            path = rng.choice(sorted(self.original))
            with open(path, "wb") as f:
                f.write(self.original.pop(path))
            self.appended.pop(path, None)
        elif kind == "lib":
            if not self.lib_queue:
                self.lib_queue = rng.sample(self.libs, len(self.libs))
            path = self.lib_queue.pop()
            self._remember(path)
            with open(path, "ab") as f:
                f.write(f"function wbl_pad_{self.counter}() "
                        f"{{ return {self.counter}; }}\n".encode())
        else:
            path = rng.choice(self.pages)
            current = self._remember(path)
            line = current.count(b"\n") + 1
            if self.root == "corpus":
                text = f"<?php echo $_GET['e{self.counter}']; ?>\n"
            else:
                text = f"echo $_GET['e{self.counter}'];\n"
            with open(path, "ab") as f:
                f.write(text.encode())
            self.appended.setdefault(path, []).append(line)
        return kind

    def restore(self) -> None:
        """Put every edited file back to its generated text."""
        for path, text in self.original.items():
            with open(path, "wb") as f:
                f.write(text)
        self.original.clear()
        self.appended.clear()

    def expected_includes(self) -> Counter:
        expected = Counter(self.run.project.tree)
        if self.root != "includes":
            return expected
        root = self.run.live
        for path, lines in self.appended.items():
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            for line in lines:
                expected[(rel, line, checks.XSS)] += 1
        return expected

    def corpus_line_problems(self, data: dict) -> list[str]:
        """Each appended corpus line must be reported where it was put."""
        if self.root != "corpus":
            return []
        found = Counter()
        for entry in data.get("files") or ():
            for finding in entry.get("findings") or ():
                if finding.get("verdict") == "real":
                    found[(entry["path"], finding.get("sink_line"))] += 1
        problems = []
        for path, lines in self.appended.items():
            for line in lines:
                if not found.get((path, line)):
                    problems.append(f"no finding at {path}:{line}")
        return problems


def _fix_targets(report) -> dict[str, list]:
    """File -> the distinct real candidates whose sink is in that file."""
    by_file: dict[str, dict] = {}
    for file_report in report.files:
        for outcome in file_report.real:
            cand = outcome.candidate
            by_file.setdefault(cand.filename, {})[cand.key()] = cand
    return {path: list(cands.values())
            for path, cands in sorted(by_file.items())}


def _copy_tree(src: str, dest: str) -> None:
    """Copy every file of *src* into *dest*, keeping relative paths."""
    for dirpath, _dirs, names in os.walk(src):
        target = os.path.join(dest, os.path.relpath(dirpath, src))
        os.makedirs(target, exist_ok=True)
        for name in names:
            shutil.copyfile(os.path.join(dirpath, name),
                            os.path.join(target, name))


def drop_result_tier(cache_dir: str) -> None:
    """Remove the result cache, keeping the AST and summary tier."""
    for name in os.listdir(cache_dir):
        path = os.path.join(cache_dir, name)
        if os.path.isdir(path) and not name.startswith("ast-v"):
            shutil.rmtree(path)

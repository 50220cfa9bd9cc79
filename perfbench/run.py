"""The benchmark of record: two workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 8 --trace 0

Workloads (WAPe armed with ``-nosqli -hei -wpsqli``), each with batch
scans and a closed edit loop against an in-process ``ScanService``:

* ``corpus``      the paper's 169-package Tables V-VII corpus.
* ``includes``    a seeded include-heavy project (``includes_gen``).

``--trace 0`` prints the end-to-end metrics, measured untraced:
``setup_s`` is the median of three fresh interpreters (import + tool
construction); every other time is the median (or the named
percentile) of the run's samples; every time is scaled to a reference
host's speed (see :func:`normalized`); the edit metrics come from the
closed loop, per kind of write (page appends, library writes).
``--trace 1`` prints the per-layer metrics of one traced run.  The last
line of standard output is the result object; the line before it is the
run's provenance record.  The exit code is 1 when any operation failed its output check,
2 when the program sources are missing.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, ROOT)

from perfbench.workloads import SPECS, host_probe, percentile  # noqa: E402

#: the end-to-end metrics, name -> unit
END_TO_END = {
    "setup_s": "s", "cold_scan_s": "s", "cold_scan_jobs2_s": "s",
    "warm_scan_s": "s", "summary_warm_scan_s": "s", "project_scan_s": "s",
    "fix_s": "s", "edit_p50_ms": "ms", "edit_p90_ms": "ms",
    "lib_edit_p50_ms": "ms",
    "noop_rescan_ms": "ms", "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 3
#: the reference host of every reported time: the one whose
#: ``host_probe`` takes 2 ms
REFERENCE_PROBE_S = 0.002
#: how a probe's slowdown scales a sample: the program slows more than
#: the probe when the host does (about 2x against 1.5x), and of 1, 1.25,
#: 1.5 and 1.75 this slope left the least spread in six ten-run sets
PROBE_EXPONENT = 1.25
#: a run must finish well inside the 180 s a run may take
CHILD_DEADLINE_S = 170.0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_rate", "_share", ".overhead", "_per_real",
                      "_per_unique_content", "_per_parsed_file")) \
            or name == "error_rate":
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _child(role: str, args, workdir: str, deadline: float,
           extra: list[str] = ()) -> dict:
    out = os.path.join(workdir, f"{role}-{time.monotonic_ns()}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, os.path.join(HERE, "measure.py"),
           "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", workdir, "--out", out, *extra]
    spawn_probe = host_probe()
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT,
                            stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{role} process exceeded the run deadline")
    finally:
        if proc.poll() is None:  # deadline, or this process was stopped
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"{role} process exited with code {code}")
    with open(out, encoding="utf-8") as f:
        result = json.load(f)
    result["spawn_probe"] = spawn_probe
    return result


def _source_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirs, names in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def normalized(values: list[float], probes: list[float]) -> list[float]:
    """Each sample scaled to the reference host's speed.

    A shared host runs a benchmark at a speed that drifts and jumps (by
    up to about 2x) between seconds and between runs, so raw times of the
    same code spread up to half their value from run to run.  Each sample
    is multiplied by :data:`REFERENCE_PROBE_S` over the slower of the host
    probes taken just before and after it, to the power
    :data:`PROBE_EXPONENT`: the time the operation would take on a host
    where the probe takes 2 ms.
    """
    return [value * (REFERENCE_PROBE_S / probe) ** PROBE_EXPONENT
            for value, probe in zip(values, probes)] or [0.0]


def _setup_seconds(result: dict) -> float:
    """A set-up time, scaled by the probes around the spawn and build."""
    probe = max(result["spawn_probe"], result["setup_probe"])
    return normalized([result["setup_s"]], [probe])[0]


def _end_to_end(result: dict, setups: list[float]) -> dict:
    samples, probes = result["samples"], result["probes"]

    def scaled(key):
        return normalized(samples.get(key) or [], probes.get(key) or [])

    def med(key):
        return statistics.median(scaled(key))

    appends = scaled("append_ms")
    values = {
        "setup_s": statistics.median(setups),
        "cold_scan_s": med("cold_scan_s"),
        "cold_scan_jobs2_s": med("cold_scan_jobs2_s"),
        "warm_scan_s": med("warm_scan_s"),
        "summary_warm_scan_s": med("summary_warm_scan_s"),
        "project_scan_s": med("project_scan_s"),
        "fix_s": med("fix_s"),
        "edit_p50_ms": statistics.median(appends),
        "edit_p90_ms": percentile(appends, 90),
        "lib_edit_p50_ms": med("lib_ms"),
        "noop_rescan_ms": med("noop_ms"),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + CHILD_DEADLINE_S
    # a stop request unwinds through the finally blocks, which stop the
    # child process and remove the run's scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program sources under src/repro",
              file=sys.stderr)
        return 2
    # the build step: byte-compile once so set-up times never include it
    compileall.compile_dir(SRC, quiet=1)

    base = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(base, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            spans = os.path.join(base, f"spans-{args.workload}-"
                                       f"s{args.seed}.json")
            result = _child("trace", args, workdir, deadline,
                            ["--spans", spans])
            metrics = {name: {"value": value, "unit": layer_unit(name)}
                       for name, value in result["layers"].items()}
            raw_setups, setups = [], []
        else:
            raw_setups = [_child("setup", args, workdir, deadline)
                          for _ in range(SETUP_SAMPLES - 1)]
            result = _child("measure", args, workdir, deadline)
            raw_setups.append(result)
            setups = [_setup_seconds(raw) for raw in raw_setups]
            metrics = _end_to_end(result, setups)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(result["failures"])
    attempted = max(1, result["attempted"])
    for failure in result["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    sys.path.insert(0, SRC)
    from repro.analysis.options import ScanOptions
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(),
        "jobs": {"cold_scan_s": ScanOptions(jobs=1).resolved_jobs(),
                 "cold_scan_jobs2_s": ScanOptions(jobs=2).resolved_jobs()},
        "git_commit": _git_commit(), "src_sha256": _source_digest(),
        "inputs": result["sizes"], "edit_mix": result["edit_mix"],
        "samples": {k: len(v) for k, v in result["samples"].items()},
        "reference_probe_s": REFERENCE_PROBE_S,
        "sample_probes": result["probes"],
        "sample_values": result["samples"],
        "setup_samples": setups,
        "setup_raw": [[raw["setup_s"], raw["spawn_probe"],
                       raw["setup_probe"]] for raw in raw_setups],
        "error_rate": failed / attempted,
        "failures": result["failures"],
    }
    print("perfbench-provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

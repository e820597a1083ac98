"""Benchmark for delta-sums: fresh-interpreter workloads with oracle checks.

Usage:
    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every iteration of a workload runs in a new interpreter started from this
process, so each one pays for the package import, the module-level caches and
the lazy window build exactly as a command-line user does. Iterations repeat,
one at a time, while another fits in --seconds; the first one always runs.

--trace 0 reports the end-to-end metrics: wall_s and cpu_s are means over
the iterations, peak_rss_mb a median, and setup_s a median that also takes in
extra import-only processes. The three times are in reference seconds: each
is scaled by REFERENCE_S over the mean time of reference.py, a fixed kernel
run in fresh interpreters between the iterations, which cancels the drift of
the host's speed; the raw values are printed too.

--trace 1 alternates traced and untraced iterations and reports the
per-layer metrics of the traced ones (medians) plus the tracing overhead
(mean traced wall_s minus mean untraced wall_s).

The first iteration of a run checks its outputs against the oracles; every
iteration's output digest must equal the first one recorded for the seed.

Readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata, util
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "deltasums"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
from workloads import PARAMS, WORKLOADS  # noqa: E402

SETUP_PROBES = 3
# The reference kernel's time on the host the benchmark was written on; the
# end-to-end times are reported as if every run had found the host that fast.
REFERENCE_S = 0.6
CHILD_TIMEOUT_S = 170
# Pinned in every child: unpinned, OpenBLAS runs the Voronoi mat-vecs of
# `verify` on two threads and cpu_s exceeds wall_s.
THREAD_VARS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """A child process failed or the program under test is missing."""


def run_child(workload: str, seed: int, trace: bool, workdir: Path, check: bool = True) -> dict:
    """Run child.py in a fresh interpreter; its own temp dir and tau cache path.

    check=False skips the oracles; the output digest is still reported.
    """
    workdir.mkdir(parents=True)
    env = dict(os.environ, **THREAD_VARS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["DELTA_SUMS_CACHE"] = str(workdir / "tau_table.txt")
    flags = [str(seed), str(int(trace)), str(int(check))]
    argv = [sys.executable, str(HERE / "child.py"), workload, *flags, str(workdir)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=workdir, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} child exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["import_done"] - start
    result["traced"] = trace
    return result


def run_reference() -> float:
    """Time of the reference kernel in a fresh interpreter."""
    env = dict(os.environ, **THREAD_VARS)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "reference.py")],
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"reference kernel exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"reference kernel exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    """Hash of the program and benchmark sources: the determinism ledger's key."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def digest_mismatches(workload: str, seed: int, digests: list) -> int:
    """Compare output digests with the first recorded for this seed and source.

    The ledger lives in the checkout, so repeated runs of one seed are checked
    against each other, not only the iterations of a single run.
    """
    ledger_path = WORK / "digests.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
    key = f"{workload}:{seed}:{source_digest()}"
    reference = ledger.setdefault(key, digests[0])
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return sum(d != reference for d in digests)


def commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "sympy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "gmpy2": util.find_spec("gmpy2") is not None,
        "commit": commit(),
        "threads": THREAD_VARS,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "params": PARAMS[workload],
    }


def repeat(step, deadline: float, minimum: int) -> list:
    """step(i) for i = 0, 1, ...: at least minimum calls, then more while one
    as long as the longest so far still ends before the deadline."""
    results, longest = [], 0.0
    while len(results) < minimum or time.perf_counter() + longest < deadline:
        start = time.perf_counter()
        results.append(step(len(results)))
        longest = max(longest, time.perf_counter() - start)
    return results


def iterate(workload: str, seed: int, seconds: int, trace: bool, rundir: Path):
    """Workload iterations, then set-up probes in the time left.

    An untraced run brackets every iteration with reference runs and pairs
    each set-up probe with one; a traced run alternates traced and untraced
    iterations and has no probes or reference runs.
    """
    deadline = time.perf_counter() + seconds
    if trace:
        cycle = (True, False)
        iterations = repeat(
            lambda i: run_child(workload, seed, cycle[i % 2], rundir / f"iter{i}", i == 0),
            deadline,
            len(cycle),
        )
        return [], [], iterations

    refs = [run_reference()]

    def step(i: int) -> dict:
        it = run_child(workload, seed, False, rundir / f"iter{i}", i == 0)
        refs.append(run_reference())
        return it

    def probe(i: int) -> dict:
        refs.append(run_reference())
        return run_child("setup", seed, False, rundir / f"setup{i}")

    iterations = repeat(step, deadline, 1)
    probes = repeat(probe, deadline, SETUP_PROBES)
    return refs, probes, iterations


def summarize(
    workload: str, seed: int, trace: bool, refs: list, probes: list, iterations: list
) -> tuple:
    """The result object, and the raw end-to-end values (empty when traced)."""
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    digests = [it["digest"] for it in iterations if it["digest"] is not None]
    if digests:
        attempted += len(digests)
        failed += digest_mismatches(workload, seed, digests)

    untraced = [it for it in iterations if not it["traced"]]
    raw = {}
    if trace:
        traced = [it for it in iterations if it["traced"]]
        values = {
            name: statistics.median(it["layers"][name] for it in traced)
            for name in tracer.metric_units()
            if name != tracer.OVERHEAD_METRIC
        }
        values[tracer.OVERHEAD_METRIC] = statistics.fmean(
            it["wall_s"] for it in traced
        ) - statistics.fmean(it["wall_s"] for it in untraced)
        units = tracer.metric_units()
    else:
        raw["setup_s"] = statistics.median(r["setup_s"] for r in probes + untraced)
        # The host's speed wanders over seconds; a mean averages that out where
        # the median of a few iterations jumps between fast and slow spells.
        for name in ("wall_s", "cpu_s"):
            raw[name] = statistics.fmean(it[name] for it in untraced)
        raw["reference_s"] = statistics.fmean(refs)
        scale = REFERENCE_S / raw["reference_s"]
        values = {name: raw[name] * scale for name in ("setup_s", "wall_s", "cpu_s")}
        values["peak_rss_mb"] = statistics.median(it["peak_rss_mb"] for it in untraced)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, raw


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    rundir = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        refs, probes, iterations = iterate(workload, seed, seconds, trace, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    summary, raw = summarize(workload, seed, trace, refs, probes, iterations)
    kinds = "traced/untraced" if trace else "untraced"
    print(
        f"workload {workload}: {len(iterations)} {kinds} iteration(s), "
        f"{len(probes)} setup probe(s), {len(refs)} reference run(s)"
    )
    print("env " + json.dumps(environment(workload, seed, seconds, trace), sort_keys=True))
    for name, metric in summary["metrics"].items():
        print(f"  {name:<58} {metric['value']:>14.6f} {metric['unit']}")
    for name, value in raw.items():
        print(f"  {'raw ' + name:<58} {value:>14.6f} s")
    rate = summary["failed"] / summary["attempted"]
    print(f"  {'error_rate':<58} {rate:>14.6f} ratio ({summary['failed']} of {summary['attempted']} failed)")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=44)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: program sources not found at {PACKAGE}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            print(json.dumps(run_workload(name, args.seed, args.seconds, bool(args.trace))))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""vcross benchmark entry point: one workload per call, outputs checked.

    python3 perfbench/run.py --workload growth|cli --seed N
                             --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src``).  Workload runs happen in fresh single-threaded Python processes.

With ``--trace 0`` it times SETUP_REPEATS fresh processes that run the
workload with its horizon set to 0 (``setup_s``), then starts TIMED_WORKERS
worker processes in turn; each makes a warm-up run and timed runs of the
workload until its share of ``--seconds`` is used (``wall_s``, the median of
all timed runs; ``peak_rss_mb``, the median of the workers' peaks after
their warm-up run).  With
``--trace 1`` it times MIN_TIMED untraced runs in one worker, probes the FFT
floor, makes one traced timed run in another and prints the per-layer metrics of the traced run.
Every run's outputs are checked, and all runs of one call, which share the
seed, must write byte-identical outputs.  The last line of standard output
is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
WORK = os.path.join(ROOT, ".perfbench_out")

DEADLINE_S = 170.0  # a whole call must end within 180 s
SETUP_REPEATS = 7
TIMED_WORKERS = 3
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# workload -> grid n of the FFT probe (the n the workload's solver runs at)
PROBE_N = {"growth": 512, "cli": 256}


def spawn(argv, log_path, deadline):
    """Run argv to completion; return (exit code, wall s).

    A timer kills the child if it outlives the deadline; the child is always
    waited for.
    """
    env = dict(os.environ, **WORKER_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
            timer.join()
            proc.kill()
            proc.wait()
        wall = time.perf_counter() - t0
    return proc.returncode, wall


def start_worker(workload, tag, seed, deadline, zero=False, trace=False, budget=0.0):
    """One worker process; returns (process wall s, its report, checks)."""
    out = os.path.join(WORK, tag)
    argv = [sys.executable, WORKER, workload, out, "--seed", str(seed)]
    if zero:
        argv.append("--zero")
    if trace:
        argv.append("--trace")
    argv += ["--budget", f"{budget:.3f}"]
    rc, wall = spawn(argv, os.path.join(WORK, f"{tag}.log"), deadline)
    try:
        with open(os.path.join(out, "worker.json")) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        report = {}
    results = [(f"{tag}.exit.worker", rc == 0, f"exit code {rc}")]
    if rc == 0 and not report.get("runs"):
        results.append((f"{tag}.report", False, "the worker reported no runs"))
    for i, run in enumerate(report.get("runs", ())):
        results += [(f"{tag}.run{i}.{name}", ok, detail) for name, ok, detail in run["checks"]]
    shutil.rmtree(out, ignore_errors=True)
    return wall, report, results


def timed_walls(report):
    """Wall times of the timed runs, the warm-up run left out."""
    return [r["wall_s"] for r in report.get("runs", ())[1:]]


def reproducibility(tag, runs):
    """Every run must write the first run's outputs byte for byte."""
    ref = runs[0]["digests"] if runs else {}
    return [
        (f"repro.{tag}.run{i}", bool(ref) and r["digests"] == ref,
         f"{len(r['digests'])} files, {len(ref)} in the first run")
        for i, r in enumerate(runs)
    ]


def _seconds(values):
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def measure(workload, seed, seconds, t_start, deadline):
    """End-to-end metrics, tracing off; returns (metrics, checks, notes)."""
    setups, results = [], []
    for i in range(SETUP_REPEATS):
        wall, _, found = start_worker(workload, f"setup{i}", seed, deadline, zero=True)
        setups.append(wall)
        results += found
    # several timed workers, so that the median spans several processes'
    # memory layouts, not one
    reports, notes = [], []
    for i in range(TIMED_WORKERS):
        budget = (seconds - (time.perf_counter() - t_start)) / (TIMED_WORKERS - i)
        _, report, found = start_worker(workload, f"timed{i}", seed, deadline, budget=budget)
        reports.append(report)
        results += found
        notes.append(f"worker {i}: {_seconds(timed_walls(report))}")
    results += reproducibility(workload, [r for rep in reports for r in rep.get("runs", [])])
    walls = [w for rep in reports for w in timed_walls(rep)]
    if not all(timed_walls(rep) and "peak_rss_mb" in rep for rep in reports):
        return {}, results, notes + ["a timed worker failed; see .perfbench_out/timed*.log"]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rep["peak_rss_mb"] for rep in reports), "MB"),
    }
    notes += [
        f"wall_s: median of {len(walls)} timed runs in {len(reports)} workers",
        f"setup_s: median of {len(setups)} processes with horizon 0 {_seconds(setups)}",
        f"peak_rss_mb: median of {len(reports)} workers' peaks after their warm-up run",
    ]
    return metrics, results, notes


def traced(workload, seed, deadline):
    """Per-layer metrics from one traced run; returns (metrics, checks, notes)."""
    _, base, results = start_worker(workload, "untraced", seed, deadline)
    # the probe runs next to the traced run, so step_over_floor compares
    # times taken under the same machine load
    probe_out = os.path.join(WORK, "probe")
    rc, _ = spawn([sys.executable, WORKER, "probe", probe_out],
                  os.path.join(WORK, "probe.log"), deadline)
    results.append(("probe.exit.worker", rc == 0, f"exit code {rc}"))
    _, run, found = start_worker(workload, "traced", seed, deadline, trace=True)
    results += found + reproducibility(workload, base.get("runs", []) + run.get("runs", []))
    untraced_walls, traced_walls = timed_walls(base), timed_walls(run)
    if rc != 0 or not untraced_walls or not traced_walls:
        return {}, results, ["a run failed; see the logs in .perfbench_out/"]
    with open(os.path.join(probe_out, "worker.json")) as fh:
        probe = {int(n): p for n, p in json.load(fh)["probe"].items()}
    missing = run.get("missing", [])
    untraced_wall, traced_wall = statistics.median(untraced_walls), traced_walls[0]
    metrics = spans.layer_metrics(
        run.get("spans", []), missing, traced_wall, untraced_wall, probe, PROBE_N[workload]
    )
    notes = [
        f"untraced run {untraced_wall:.3f} s, traced run {traced_wall:.3f} s",
        f"unmeasured layers (patch target gone): {', '.join(missing) or 'none'}",
    ]
    return metrics, results, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROBE_N))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    t_start = time.perf_counter()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "vcross", "__init__.py")):
        print(f"error: no vcross sources under {ROOT}/src", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    if args.trace:
        metrics, results, notes = traced(args.workload, args.seed, deadline)
    else:
        metrics, results, notes = measure(
            args.workload, args.seed, args.seconds, t_start, deadline
        )
    failed = [c for c in results if not c[1]]
    for note in notes:
        print(note)
    for name, _, detail in failed:
        print(f"FAILED {name}: {detail}")
    print(f"{len(results)} checks, {len(failed)} failed")
    print(json.dumps({
        "correct": bool(results) and not failed and bool(metrics),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failed and metrics else 1


if __name__ == "__main__":
    sys.exit(main())

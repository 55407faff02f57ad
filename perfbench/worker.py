"""Run one benchmark workload, or the FFT-floor probe, in this process.

    python3 perfbench/worker.py growth|cli OUT [--seed N] [--zero] [--trace]
                                [--budget S]
    python3 perfbench/worker.py probe OUT

``vcross`` must be importable (``run.py`` puts ``src`` on PYTHONPATH).

With ``--zero`` the worker makes one run with the workload's horizon set to
0, so it stops before its first step: the process's wall time is the set-up
time.  Otherwise it makes a warm-up run, then timed runs until ``--budget``
seconds have passed since it started, at least MIN_TIMED of them; with
``--trace`` it makes exactly one timed run and records its spans.  Each run
writes to its own directory under OUT, which is checked and fingerprinted
after the run's clock has stopped and then deleted.

The worker writes OUT/worker.json: per run its wall time, checks and output
digests; the peak RSS after the warm-up run; and, with ``--trace``, the spans
(kept in memory until then) and the patch targets that no longer exist.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import time

import checks
from spans import Tracer

GROWTH_N = 512
GROWTH_STEEPNESS = 200.0
GROWTH_T = 0.25
MIN_TIMED = 2
PROBE_NS = (256, 512)
PROBE_REPEATS = 31

# The README cross+bump example at n = 256 with alpha = 1.5.  support is 0.2,
# not the README's 0.196, which spans fewer than 8 cells and exits 2 here.
# [checks] has no energy_drift: kinetic energy is conserved only at alpha = 1.
SIMULATE_CONFIG = """\
[grid]
n = 256
[time]
t_end = {horizon}
cfl = 0.4
sample_every = 0.01
[solver]
alpha = 1.5
[init]
kind = cross+bump
sigma = 0.25
[bump]
center_x = 0.12
center_y = 0.42
support = 0.2
height = 0.3
[ladder]
mode = relaxed
horizon = 1.0
outer = 0.7
[checks]
enstrophy_drift = 1e-6
parity = 1e-8
"""
SIMULATE_T = 0.5

MODEL_CONFIG = """\
[model]
variant = exact
[ladder]
mode = relaxed
horizon = 1.0
[perturbation]
kind = demo
[trajectory]
T = {horizon}
dt = 1e-3
count = 16
"""
MODEL_T = 1.0


def run_growth(tracer, out, zero, args):
    from vcross import experiments, fields, series, solver

    grid = fields.Grid(GROWTH_N)
    member = next(
        m for m in experiments.default_growth_family(grid) if m.steepness == GROWTH_STEEPNESS
    )
    record = experiments.run_growth_member(GROWTH_N, member, T=0.0 if zero else GROWTH_T)
    if not zero:
        series.write_series_csv(
            os.path.join(out, "series.csv"), [record.series[k] for k in sorted(record.series)]
        )
        solver.save_state(os.path.join(out, "final.vcrs"), record.state)
    return {}


def write_configs(args):
    """The cli workload's two config files, with horizon 0 under --zero."""
    args.configs = {}
    for name, template, horizon in (
        ("simulate", SIMULATE_CONFIG, SIMULATE_T), ("model", MODEL_CONFIG, MODEL_T)
    ):
        path = os.path.join(args.out, f"{name}.cfg")
        with open(path, "w") as fh:
            fh.write(template.format(horizon=0.0 if args.zero else horizon))
        args.configs[name] = path


def run_cli(tracer, out, zero, args):
    """vcross simulate, then report on its manifest, then vcross model."""
    from vcross import cli

    sim_out, model_out = os.path.join(out, "simulate"), os.path.join(out, "model")
    with tracer.span("cli.simulate"):
        codes = {"simulate": cli.main(
            ["simulate", "--config", args.configs["simulate"], "--out", sim_out]
        )}
    if not zero:
        with tracer.span("cli.report"):
            codes["report"] = cli.main(
                ["report", os.path.join(sim_out, "manifest.txt"), "--out", sim_out]
            )
    argv = ["model", "--config", args.configs["model"], "--out", model_out,
            "--seed", str(args.seed)]
    with tracer.span("cli.model"):
        codes["model"] = cli.main(argv)
    return codes


WORKLOADS = {"growth": run_growth, "cli": run_cli}


def one_run(args, tracer, index):
    """One run of the workload: wall time, then its checks and digests."""
    out = os.path.join(args.out, f"run{index}")
    os.makedirs(out)
    t0 = time.perf_counter()
    codes = WORKLOADS[args.workload](tracer, out, args.zero, args)
    wall = time.perf_counter() - t0
    if args.zero:
        found, digests = checks.exit_checks(codes), {}
    else:
        found = checks.CHECKS[args.workload](out, codes)
        digests = checks.fingerprint(out, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    return {"wall_s": wall, "checks": found, "digests": digests}


def run_workload(args):
    start = time.perf_counter()
    tracer = Tracer(args.trace)
    with tracer.span("vcross.import"):
        import vcross.cli  # noqa: F401  (imports every module the workloads use)
    tracer.install()
    if args.zero:
        return {"runs": [one_run(args, tracer, 0)]}
    tracer.recording = False
    runs = [one_run(args, tracer, 0)]  # warm-up: plan caches, first-touch pages
    report = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    tracer.recording = args.trace
    while True:
        runs.append(one_run(args, tracer, len(runs)))
        timed = [r["wall_s"] for r in runs[1:]]
        if args.trace or (
            len(timed) >= MIN_TIMED
            and time.perf_counter() - start + statistics.median(timed) > args.budget
        ):
            break
    report.update(runs=runs, spans=tracer.spans, missing=tracer.missing)
    return report


def _median_ms(fn, repeats=PROBE_REPEATS):
    fn()  # plan caches and first-touch pages are not part of the floor
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def probe_fft():
    """Median time of one rfft2/irfft2 through vcross.fields at each probed n.

    The step floor is the five-transform RK4 step: 4 RHS evaluations of
    4 inverse and 1 forward transform.  The batched and two-worker inverse
    transforms re-time two negative results; they go straight to scipy.fft,
    the backend vcross.fields uses, since fields exposes neither.
    """
    import numpy as np
    from scipy import fft

    from vcross.fields import Grid, ScalarField

    result = {}
    rng = np.random.default_rng(0)
    for n in PROBE_NS:
        grid = Grid(n)
        values = rng.standard_normal((n, n))
        spectrum = ScalarField(grid, values=values).spectrum
        batch = np.stack([spectrum] * 4)
        p = {
            "rfft2_ms": _median_ms(lambda: ScalarField(grid, values=values).spectrum),
            "irfft2_ms": _median_ms(lambda: ScalarField(grid, spectrum=spectrum).values),
            "irfft2_batched4_ms": _median_ms(lambda: fft.irfft2(batch, s=(n, n))),
            "irfft2_workers2_ms": _median_ms(
                lambda: fft.irfft2(spectrum, s=(n, n), workers=2)
            ),
        }
        p["step_floor_ms"] = 16 * p["irfft2_ms"] + 4 * p["rfft2_ms"]
        result[n] = p
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS) + ["probe"])
    parser.add_argument("out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--zero", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--budget", type=float, default=0.0)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    if args.workload == "probe":
        report = {"probe": probe_fft()}
    else:
        write_configs(args)
        report = run_workload(args)
    with open(os.path.join(args.out, "worker.json"), "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()

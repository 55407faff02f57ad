"""Batch driver: simulate, model, sweep, report.

Exit codes: 0 success, 1 check failure, 2 usage or configuration error,
3 numerical blow-up (solver or model), 4 internal error.  Outputs are
deterministic for a fixed configuration and thread count; the seed flag only
affects randomized sample-point draws.
"""

from __future__ import annotations

import argparse
import math
import os
import resource
import sys
import time

import numpy as np

from .config import ConfigError, load_config
from .diagnostics import (
    bump_scales,
    fit_hessian_scaling,
    growth_ratio_probe,
    perturbation_field_bounds,
    ratios_nondecreasing,
    relative_drift,
)
from .experiments import (
    arm_anomaly,
    distinct_growth_family,
    run_growth_member,
    run_members,
    shear_state,
    smooth_random_field,
)
from .fields import Grid, UnresolvedScaleError, point_parity_error
from .initial_data import BumpSpec, compose_initial_data, make_bump, mollified_cross
from .ladder import LadderError, LadderUnderflowError, resolve_ladder
from .model import (
    CrossFieldVariant,
    FlowPerturbation,
    WedgeRegion,
    check_perturbation_admissible,
    contraction_floor,
    integrate_variational_batch,
)
from .manifest import RunManifest, read_manifest
from .pcg64 import PCG64Stream
from .series import write_series_csv, write_table
from .solver import (
    CFL_CAP,
    DIAGNOSTICS,
    BlowUpError,
    SimState,
    _require_march_args,
    load_state,
    require_vorticity,
    run,
    save_state,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BLOWUP = 3
EXIT_INTERNAL = 4


def _out_dir(args, cfg):
    out = args.out or (cfg.get_str("output", "dir", None) if cfg else None)
    return out or os.environ.get("VCROSS_OUT") or "."


def _read_checks(path):
    rows = []
    with open(path) as fh:
        fh.readline()
        for line in fh:
            name, value, tol, passed = line.strip().split(",")
            rows.append((name, float(value), float(tol), bool(int(passed))))
    return rows


def _write_manifest(manifest, t_start, **phases):
    """Record the phase timings, the rest as ``write``, the total and peak RSS; write."""
    total = time.perf_counter() - t_start
    manifest.timings.update(phases, write=total - sum(phases.values()), total=total)
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    manifest.note(f"peak_rss_mb = {peak_mb:.1f}")
    manifest.write()


def _build_ladder(cfg):
    mode = cfg.get_str("ladder", "mode", "relaxed")
    horizon = cfg.get_float("ladder", "horizon", 1.0)
    factor = cfg.get_float("ladder", "growth_factor", 10.0)
    overrides = {}
    for name in ("outer", "inner", "drift", "cross_width", "mollifier"):
        if cfg.has("ladder", name) and cfg.has("ladder", f"log10_{name}"):
            raise ConfigError(f"[ladder] {name} and log10_{name} both given; give one")
        val = cfg.get_float("ladder", name, None)
        if val is not None:
            if not val > 0.0:  # also NaN
                raise ConfigError(f"[ladder] {name} must be positive, got {val}")
            overrides[name] = math.log10(val)
        lg = cfg.get_float("ladder", f"log10_{name}", None)
        if lg is not None:
            overrides[name] = lg
    exp_override = cfg.get_float("ladder", "seed_exponent", None)
    if exp_override is not None:
        overrides["seed_exponent"] = exp_override
    return resolve_ladder(horizon, factor, mode, overrides or None)


def _build_initial(cfg, grid, ladder):
    kind = cfg.get_str("init", "kind", "cross")
    if kind == "shear":
        return shear_state(grid, cfg.get_float("init", "amplitude", 1.0)).theta
    if kind == "random":
        seed = cfg.get_int("init", "seed", 0)
        if seed < 0:  # refused as --seed is
            raise ConfigError(f"[init] seed must be non-negative, got {seed}")
        return smooth_random_field(grid, seed=seed, l2=cfg.get_float("init", "amplitude", 1.0))
    if kind == "cross":
        return mollified_cross(grid, cfg.get_float("init", "sigma"))
    if kind == "cross+bump":
        spec = BumpSpec(
            (cfg.get_float("bump", "center_x"), cfg.get_float("bump", "center_y")),
            cfg.get_float("bump", "support"),
            cfg.get_float("bump", "height"),
        )
        return compose_initial_data(grid, ladder, spec, cfg.get_float("init", "sigma"))
    if kind == "snapshot":
        path = cfg.get_str("init", "path")
        theta = load_state(path).theta
        try:  # before the first sample reads it
            require_vorticity(theta)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        return theta
    raise ConfigError(f"unknown [init] kind {kind!r}")


def cmd_simulate(args):
    t_start = time.perf_counter()
    cfg = load_config(args.config)
    tolerances = {}
    for key in ("energy_drift", "hamiltonian_drift", "enstrophy_drift", "parity"):
        tol = cfg.get_float("checks", key, None)
        if tol is not None and not 0.0 <= tol < math.inf:  # also NaN
            raise ConfigError(f"[checks] {key} must be finite and >= 0, got {tol}")
        tolerances[key] = tol
    sample_every = cfg.get_float("time", "sample_every", None)
    if not (sample_every is None or sample_every > 0.0):  # run refuses it only past horizon 0
        raise ConfigError(f"sample_every must be positive, got {sample_every}")
    alpha = cfg.get_float("solver", "alpha", 1.0)
    # an unusable exponent is named when the state is built
    if tolerances["energy_drift"] is not None and 1.0 < alpha < math.inf:
        raise ConfigError(
            f"[checks] energy_drift needs alpha = 1, got alpha = {alpha}: "
            "the kinetic energy 1/2 |u|^2 is conserved only at alpha = 1; "
            "[checks] hamiltonian_drift checks the invariant of every alpha"
        )
    grid = Grid(cfg.get_int("grid", "n"))
    ladder = _build_ladder(cfg)
    # in a list, so that run can take it without this frame holding it
    start = [SimState(_build_initial(cfg, grid, ladder), inversion_exponent=alpha)]
    t_end = cfg.get_float("time", "t_end")
    cfl = cfg.get_float("time", "cfl", CFL_CAP)
    _require_march_args(start[0], t_end, cfl)  # before the first output makes the directory
    t_init = time.perf_counter()
    manifest = RunManifest(
        "simulate", cfg.raw_text, _out_dir(args, cfg), grid.n, ladder.serialize()
    )
    save_state(manifest.add_output("initial.vcrs"), start[0])

    t_run_start = time.perf_counter()
    result = run(
        start.pop(),  # the march frees the start spectrum after its first step
        t_end,
        cfl=cfl,
        sample_every=sample_every,
        diagnostics=DIAGNOSTICS,
    )
    t_run_end = time.perf_counter()
    parity_tol = tolerances["parity"]
    parity = None if parity_tol is None else point_parity_error(result.state.theta.values)
    if t_end > 0.0:  # the start state's clock
        save_state(manifest.add_output("final.vcrs"), result.state)
    write_series_csv(manifest.add_output("series.csv"), result.series_list())

    failures = 0
    if cfg.has("checks"):
        rows = []
        for name in ("energy", "hamiltonian", "enstrophy"):
            tol = tolerances[f"{name}_drift"]
            if tol is None or len(result.series[name]) == 0:
                continue
            drift = relative_drift(result.series[name].values)
            rows.append((f"{name}_drift", drift, tol, drift <= tol))
        if parity_tol is not None:
            rows.append(("parity_sup_error", parity, parity_tol, parity <= parity_tol))
        write_table(
            manifest.add_output("checks.csv"),
            ["name", "value", "tolerance", "passed"],
            [(name, value, tol, int(bool(ok))) for name, value, tol, ok in rows],
        )
        failures = sum(1 for r in rows if not r[3])

    manifest.note(f"cfl = {cfl}")
    manifest.note(f"steps = {result.steps}")
    manifest.note(f"kernel = {result.kernel}")
    manifest.note(f"rhs_evals = {result.rhs_evals}")
    _write_manifest(manifest, t_start, init=t_init - t_start, run=t_run_end - t_run_start)
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _demo_perturbation(upsilon, factor=1.0):
    """nu = s (x cos y, y cos x) with s = 0.5e-4 upsilon factor, with exact log-form terms."""
    scale = 0.5e-4 * upsilon * factor

    def nu1(x, y, t):
        return scale * x * np.cos(y)

    def nu2(x, y, t):
        return scale * y * np.cos(x)

    def exact_terms(lx, ly, t):
        x, y = np.exp(lx), np.exp(ly)  # an underflow to 0 leaves every term finite
        sx, sy = scale * np.cos(x), scale * np.cos(y)
        return sy, sx, sy, -scale * x * np.sin(y), -scale * y * np.sin(x), sx

    return FlowPerturbation(nu1, nu2, upsilon, exact_terms)


def cmd_model(args):
    t_start = time.perf_counter()
    cfg = load_config(args.config)
    variant = CrossFieldVariant(cfg.get_str("model", "variant", "exact"))
    ladder = _build_ladder(cfg)
    region = WedgeRegion.from_log10(ladder.log10_inner, ladder.log10_outer)
    seed_box = WedgeRegion.from_log10(
        ladder.log10_inner, ladder.log10_outer, ladder.seed_exponent
    )
    T = cfg.get_float("trajectory", "T", 1.0)
    if not math.isfinite(T):  # before the admissibility draw and the integrator name it
        raise ConfigError(f"[trajectory] T must be finite, got {T}")
    if math.copysign(1.0, T) < 0.0:  # also -0.0, which no draw range [0, T] takes
        raise ConfigError(f"[trajectory] T must be non-negative, got {T}")
    dt = cfg.get_float("trajectory", "dt", 1e-3)

    pert_kind = cfg.get_str("perturbation", "kind", "none")
    if pert_kind == "none":
        pert = FlowPerturbation()
    elif pert_kind == "demo":
        if cfg.has("perturbation", "upsilon"):
            upsilon = cfg.get_float("perturbation", "upsilon")
        else:
            try:
                upsilon = ladder.value("drift")
            except LadderUnderflowError as exc:
                raise ConfigError(f"[perturbation] upsilon must be given: {exc}") from None
        pert = _demo_perturbation(upsilon, cfg.get_float("perturbation", "scale", 1.0))
        report = check_perturbation_admissible(pert, region, t_max=T, seed=args.seed)
        if not report.passed:
            print(
                f"perturbation inadmissible: value margin {report.value_margin:.3g}, "
                f"gradient margin {report.grad_margin:.3g}, "
                f"witness {report.value_witness}",
                file=sys.stderr,
            )
            return EXIT_USAGE
    else:
        raise ConfigError(f"unknown [perturbation] kind {pert_kind!r}")

    if cfg.has("trajectory", "count"):
        count = cfg.get_int("trajectory", "count")
        if count <= 0:
            raise ConfigError(f"[trajectory] count must be positive, got {count}")
        points = seed_box.sample_log_uniform(count, PCG64Stream(args.seed))
    else:
        points = [(cfg.get_float("trajectory", "x0"), cfg.get_float("trajectory", "y0"))]
        bad = seed_box.violations(*points[0])
        if bad:
            print(
                f"start point {points[0]} outside the admissible seed box: "
                + ", ".join(bad),
                file=sys.stderr,
            )
            return EXIT_USAGE

    manifest = RunManifest(
        "model", cfg.raw_text, _out_dir(args, cfg), ladder_text=ladder.serialize()
    )
    t_init = time.perf_counter()
    paths = integrate_variational_batch(
        points, T, perturbation=pert, variant=variant, region=region, dt=dt
    )
    t_integrated = time.perf_counter()
    summary_rows = []
    for i, ((x0, y0), path) in enumerate(zip(points, paths)):
        path.write_csv(manifest.add_output(f"path_{i:03d}.csv"))
        floor_log = contraction_floor(T, y0, 1.0)
        key_bound = (1.0 / y0) ** ((math.exp(T) - 1.0) / 2.0)
        summary_rows.append(
            (
                x0,
                y0,
                path.exit_time if path.exit_time is not None else math.nan,
                path.x[-1],
                path.y[-1],
                path.jac[-1, 0, 0],
                key_bound,
                floor_log,
            )
        )
    write_table(
        manifest.add_output("summary.csv"),
        ["x0", "y0", "exit_time", "x_final", "y_final", "xa_final", "key_bound", "floor_log"],
        np.array(summary_rows, dtype=float),
    )
    steps = paths[0].t.size - 1
    manifest.note(f"steps = {steps}")
    manifest.note(f"rhs_evals = {4 * steps}")  # four RK4 stages per step
    manifest.note(f"drift = {'none' if pert.is_zero else 'exact'}")
    _write_manifest(manifest, t_start, init=t_init - t_start, integrate=t_integrated - t_init)
    return EXIT_OK


def _sweep_member_runner(payload):
    kind, k, value, params = payload
    if kind == "steepness":  # value is the realized member
        series = run_growth_member(params["n"], value, T=params["T"]).series["grad_sup"]
        row = growth_ratio_probe([series]).rows[0]
        return {"grad0": row.grad0, "max_ratio": row.ratio, "sigma": value.sigma}
    if kind == "n":
        if not float(value).is_integer():  # int() would truncate 128.9 to 128
            raise ValueError(f"grid size must be an integer, got {value}")
        n = int(value)
        grid = Grid(n)
        theta = mollified_cross(grid, params["sigma"])
        result = run(SimState(theta), params["T"], sample_every=params["T"])
        return {
            "grad_final": float(result.series["grad_sup"].values[-1]),
            "enstrophy_drift": relative_drift(result.series["enstrophy"].values),
        }
    if kind == "alpha":
        n = params["n"]
        grid = Grid(n)
        theta = smooth_random_field(grid, seed=params.get("seed", 0))
        state = SimState(theta, inversion_exponent=float(value))
        result = run(state, params["T"], sample_every=params["T"] / 8.0)
        g = result.series["grad_sup"].values
        return {"grad_growth": float(g.max() / g[0])}
    if kind == "tau":
        anomaly = arm_anomaly(Grid(params["n"]), value)
        rep = perturbation_field_bounds(anomaly, params["radii"])
        rec = {"hessian_sup": rep.hessian_sup, "origin_ratio": rep.origin_value / rep.field_max}
        for r, s in zip(rep.radii, rep.sup_ratio):
            rec[f"sup_ratio_r{r:g}"] = float(s)
        rec["tau_log_tau"] = float(value * abs(math.log(value)))
        return rec
    if kind == "omega":
        h1 = params["support"] / (2.0 ** (k / 2.0))  # halves the L2 norm each step
        bump = make_bump(Grid(params["n"]), BumpSpec((1.8, 2.6), h1, params["aspect"] * h1))
        return dict(zip(("l2", "grad_sup", "hessian_sup"), bump_scales(bump)))
    raise ValueError(f"unknown sweep member kind {kind!r}")


def cmd_sweep(args):
    t_start = time.perf_counter()
    cfg = load_config(args.config)
    axis = cfg.get_str("sweep", "axis")
    values = cfg.get_floats("sweep", "values")
    if axis not in ("steepness", "n", "alpha", "tau", "omega"):
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if not values:
        raise ConfigError(f"{cfg.path}: [sweep] values must list at least one value")
    manifest = RunManifest("sweep", cfg.raw_text, _out_dir(args, cfg))
    params = {
        "n": cfg.get_int("base", "n", 1024 if axis in ("tau", "omega") else 256),
        "T": cfg.get_float("base", "T", 1.0),
        "sigma": cfg.get_float("base", "sigma", 0.25),
        "radii": cfg.get_floats("base", "radii", [0.05, 0.1, 0.2]),
        "support": cfg.get_float("base", "support", 0.5),
        "aspect": cfg.get_float("base", "aspect", 3.0),  # height / support
        "seed": args.seed,
    }
    members = values
    if axis == "steepness":  # realized whole, so that no two requests share a member
        family = {m.steepness: m for m in distinct_growth_family(Grid(params["n"]), values)}
        members = [family[v] for v in values]
    payloads = [(axis, k, m, params) for k, m in enumerate(members)]
    t_members = time.perf_counter()
    outcomes = run_members(_sweep_member_runner, payloads, args.threads)
    t_members_end = time.perf_counter()
    if min(args.threads, len(payloads)) > 1:  # the members ran in a joined pool
        # the largest child this process has waited for; KiB on Linux
        children_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        manifest.note(f"peak_rss_children_mb = {children_mb:.1f}")
    rows = []
    for v, (rec, exc) in zip(values, outcomes):
        if exc is not None:  # partial failures recorded, sweep continues
            manifest.note(f"member {v} failed: {exc}")
            rec = {"error": 1.0}
        rows.append((v, rec))
    resolved = [rec for _, rec in rows if "error" not in rec]
    if axis == "steepness":
        ok = ratios_nondecreasing([r["max_ratio"] for r in resolved])
        skipped = len(rows) - len(resolved)
        manifest.note(f"ratio_monotone = {int(ok)} (failed members skipped: {skipped})")
    elif axis == "omega" and len(resolved) >= 2:
        scales = [(r["l2"], r["grad_sup"], r["hessian_sup"]) for r in resolved]
        fit = fit_hessian_scaling(scales).fit
        manifest.note(f"hessian_slope = {fit.slope:.6g}")
    elif axis == "omega":
        manifest.note(f"hessian_slope not fitted: resolved members = {len(resolved)} < 2")

    keys = sorted({k for _, rec in rows for k in rec})
    write_table(
        manifest.add_output("aggregate.csv"),
        ["value"] + keys,
        np.array(
            [[value] + [rec.get(k, math.nan) for k in keys] for value, rec in rows], dtype=float
        ),
    )
    _write_manifest(manifest, t_start, members=t_members_end - t_members)
    return EXIT_OK


def cmd_report(args):
    rows = []
    missing = []
    for mpath in args.manifests:
        if not os.path.exists(mpath):
            missing.append(mpath)
            continue
        header, outputs, _ = read_manifest(mpath)
        base = os.path.dirname(os.path.abspath(mpath))
        for rel in outputs:
            if os.path.basename(rel) != "checks.csv":
                continue
            cpath = os.path.join(base, rel)
            if not os.path.exists(cpath):
                missing.append(cpath)
                continue
            for name, value, tol, passed in _read_checks(cpath):
                rows.append((mpath, name, value, tol, passed))
    if missing:
        for m in missing:
            print(f"missing file: {m}", file=sys.stderr)
        return EXIT_USAGE
    out = _out_dir(args, None)
    os.makedirs(out, exist_ok=True)
    write_table(
        os.path.join(out, "report.csv"),
        ["manifest", "check", "value", "tolerance", "passed"],
        [(mpath, name, value, tol, int(passed)) for mpath, name, value, tol, passed in rows],
    )
    n_failed = sum(1 for r in rows if not r[4])
    for mpath, name, value, tol, passed in rows:
        status = "PASS" if passed else "FAIL"
        print(f"{status}  {name:<24} value={value:.6g} tol={tol:.6g}  ({mpath})")
    print(f"{len(rows)} checks, {n_failed} failed")
    if not rows or n_failed:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _seed(text):
    if int(text) < 0:  # the draws are numpy's default_rng stream, which has no negative seed
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vcross",
        description="Batch driver for the cross-flow gradient-growth laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("simulate", cmd_simulate),
        ("model", cmd_model),
        ("sweep", cmd_sweep),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if name != "simulate":
            p.add_argument("--seed", type=_seed, default=0)
        if name == "sweep":
            p.add_argument("--threads", type=int, default=1)
        p.set_defaults(fn=fn)
    p = sub.add_parser("report")
    p.add_argument("manifests", nargs="+")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ConfigError, LadderError, UnresolvedScaleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc} (path: {getattr(exc, 'filename', '?')})", file=sys.stderr)
        return EXIT_USAGE
    except (BlowUpError, OverflowError) as exc:
        print(f"numerical blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except MemoryError as exc:  # sizes the up-front checks let through
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

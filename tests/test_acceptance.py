"""End-to-end acceptance suite.

Each test exercises one numbered criterion at its stated tolerance and prints
one PASS/FAIL line (visible with ``pytest -s`` or in captured output).  Heavy
solver runs are shared through module-scoped fixtures; the full module runs in
a few minutes.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import vcross as vc
from conftest import evenness_error
from vcross.cli import _demo_perturbation
from vcross.diagnostics import (
    fit_double_exponential,
    fit_growth_envelope,
    polygon_area,
    polyline_length,
    perturbation_field_bounds,
    ratio_series,
    stretch_and_thickness,
)
from vcross.experiments import (
    GrowthMember,
    arm_anomaly,
    cross_stationarity_residual,
    growth_experiment,
    rescaling_pair,
    run_growth_member,
    shear_state,
    smooth_random_field,
)
from vcross.initial_data import (
    BumpSpec,
    bump_profile_constants,
    compose_initial_data,
    make_bump,
    mollifier_slope_at_jump,
)
from vcross.ladder import resolve_ladder
from vcross.model import EXACT, WedgeRegion, ZERO_PERTURBATION, fit_leading_order_bound
from vcross.series import DiagnosticSeries
from vcross.solver import run

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


# --- shared heavy runs --------------------------------------------------------


@pytest.fixture(scope="module")
def growth_records():
    """Criterion 7 family: three members at n = 512, T = 1.25."""
    records, probe = growth_experiment(n=512, requested=(50.0, 100.0, 200.0), T=1.25)
    return records, probe


@pytest.fixture(scope="module")
def lipschitz_pair():
    """Same cross+bump physics at n in {256, 512} (support fixed in physical units)."""
    sigma = 0.25
    support = 8.0 * (2.0 * math.pi / 256.0)
    height = (
        mollifier_slope_at_jump()
        / sigma
        * support
        / (2.0 * bump_profile_constants()["max_abs_slope"])
    )
    member = GrowthMember(50.0, sigma, height, support, (0.12, 0.42))
    return {n: run_growth_member(n, member, T=1.25) for n in (256, 512)}


@pytest.fixture(scope="module")
def alpha15_pair():
    """Resolution-independent random data under inversion exponent 1.5."""
    out = {}
    for n in (256, 512):
        theta = smooth_random_field(vc.Grid(n), seed=5, k_peak=5.0, l2=4.0)
        state = vc.SimState(theta, inversion_exponent=1.5)
        result = run(state, 3.0, cfl=0.4, sample_every=0.25)
        out[n] = (theta, result)
    return out


@pytest.fixture(scope="module")
def smooth_conservation_run():
    """Criterion 5 long run: smooth data, n = 256, t = 5."""
    theta = smooth_random_field(vc.Grid(256), seed=3)
    return theta, run(vc.SimState(theta), 5.0, cfl=0.4, sample_every=1.0)


# --- criteria -----------------------------------------------------------------


def test_c01_model_closed_form_oracle():
    with criterion(1, "model closed-form oracle"):
        t0 = time.perf_counter()
        path = vc.integrate_variational(
            (1e-6, 0.1), math.log(2.0), variant=vc.LEADING, dt=1e-4
        )
        wall = time.perf_counter() - t0
        assert path.y[-1] == pytest.approx(0.01, rel=1e-8)
        assert path.jac[-1, 0, 0] == pytest.approx(10.0, rel=1e-8)
        assert wall < 1.0


def test_c02_key_estimate_over_seed_box():
    with criterion(2, "key stretching estimate"):
        t0 = time.perf_counter()
        T = 1.0
        ladder = resolve_ladder(T, mode="relaxed")
        region = WedgeRegion.from_log10(ladder.log10_inner, ladder.log10_outer)
        rng = np.random.default_rng(11)
        box = WedgeRegion.from_log10(
            ladder.log10_inner, ladder.log10_outer, ladder.seed_exponent
        )
        points = box.sample_log_uniform(20, rng)
        perturbations = (ZERO_PERTURBATION, _demo_perturbation(ladder.value("drift")))
        for pert in perturbations:
            for x0, y0 in points:
                path = vc.integrate_variational(
                    (x0, y0), T, perturbation=pert, variant=EXACT, region=region, dt=2e-3
                )
                assert path.exit_time is None or path.exit_time >= T
                bound = (1.0 / y0) ** ((math.exp(T) - 1.0) / 2.0)
                assert path.jac[-1, 0, 0] >= bound
        # variational derivative against centered differences at five samples
        for x0, y0 in points[:5]:
            path = vc.integrate_variational((x0, y0), T, variant=EXACT, dt=2e-3)
            d = 1e-6 * x0
            plus = vc.integrate_variational((x0 + d, y0), T, variant=EXACT, dt=2e-3)
            minus = vc.integrate_variational((x0 - d, y0), T, variant=EXACT, dt=2e-3)
            fd = (plus.x[-1] - minus.x[-1]) / (2.0 * d)
            assert path.jac[-1, 0, 0] == pytest.approx(fd, rel=1e-4)
        assert time.perf_counter() - t0 < 10.0


def test_c03_double_exponential_contraction():
    with criterion(3, "double-exponential contraction rate"):
        region = WedgeRegion.from_log10(-700.0, math.log10(0.01))
        path = vc.integrate_variational(
            (-1520.0, math.log(0.0099)),
            4.5,
            variant=EXACT,
            region=region,
            dt=1e-3,
            p0_is_log=True,
        )
        assert path.exit_time is None  # confined for the whole window
        series = DiagnosticSeries("y", path.t, np.exp(path.log_y))
        fit = fit_double_exponential(series, window=(1.0, 4.5), kind="decay")
        assert fit.slope == pytest.approx(1.0, abs=0.05)
        assert fit.r_squared >= 0.999
        assert fit_leading_order_bound(path).fitted_C <= 3.0


def test_c04_area_argument():
    with criterion(4, "area argument: stretching forces thinning"):
        gamma = 1e-3
        center = (2e-3, 0.3)
        T = 0.5
        ang = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        circle = np.column_stack(
            [center[0] + gamma * np.cos(ang), center[1] + gamma * np.sin(ang)]
        )
        seg = np.array(
            [[center[0] - gamma / 2.0, center[1]], [center[0] + gamma / 2.0, center[1]]]
        )
        seg = np.vstack([seg[0], 0.5 * (seg[0] + seg[1]), seg[1]])
        paths = vc.integrate_variational_batch(
            np.vstack([circle, seg]), T, variant=EXACT, dt=5e-4
        )
        image = np.array([(p.x[-1], p.y[-1]) for p in paths])
        circle_image, seg_image = image[: len(circle)], image[len(circle) :]
        area0 = polygon_area(circle)
        area1 = polygon_area(circle_image)
        assert abs(area1 - area0) / area0 <= 1e-4
        rec = stretch_and_thickness(seg_image, circle_image)
        assert rec.area_product <= 1.1 * math.pi * gamma**2
        predicted = center[1] ** (-(math.exp(T) - 1.0) / 2.0)
        fitted = (rec.length / polyline_length(seg)) / predicted
        assert 0.1 <= fitted <= 10.0


def test_c05_solver_correctness(smooth_conservation_run, lipschitz_pair):
    with criterion(5, "solver correctness"):
        # steady shear invariant over t = 1 at n = 128
        shear = shear_state(vc.Grid(128))
        result = run(shear, 1.0, sample_every=0.5)
        drift = np.max(np.abs(result.state.theta.values - shear.theta.values))
        assert drift <= 1e-10
        # energy and enstrophy over t = 5 at n = 256
        theta, long_run = smooth_conservation_run
        for name in ("energy", "enstrophy"):
            v = long_run.series[name].values
            assert abs(v[-1] - v[0]) / v[0] <= 1e-6
        # divergence of every produced velocity
        for state in (
            shear,
            result.state,
            long_run.state,
            vc.SimState(theta),
            lipschitz_pair[256].state,
        ):
            vel = vc.velocity_from_vorticity(state.theta, state.inversion_exponent)
            assert vel.divergence_rel() <= 1e-12
        # parity of evolved even data
        assert evenness_error(lipschitz_pair[256].state.theta.values) <= 1e-8


def test_c06_cross_stationarity():
    with criterion(6, "mollified cross is numerically steady"):
        r256 = cross_stationarity_residual(256)
        r512 = cross_stationarity_residual(512)
        assert r256 <= 1e-3
        assert r512 < r256


def test_c07_growth_experiment(growth_records):
    with criterion(7, "gradient growth across the steepness family"):
        records, probe = growth_records
        ratios = probe.ratios()
        assert np.all(ratios > 1.5)
        assert probe.nondecreasing()
        for rec in records:
            rs = ratio_series(rec.series["grad_sup"])
            active = rs.t[rs.values >= 1.1]
            assert active.size >= 5, "growth never entered the active window"
            fit = fit_double_exponential(
                rs, window=(float(active[0]), float(rs.t[-1])), kind="growth"
            )
            assert fit.slope > 0.0


def test_c08_envelopes_stable_under_refinement(lipschitz_pair, alpha15_pair):
    with criterion(8, "fitted envelope constants stable under refinement"):
        lip = {}
        for n, rec in lipschitz_pair.items():
            series = rec.series["grad_sup"]
            fit = fit_growth_envelope(
                series, "lipschitz", {"grad0": rec.grad0, "theta_sup": 1.0}
            )
            lip[n] = fit.fitted_C
        assert abs(lip[512] - lip[256]) / lip[256] <= 0.15
        expo = {}
        for n, (theta, result) in alpha15_pair.items():
            series = result.series["grad_sup"]
            fit = fit_growth_envelope(
                series,
                "exponential",
                {"grad0": series.values[0], "theta_sup": theta.linf_norm()},
            )
            expo[n] = fit.fitted_C
        assert expo[256] > 0.0
        assert abs(expo[512] - expo[256]) / expo[256] <= 0.15


def test_c09_bump_hessian_scaling():
    with criterion(9, "two-scale bound: Hessian tracks the root of the L2 norm"):
        from vcross.diagnostics import bump_scales, fit_hessian_scaling

        grid = vc.Grid(1024)
        bumps = []
        for k in range(6):  # five halvings of the squared norm's base
            h1 = 0.6 / 2.0 ** (k / 2.0)
            bumps.append(make_bump(grid, BumpSpec((1.8, 2.6), h1, 0.5 * h1 / 0.6)))
        result = fit_hessian_scaling([bump_scales(b) for b in bumps])
        halving = result.l2_norms[1:] / result.l2_norms[:-1]
        assert np.allclose(halving, 0.5, rtol=1e-3)  # both scales shrink by sqrt(2)
        assert 0.35 <= result.fit.slope <= 0.65
        assert np.all(
            result.hessian_sups <= 10.0 * np.sqrt(result.grad_sups * result.l2_norms)
        )


def test_c10_arm_perturbation_bounds():
    with criterion(10, "cross-anomaly velocity bounds"):
        grid = vc.Grid(1024)
        radii = [0.05, 0.1, 0.2]
        ratios = []
        for tau in (0.04, 0.02, 0.01):
            p = arm_anomaly(grid, tau)
            rep = perturbation_field_bounds(p, radii, arm_width=tau)
            assert rep.origin_value <= 1e-6 * rep.field_max
            ratios.append(rep.sup_ratio / (tau * abs(math.log(tau))))
        ratios = np.asarray(ratios)
        tracking = ratios.max(axis=0) / ratios.min(axis=0)
        assert np.all(tracking <= 2.0)


def test_c11_ladder_algebra():
    with criterion(11, "log-space ladder algebra with tenfold slack"):
        enforced = (
            "inner_below_outer_power",
            "drift_monotonicity",
            "drift_confinement",
            "drift_vs_horizon",
            "cross_width_bound",
            "mollifier_below_inner",
        )
        for T in (0.5, 1.0, 2.0):
            ladder = resolve_ladder(T, 10.0, "faithful")
            report = {c.name: c for c in ladder.constraint_report()}
            for name in enforced:
                assert report[name].satisfied
                assert report[name].slack_log10 >= 1.0 - 1e-9


def test_c12_rescaling_invariance():
    with criterion(12, "rescaling invariance of growth ratios"):
        grid = vc.Grid(256)
        ladder = resolve_ladder(
            1.0, mode="relaxed", overrides={"outer": math.log10(0.7)}
        )
        spec = BumpSpec((0.12, 0.42), 8.0 * grid.spacing, 0.32)
        theta = compose_initial_data(grid, ladder, spec, 0.25)
        base, scaled = rescaling_pair(theta, 1.0)
        assert np.allclose(base.t, 2.0 * scaled.t, atol=1e-12)
        assert np.max(np.abs(base.values - scaled.values)) <= 1e-6

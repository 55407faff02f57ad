"""Cross-flow model tests: closed forms, quadrature oracles, variational system."""

import math

import numpy as np
import pytest
from scipy import integrate

from vcross.model import (
    EXACT,
    LEADING,
    CrossFieldVariant,
    FlowPerturbation,
    NearAxisError,
    WedgeRegion,
    ZERO_PERTURBATION,
    check_perturbation_admissible,
    contraction_floor,
    fit_leading_order_bound,
    integrate_trajectory,
    integrate_variational,
    integrate_variational_batch,
    rk4_steps,
)
from vcross.cli import _demo_perturbation
from vcross.series import DiagnosticSeries, format_value


class TestCrossVelocity:
    def test_leading_closed_form_point(self):
        u, v = LEADING.velocity(0.001, 0.01)
        assert float(u) == pytest.approx(0.0046052, abs=1e-7)
        assert float(v) == pytest.approx(-0.0460517, abs=1e-7)

    def test_exact_closed_form_point(self):
        u, v = EXACT.velocity(0.001, 0.01)
        assert float(u) == pytest.approx(0.0046035, abs=1e-7)
        assert float(v) == pytest.approx(-0.0545308, abs=1e-7)

    def test_exact_agrees_with_quadrature_at_random_wedge_points(self):
        # oracle: adaptive quadrature of the defining antiderivative integrals
        rng = np.random.default_rng(3)
        region = WedgeRegion(1e-6, 0.05)
        pts = region.sample(1000, rng)
        u, v = EXACT.velocity(pts[:, 0], pts[:, 1])
        for k in range(1000):
            x, y = pts[k]
            iu, _ = integrate.quad(lambda s: math.log(y * y + s * s), 0.0, x)
            iv, _ = integrate.quad(lambda s: math.log(x * x + s * s), 0.0, y)
            assert u[k] == pytest.approx(-0.5 * iu, rel=1e-10, abs=1e-300)
            assert v[k] == pytest.approx(0.5 * iv, rel=1e-10)

    def test_exact_divergence_vanishes(self):
        rng = np.random.default_rng(4)
        pts = WedgeRegion(1e-6, 0.05).sample(50, rng)
        d = 1e-7
        for x, y in pts:
            ux = (EXACT.velocity(x + d, y)[0] - EXACT.velocity(x - d, y)[0]) / (2 * d)
            vy = (EXACT.velocity(x, y + d)[1] - EXACT.velocity(x, y - d)[1]) / (2 * d)
            assert abs(ux + vy) <= 1e-6 * max(abs(ux), abs(vy), 1e-10)

    def test_leading_divergence_is_constant(self):
        d = 1e-7
        for x, y in ((0.001, 0.01), (0.0003, 0.02)):
            ux = (LEADING.velocity(x + d, y)[0] - LEADING.velocity(x - d, y)[0]) / (2 * d)
            vy = (LEADING.velocity(x, y + d)[1] - LEADING.velocity(x, y - d)[1]) / (2 * d)
            assert ux + vy == pytest.approx(LEADING.c2, rel=1e-6)

    def test_axis_guard(self):
        with pytest.raises(NearAxisError):
            EXACT.velocity(1e-13, 0.01)
        with pytest.raises(NearAxisError):
            integrate_trajectory((1e-13, 0.01), 0.1)

    def test_variant_kind_validated(self):
        with pytest.raises(ValueError):
            CrossFieldVariant("other")

    def test_log_rates_match_velocity(self):
        for variant in (EXACT, LEADING):
            for x, y in ((1e-4, 0.02), (1e-3, 0.04), (2e-3, 0.045)):
                u, v = variant.velocity(x, y)
                rx, ry = variant.log_rates_scalar(math.log(x), math.log(y))
                assert rx == pytest.approx(float(u) / x, rel=1e-12)
                assert ry == pytest.approx(float(v) / y, rel=1e-12)

    @pytest.mark.parametrize("variant", [EXACT, LEADING], ids=["exact", "leading"])
    def test_scalar_formula_matches_vector(self, variant):
        # both asymptotic branches (|ln x - ln y| > 30) and the middle one
        ldiffs = [-40.0, -30.5, -29.5, -1.0, 0.0, 1.0, 29.5, 30.5, 40.0]
        lys = np.array([-0.5, -40.0, -700.0])
        ly = np.repeat(lys, len(ldiffs))
        lx = ly + np.tile(ldiffs, len(lys))
        vector = variant.rates_and_partials(lx, ly)
        for i in range(lx.size):
            scalar = variant.rates_and_partials_scalar(float(lx[i]), float(ly[i]))
            for got, want in zip(scalar, vector):
                assert got == pytest.approx(float(want[i]), rel=1e-14, abs=0.0)

    def test_jacobian_matches_finite_differences(self):
        d = 1e-8
        for variant in (EXACT, LEADING):
            x, y = 3e-4, 0.03
            (ux, uy), (vx, vy) = variant.jacobian(x, y)
            u0 = variant.velocity(x, y)
            fd_ux = (variant.velocity(x + d, y)[0] - variant.velocity(x - d, y)[0]) / (2 * d)
            fd_uy = (variant.velocity(x, y + d)[0] - variant.velocity(x, y - d)[0]) / (2 * d)
            fd_vx = (variant.velocity(x + d, y)[1] - variant.velocity(x - d, y)[1]) / (2 * d)
            fd_vy = (variant.velocity(x, y + d)[1] - variant.velocity(x, y - d)[1]) / (2 * d)
            assert float(ux) == pytest.approx(float(fd_ux), rel=1e-6)
            assert float(uy) == pytest.approx(float(fd_uy), rel=1e-6)
            assert float(vx) == pytest.approx(float(fd_vx), rel=1e-6)
            assert float(vy) == pytest.approx(float(fd_vy), rel=1e-6)
            assert u0 is not None


class TestTrajectories:
    def test_leading_closed_forms(self):
        path = integrate_trajectory((1e-6, 0.1), math.log(2.0), variant=LEADING, dt=1e-4)
        assert path.y[-1] == pytest.approx(0.01, rel=1e-8)
        assert path.x[-1] == pytest.approx(1e-5, rel=1e-8)

    def test_monotone_in_wedge(self):
        region = WedgeRegion(1e-8, 0.05)
        path = integrate_trajectory((1e-6, 0.04), 1.0, region=region, dt=1e-3)
        inside = path.t <= (path.exit_time if path.exit_time is not None else np.inf)
        x, y = path.x[inside], path.y[inside]
        assert np.all(np.diff(x) >= 0)
        assert np.all(np.diff(y) <= 0)

    def test_exact_contraction_between_floors(self):
        # the contracted coordinate stays inside the two-sided envelope for
        # the run's fitted constant
        y0 = 0.0099
        region = WedgeRegion.from_log10(-300.0, math.log10(0.01))
        path = integrate_trajectory(
            (math.log(1e-200), math.log(y0)), 2.0, region=region, dt=1e-3, p0_is_log=True
        )
        C = fit_leading_order_bound(path).fitted_C
        assert C <= 3.0
        lo = contraction_floor(2.0, y0, C, as_log=True)
        hi = contraction_floor(2.0, y0, -C, as_log=True)
        assert lo <= path.log_y[-1] <= hi

    def test_exit_recorded(self):
        region = WedgeRegion(1e-8, 0.05)
        path = integrate_trajectory((1e-4, 0.045), 2.0, region=region, dt=1e-3)
        assert path.exit_time is not None
        lx = np.interp(path.exit_time, path.t, path.log_x)
        ly = np.interp(path.exit_time, path.t, path.log_y)
        assert ly <= 0.5 * lx + 0.05  # left through the parabola side

    def test_start_outside_region_rejected(self):
        region = WedgeRegion(1e-8, 0.05)
        with pytest.raises(ValueError, match="outside"):
            integrate_trajectory((0.04, 0.05), 1.0, region=region)

    @pytest.mark.parametrize(
        "integrate", [integrate_trajectory, integrate_variational]
    )
    def test_drift_from_sub_float_start_names_underflow(self, integrate):
        # the drift is evaluated at linear x = exp(-1520), which is 0.0
        with pytest.raises(NearAxisError, match=r"linear x and y.*exp\(ln x\)"):
            integrate(
                (-1520.0, math.log(0.0099)),
                0.01,
                perturbation=_demo_perturbation(1e-3),
                p0_is_log=True,
            )

    def test_csv_columns(self, tmp_path):
        path = integrate_variational((1e-6, 0.1), 0.2, variant=LEADING, dt=1e-3)
        out = tmp_path / "path.csv"
        path.write_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "t,x,y,xa,ya,xb,yb,detJ"


class TestVariational:
    def test_leading_jacobian_closed_form(self):
        path = integrate_variational((1e-6, 0.1), math.log(2.0), variant=LEADING, dt=1e-4)
        assert path.jac[-1, 0, 0] == pytest.approx(10.0, rel=1e-8)
        assert abs(path.jac[-1, 1, 0]) <= 1e-12  # y_a stays zero

    def test_leading_det_growth_matches_divergence(self):
        path = integrate_variational((1e-6, 0.1), 0.5, variant=LEADING, dt=1e-4)
        assert path.det_jac[-1] == pytest.approx(math.exp(0.5), rel=1e-6)

    def test_exact_det_is_one(self):
        path = integrate_variational((1e-5, 0.3), 1.0, variant=EXACT, dt=1e-3)
        assert np.max(np.abs(path.det_jac - 1.0)) <= 1e-6

    def test_matches_centered_difference(self):
        for variant in (EXACT, LEADING):
            x0, y0 = 2e-5, 0.3
            path = integrate_variational((x0, y0), 1.0, variant=variant, dt=1e-3)
            d = 1e-6 * x0
            plus = integrate_trajectory((x0 + d, y0), 1.0, variant=variant, dt=1e-3)
            minus = integrate_trajectory((x0 - d, y0), 1.0, variant=variant, dt=1e-3)
            fd = (plus.x[-1] - minus.x[-1]) / (2 * d)
            assert path.jac[-1, 0, 0] == pytest.approx(fd, rel=1e-4)

    def test_perturbed_jacobian_stays_consistent(self):
        upsilon = 1e-3
        pert = FlowPerturbation(
            lambda x, y, t: 0.5e-4 * upsilon * x * np.cos(y),
            lambda x, y, t: 0.5e-4 * upsilon * y * np.cos(x),
            upsilon,
        )
        x0, y0 = 2e-5, 0.3
        path = integrate_variational((x0, y0), 1.0, perturbation=pert, dt=1e-3)
        d = 1e-6 * x0
        plus = integrate_trajectory((x0 + d, y0), 1.0, perturbation=pert, dt=1e-3)
        minus = integrate_trajectory((x0 - d, y0), 1.0, perturbation=pert, dt=1e-3)
        fd = (plus.x[-1] - minus.x[-1]) / (2 * d)
        assert path.jac[-1, 0, 0] == pytest.approx(fd, rel=1e-4)

    def test_exact_start_below_float_range(self):
        # x0 = e^-1520 underflows to 0; the partials come from ln x - ln y
        p0 = (-1520.0, math.log(0.0099))
        kwargs = dict(variant=EXACT, dt=1e-3, p0_is_log=True)
        path = integrate_variational(p0, 1.0, **kwargs)
        assert np.array_equal(path.log_x, integrate_trajectory(p0, 1.0, **kwargs).log_x)
        assert np.max(np.abs(path.det_jac - 1.0)) <= 1e-9
        # d ln x(T) / d ln x0 = J11 x0 / x(T), against a log-space difference
        h = 1e-4
        plus = integrate_trajectory((p0[0] + h, p0[1]), 1.0, **kwargs)
        minus = integrate_trajectory((p0[0] - h, p0[1]), 1.0, **kwargs)
        fd = (plus.log_x[-1] - minus.log_x[-1]) / (2.0 * h)
        dlog = path.jac[-1, 0, 0] * math.exp(p0[0] - path.log_x[-1])
        assert dlog == pytest.approx(fd, rel=1e-8)

    def test_leading_start_below_float_range(self):
        # ln y = ln y0 e^t and J11 = exp(-ln y0 (e^t - 1)), while y(T) = e^-855
        T = 0.2
        path = integrate_variational((-800.0, -700.0), T, variant=LEADING, dt=1e-4,
                                     p0_is_log=True)
        assert path.log_y[-1] == pytest.approx(-700.0 * math.exp(T), rel=1e-12)
        assert path.jac[-1, 0, 0] == pytest.approx(math.exp(700.0 * math.expm1(T)), rel=1e-4)


class TestVariationalBatch:
    REGION = WedgeRegion(1e-8, 0.05)
    # the last start leaves the wedge through the parabola side (exit near 0.24)
    STARTS = [(1e-6, 0.04), (3e-7, 0.02), (2e-5, 0.03), (1e-4, 0.045)]

    @pytest.mark.parametrize("variant", [EXACT, LEADING], ids=["exact", "leading"])
    @pytest.mark.parametrize("perturbed", [False, True], ids=["free", "demo"])
    def test_matches_scalar_path(self, variant, perturbed):
        pert = _demo_perturbation(1e-3) if perturbed else ZERO_PERTURBATION
        kwargs = dict(perturbation=pert, variant=variant, region=self.REGION, dt=2e-3)
        batch = integrate_variational_batch(self.STARTS, 0.5, **kwargs)
        assert len(batch) == len(self.STARTS)
        assert batch[-1].exit_time is not None
        for p0, path in zip(self.STARTS, batch):
            ref = integrate_variational(p0, 0.5, **kwargs)
            assert np.array_equal(path.t, ref.t)
            assert path.exit_time == ref.exit_time
            for name in ("log_x", "log_y", "jac"):
                np.testing.assert_allclose(
                    getattr(path, name), getattr(ref, name), rtol=1e-12, atol=0.0
                )

    def test_every_start_is_checked(self):
        with pytest.raises(ValueError, match="outside"):
            integrate_variational_batch([(1e-6, 0.04), (0.04, 0.05)], 0.1, region=self.REGION)
        with pytest.raises(NearAxisError):
            integrate_variational_batch([(1e-6, 0.04), (1e-13, 0.01)], 0.1)
        with pytest.raises(ValueError, match="dt"):
            integrate_variational_batch([(1e-6, 0.04)], 0.1, dt=0.0)

    def test_jacobian_overflow_raises(self):
        # ln x grows at rate 400, so J11 ~ x / x0 passes 1e250 before T = 2
        pert = FlowPerturbation(lambda x, y, t: 400.0 * x, None, 1.0)
        starts = [(1e-6, 0.1), (1e-5, 0.3)]
        kwargs = dict(perturbation=pert, variant=LEADING, dt=1e-2)
        integrate_variational_batch(starts, 1.0, **kwargs)  # still in range
        for p0 in starts:
            with pytest.raises(OverflowError, match="left float range"):
                integrate_variational(p0, 2.0, **kwargs)
        with pytest.raises(OverflowError, match="left float range"):
            integrate_variational_batch(starts, 2.0, **kwargs)

    def test_non_finite_jacobian_raises(self):
        # the leading u_y = -x/y overflows inside a stage near t = 5.7 and J12
        # turns inf, then NaN, without ever reading above 1e250
        kwargs = dict(variant=LEADING, dt=1e-2)
        with pytest.raises(OverflowError, match="left float range"):
            integrate_variational((1e-6, 0.3), 6.0, **kwargs)
        with np.errstate(all="ignore"), pytest.raises(OverflowError, match="left float range"):
            integrate_variational_batch([(1e-6, 0.1), (1e-6, 0.3)], 6.0, **kwargs)

    def test_write_csv_matches_per_cell_format(self, tmp_path):
        pert = _demo_perturbation(1e-3)
        with_jac = integrate_variational_batch([(2e-5, 0.03)], 0.3, perturbation=pert)[0]
        without_jac = integrate_trajectory((2e-5, 0.03), 0.3, perturbation=pert)
        for k, path in enumerate((with_jac, without_jac)):
            lines = ["t,x,y,xa,ya,xb,yb,detJ"]
            for i in range(path.t.size):
                row = [path.t[i], path.x[i], path.y[i]]
                if path.jac is None:
                    row += [1.0, 0.0, 0.0, 1.0, 1.0]
                else:
                    j = path.jac[i]
                    row += [j[0, 0], j[1, 0], j[0, 1], j[1, 1], path.det_jac[i]]
                lines.append(",".join(format_value(v) for v in row))
            out = tmp_path / f"path{k}.csv"
            path.write_csv(out)
            assert out.read_text() == "\n".join(lines) + "\n"


class TestRK4Steps:
    def test_last_step_lands_on_T_off_the_dt_lattice(self):
        # RK4 integrates y' = t^3 exactly (Simpson weights), so only rounding remains
        steps = list(rk4_steps(lambda s, t: (t**3,), (0.0,), 1.05, 0.1))
        assert len(steps) == 11
        t_end, (y_end,) = steps[-1]
        assert t_end == 1.05
        assert y_end == pytest.approx(1.05**4 / 4.0, rel=1e-14)
        times = [t for t, _ in steps]
        assert np.allclose(np.diff(times)[:-1], 0.1, rtol=1e-12)

    @pytest.mark.parametrize("T, dt", [(1.0, 0.1), (2.0, 1e-3)])
    def test_last_step_lands_on_T_on_the_dt_lattice(self, T, dt):
        # summing dt falls short of T here; the last step must close the gap
        steps = list(rk4_steps(lambda s, t: (1.0,), (0.0,), T, dt))
        assert len(steps) == round(T / dt)
        t_end, (clock,) = steps[-1]
        assert t_end == T
        assert clock == pytest.approx(T, rel=1e-12)

    def test_tuple_of_arrays_state(self):
        rates = np.array([1.0, -2.0])
        state = (np.ones(2), 0.0)
        *_, (t, (x, clock)) = rk4_steps(lambda s, t: (rates * s[0], 1.0), state, 0.5, 0.01)
        assert t == 0.5 and clock == pytest.approx(0.5, rel=1e-14)
        np.testing.assert_allclose(x, np.exp(rates * 0.5), rtol=1e-8)  # O(h^4) truncation
        assert np.array_equal(state[0], np.ones(2))  # the start is not mutated

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_nonpositive_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            next(rk4_steps(lambda s, t: (1.0,), (0.0,), 1.0, dt))

    def test_zero_horizon_takes_no_step(self):
        assert list(rk4_steps(lambda s, t: (1.0,), (0.0,), 0.0, 0.1)) == []


class TestContractionFloor:
    def test_direct_value(self):
        assert contraction_floor(math.log(2.0), 0.1, 0.0) == pytest.approx(0.01, rel=1e-12)

    def test_zero_horizon(self):
        assert contraction_floor(0.0, 0.37, 0.0) == pytest.approx(0.37, rel=1e-12)

    def test_log_space_avoids_underflow(self):
        val = contraction_floor(3.0, 1e-3, 1.0, as_log=True)
        assert val == pytest.approx(math.exp(3.0) * (math.log(1e-3) - 1.0), rel=1e-12)
        deep = contraction_floor(5.0, 1e-3, 1.0, as_log=True)
        assert deep == pytest.approx(math.exp(5.0) * (math.log(1e-3) - 1.0), rel=1e-12)
        assert contraction_floor(5.0, 1e-3, 1.0) == 0.0  # underflows as a float

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            contraction_floor(1.0, 1.5, 0.0)


class TestAdmissibility:
    def region(self):
        return WedgeRegion(1e-6, 0.05)

    def test_zero_perturbation_passes(self):
        report = check_perturbation_admissible(ZERO_PERTURBATION, self.region())
        assert report.passed
        assert report.value_margin == math.inf

    def test_half_bound_passes(self):
        upsilon = 1e-2
        pert = FlowPerturbation(
            lambda x, y, t: 0.5e-4 * upsilon * np.hypot(x, y),
            None,
            upsilon,
        )
        report = check_perturbation_admissible(pert, self.region(), seed=1)
        assert report.passed
        assert 1.5 <= report.value_margin <= 2.5

    def test_double_bound_fails_with_witness(self):
        upsilon = 1e-2
        pert = FlowPerturbation(
            lambda x, y, t: 2e-4 * upsilon * np.hypot(x, y),
            None,
            upsilon,
        )
        report = check_perturbation_admissible(pert, self.region(), seed=1)
        assert not report.passed
        x, y, t = report.value_witness
        assert self.region().contains(x, y)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            check_perturbation_admissible(ZERO_PERTURBATION, self.region(), samples=10)


class TestLeadingOrderBound:
    def test_leading_path_needs_no_constant(self):
        path = integrate_trajectory((1e-6, 0.1), 1.0, variant=LEADING, dt=1e-3)
        assert fit_leading_order_bound(path).fitted_C <= 1e-12

    def test_exact_wedge_constant_below_three(self):
        region = WedgeRegion(1e-9, 0.01)
        path = integrate_trajectory((1e-8, 0.009), 0.5, region=region, dt=1e-3)
        fit = fit_leading_order_bound(path)
        assert fit.fitted_C <= 3.0
        assert isinstance(fit.required, DiagnosticSeries)

    def test_constant_shrinks_with_outer_scale(self):
        # corner-anchored starts probe the region sup; smaller outer scale
        # leaves smaller corrections
        x_min = 1e-6
        fitted = []
        for outer in (0.05, 0.02, 0.01):
            region = WedgeRegion(x_min, outer)
            starts = [
                (2.0 * x_min, 0.98 * outer),
                (2.0 * x_min, 0.5 * outer),
                (0.4 * outer**2, 0.98 * outer),
            ]
            C = 0.0
            for p0 in starts:
                path = integrate_trajectory(p0, 0.2, region=region, dt=1e-3)
                C = max(C, fit_leading_order_bound(path).fitted_C)
            fitted.append(C)
        assert fitted[0] >= fitted[1] >= fitted[2]

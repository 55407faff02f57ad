"""Diagnostics tests: advection, geometry, rate fits, envelopes, field probes."""

import math

import numpy as np
import pytest

import vcross as vc
from hypothesis import given, settings
from hypothesis import strategies as st

from vcross.diagnostics import (
    ModelFlow,
    SnapshotFlow,
    advect_polyline,
    bump_hessian_scaling,
    fit_double_exponential,
    fit_growth_envelope,
    growth_ratio_probe,
    periodic_bilinear,
    perturbation_field_bounds,
    polygon_area,
    polyline_length,
    polyline_min_distance,
    ratio_series,
    stretch_and_thickness,
)
from vcross.experiments import arm_anomaly, shear_state
from vcross.initial_data import BumpSpec, make_bump
from vcross.model import EXACT, LEADING, WedgeRegion
from vcross.series import DiagnosticSeries


def circle(center, radius, n=64):
    ang = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.column_stack(
        [center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)]
    )


def chord(center, radius):
    return np.array(
        [[center[0] - radius / 2.0, center[1]], [center[0] + radius / 2.0, center[1]]]
    )


class TestAdvectPolyline:
    def test_zero_velocity_is_identity(self):
        pts = circle((1.0, 1.0), 0.1)
        out = advect_polyline(lambda t, p: np.zeros_like(p), pts, 1.0, dt=0.05)
        assert np.array_equal(out.points, pts)

    def test_rigid_rotation_preserves_lengths(self):
        center = np.array([np.pi, np.pi])

        def rotation(t, pts):
            rel = pts - center
            return np.column_stack([-rel[:, 1], rel[:, 0]])

        pts = circle(center, 0.5, n=48)
        out = advect_polyline(rotation, pts, 2.0 * np.pi, dt=2.0 * np.pi / 8000)
        assert polyline_length(out.points) == pytest.approx(
            polyline_length(pts), rel=1e-8
        )
        assert np.max(np.abs(out.points - pts)) <= 1e-8

    def test_rigid_rotation_through_snapshots(self, grid128):
        # snapshot interpolation of a linear field is exact in space
        X, Y = grid128.meshgrid()
        u = -(Y - np.pi)
        v = X - np.pi
        snaps = [(0.0, u, v), (1.0, u, v)]
        flow = SnapshotFlow(grid128, snaps)
        pts = circle((np.pi, np.pi), 0.4, n=32)
        out = advect_polyline(flow, pts, 0.5, dt=1e-3)
        # exact solution is rotation by 0.5 rad
        c, s = np.cos(0.5), np.sin(0.5)
        rel = pts - np.array([np.pi, np.pi])
        expect = np.column_stack(
            [np.pi + c * rel[:, 0] - s * rel[:, 1], np.pi + s * rel[:, 0] + c * rel[:, 1]]
        )
        assert np.max(np.abs(out.points - expect)) <= 1e-8

    def test_exit_records(self):
        region = WedgeRegion(1e-8, 0.05)
        pts = np.array([[1e-5, 0.045], [1e-4, 0.045]])
        out = advect_polyline(ModelFlow(EXACT), pts, 1.5, dt=1e-3, region=region)
        assert out.exit_times is not None
        assert np.isnan(out.exit_times[0]) or out.exit_times[0] > out.exit_times[1]

    def test_refinement_inserts_vertices(self):
        def strain(t, pts):
            return np.column_stack([pts[:, 0] - 1.0, -(pts[:, 1] - 1.0)])

        pts = np.array([[0.8, 1.0], [1.2, 1.0]])
        out = advect_polyline(strain, pts, 1.5, dt=1e-3, refine_threshold=0.05)
        assert out.points.shape[0] > 2
        gaps = np.linalg.norm(np.diff(out.points, axis=0), axis=1)
        assert np.max(gaps) <= 0.05

    def test_vertex_count_preserved_without_refinement(self):
        pts = circle((1.0, 1.0), 0.1, n=17)
        out = advect_polyline(lambda t, p: np.ones_like(p), pts, 0.3, dt=0.01)
        assert out.points.shape == (17, 2)

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_nonpositive_dt_rejected(self, dt):
        pts = circle((1.0, 1.0), 0.1, n=8)
        with pytest.raises(ValueError, match="dt must be positive"):
            advect_polyline(lambda t, p: np.ones_like(p), pts, 0.3, dt=dt)


class TestPeriodicBilinear:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_grid_values_exact_at_nodes_and_under_two_pi_shifts(self, n):
        grid = vc.Grid(n)
        arr = np.random.default_rng(n).standard_normal((n, n))
        X, Y = grid.meshgrid()
        for sx, sy in [(0, 0), (1, 0), (0, -1), (-2, 3)]:
            px = X.ravel() + sx * 2.0 * np.pi
            py = Y.ravel() + sy * 2.0 * np.pi
            got = periodic_bilinear(arr, px, py, grid).reshape(n, n)
            assert np.array_equal(got, arr), (sx, sy)

    def test_off_grid_points_periodic_and_linear(self, grid64):
        X, Y = grid64.meshgrid()
        plane = 2.0 * X - 3.0 * Y  # bilinear interpolation is exact inside a cell
        pts = np.random.default_rng(1).uniform(0.0, 2.0 * np.pi - grid64.spacing, (2, 500))
        base = periodic_bilinear(plane, pts[0], pts[1], grid64)
        np.testing.assert_allclose(base, 2.0 * pts[0] - 3.0 * pts[1], rtol=0, atol=1e-12)
        # x + 2 pi rounds at n ulps of a cell, so a shift moves the result by rounding only
        shifted = periodic_bilinear(plane, pts[0] + 2.0 * np.pi, pts[1] - 2.0 * np.pi, grid64)
        np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12)


class TestGeometry:
    def test_polygon_area_square(self):
        sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert polygon_area(sq) == 1.0

    def test_min_distance_against_dense_oracle(self):
        a = circle((0.0, 0.0), 1.0, n=64)
        b = chord((0.0, 0.0), 1.0)
        d = polyline_min_distance(b, a, closed_b=True)
        # oracle: dense resampling of both polylines, pairwise point distances
        dense_a = []
        closed = np.vstack([a, a[:1]])
        for p, q in zip(closed[:-1], closed[1:]):
            for s in np.linspace(0.0, 1.0, 200, endpoint=False):
                dense_a.append(p + s * (q - p))
        dense_b = [b[0] + s * (b[1] - b[0]) for s in np.linspace(0.0, 1.0, 400)]
        dense = min(
            np.min(np.linalg.norm(np.asarray(dense_a) - q, axis=1)) for q in dense_b
        )
        assert d == pytest.approx(dense, abs=1e-5)
        # endpoint at radius 1/2 from center: distance to the circle ~ 1/2
        sagitta = 1.0 - np.cos(np.pi / 64)
        assert 0.5 - sagitta - 1e-9 <= d <= 0.5

    def test_stretch_record(self):
        a = circle((0.0, 0.0), 0.01, n=64)
        b = chord((0.0, 0.0), 0.01)
        rec = stretch_and_thickness(b, a)
        assert rec.length == pytest.approx(0.01, rel=1e-12)
        assert rec.area_product == pytest.approx(0.01 * rec.thickness, rel=1e-12)

    def test_degenerate_segment_rejected(self):
        a = circle((0.0, 0.0), 0.01)
        with pytest.raises(ValueError):
            stretch_and_thickness(np.array([[0.0, 0.0], [0.0, 0.0]]), a)


class TestModelAdvectionGeometry:
    def test_exact_variant_area_preserved(self):
        y0, gamma = 0.3, 1e-3
        pts = circle((2e-3, y0), gamma, n=64)
        out = advect_polyline(ModelFlow(EXACT), pts, 0.5, dt=5e-4)
        a0 = polygon_area(pts)
        a1 = polygon_area(out.points)
        assert abs(a1 - a0) / a0 <= 1e-6

    def test_leading_variant_area_grows_exponentially(self):
        y0, gamma = 0.3, 1e-3
        pts = circle((2e-3, y0), gamma, n=64)
        out = advect_polyline(ModelFlow(LEADING), pts, 0.5, dt=5e-4)
        growth = polygon_area(out.points) / polygon_area(pts)
        assert growth == pytest.approx(math.exp(0.5), rel=0.01)


class TestFitDoubleExponential:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_exact_recovery_decay(self, a):
        t = np.linspace(0.0, 2.0, 40)
        y = np.exp(-np.exp(a * t))
        fit = fit_double_exponential(DiagnosticSeries("y", t, y))
        assert fit.slope == pytest.approx(a, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_exact_recovery_growth(self, a):
        t = np.linspace(0.1, 2.0, 40)
        g = np.exp(np.exp(a * t))
        fit = fit_double_exponential(DiagnosticSeries("g", t, g))
        assert fit.slope == pytest.approx(a, abs=1e-10)

    def test_leading_variant_contraction_rate(self):
        path = vc.integrate_trajectory((1e-8, 0.1), 2.0, variant=LEADING, dt=1e-4)
        series = DiagnosticSeries("y", path.t, path.y)
        fit = fit_double_exponential(series, window=(0.0, 2.0), kind="decay")
        assert fit.slope == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(0.3, 2.5),
        sign=st.sampled_from(["decay", "growth"]),
    )
    def test_property_exact_recovery_any_rate(self, a, sign):
        t = np.linspace(0.2, 1.8, 25)
        vals = np.exp(-np.exp(a * t)) if sign == "decay" else np.exp(np.exp(a * t))
        fit = fit_double_exponential(DiagnosticSeries("s", t, vals), kind=sign)
        assert fit.slope == pytest.approx(a, abs=1e-9)
        assert fit.r_squared >= 1.0 - 1e-12

    def test_domain_violation_names_witness(self):
        t = np.linspace(0.0, 1.0, 10)
        y = np.linspace(0.5, 1.5, 10)
        with pytest.raises(ValueError, match="t="):
            fit_double_exponential(DiagnosticSeries("y", t, y), kind="decay")

    def test_window_needs_five_samples(self):
        s = DiagnosticSeries("y", [0.0, 1.0, 2.0], [0.5, 0.4, 0.3])
        with pytest.raises(ValueError, match="5 samples"):
            fit_double_exponential(s)


class TestEnvelopes:
    def test_constant_series_needs_no_constant(self):
        t = np.linspace(0.0, 2.0, 20)
        s = DiagnosticSeries("g", t, np.ones(20))
        fit = fit_growth_envelope(s, "lipschitz", {"grad0": 1.0})
        assert fit.fitted_C == 0.0
        assert fit.holds

    def test_synthetic_lipschitz_constant_near_one(self):
        t = np.linspace(0.0, 6.0, 200)
        s = DiagnosticSeries("g", t, np.exp(np.exp(t) - 1.0))
        fit = fit_growth_envelope(s, "lipschitz", {"grad0": math.e})
        assert 0.85 <= fit.fitted_C <= 1.0

    def test_monotone_under_window_extension(self):
        t = np.linspace(0.0, 6.0, 200)
        s = DiagnosticSeries("g", t, np.exp(np.exp(t) - 1.0))
        base = {"grad0": math.e}
        c_short = fit_growth_envelope(s.window(0.0, 3.0), "lipschitz", base).fitted_C
        c_long = fit_growth_envelope(s, "lipschitz", base).fitted_C
        assert c_long >= c_short

    def test_exponential_kind_direct(self):
        t = np.linspace(0.0, 4.0, 50)
        g0, C, sup = 2.0, 0.3, 1.5
        s = DiagnosticSeries("g", t, g0 * np.exp(C * sup * t))
        fit = fit_growth_envelope(s, "exponential", {"grad0": g0, "theta_sup": sup})
        assert fit.fitted_C == pytest.approx(C, rel=1e-6)

    def test_h2_kind_recovers_planted_constant(self):
        t = np.linspace(0.0, 3.0, 60)
        j0, sup, C = 5.0, 1.2, 0.4
        vals = np.exp(((1 + 2 * math.log(j0)) * np.exp(C * sup * t) - 1.0) / 2.0)
        s = DiagnosticSeries("h2", t, vals)
        fit = fit_growth_envelope(s, "h2", {"h2_0": j0, "theta_sup": sup})
        assert fit.fitted_C == pytest.approx(C, rel=1e-6)

    def test_positive_series_required(self):
        s = DiagnosticSeries("g", [0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            fit_growth_envelope(s, "lipschitz", {"grad0": 1.0})


class TestPerturbationFieldBounds:
    def test_zero_anomaly(self, grid256):
        rep = perturbation_field_bounds(
            vc.ScalarField.zeros(grid256), 1e-3, [0.1, 0.2]
        )
        assert rep.field_max == 0.0
        assert rep.hessian_sup == 0.0

    @pytest.mark.parametrize("width", [0.0, -0.1])
    def test_nonpositive_anomaly_width_refused(self, grid256, width):
        with pytest.raises(ValueError, match=f"width must be positive, got {width}"):
            arm_anomaly(grid256, width)

    def test_origin_forced_by_symmetry(self, grid256):
        p = arm_anomaly(grid256, 0.3)
        rep = perturbation_field_bounds(p, 1e-3, [0.1, 0.2], arm_width=0.3)
        assert rep.origin_value <= 1e-6 * rep.field_max

    def test_ratio_bounded_near_origin(self, grid256):
        p = arm_anomaly(grid256, 0.3)
        radii = np.geomspace(0.05, 2.0, 9)
        rep = perturbation_field_bounds(p, 1e-3, radii)
        # linear vanishing at the stagnation point: the ratio peaks at the
        # smallest radius and never explodes
        assert np.argmax(rep.sup_ratio) == 0
        assert np.all(rep.sup_ratio <= 2.0 * rep.sup_ratio[0])

    def test_support_leak_detected(self, grid256):
        bump = make_bump(grid256, BumpSpec((1.8, 2.6), 0.5, 0.5))
        with pytest.raises(ValueError, match="leak"):
            perturbation_field_bounds(bump, 1e-3, [0.1], arm_width=0.05)


class TestHessianScaling:
    def test_single_bump_bound(self, grid256):
        b = make_bump(grid256, BumpSpec((1.8, 2.6), 0.5, 0.4))
        H = vc.hessian_sup_of_inverse_laplacian(b)
        M = vc.grad_sup_norm(b)
        omega = b.l2_norm()
        assert H <= 10.0 * math.sqrt(M * omega)

    def test_halving_family_slope(self, grid256):
        bumps = [
            make_bump(grid256, BumpSpec((1.8, 2.6), 0.6 / 2 ** (k / 2), 0.5 / 2 ** (k / 2)))
            for k in range(3)
        ]
        result = bump_hessian_scaling(bumps)
        assert 0.3 <= result.fit.slope <= 0.7
        assert np.max(np.abs(result.grad_sups / result.grad_sups[0] - 1.0)) <= 0.05

    def test_needs_two_members(self, grid256):
        with pytest.raises(ValueError):
            bump_hessian_scaling([vc.ScalarField.zeros(grid256)])


class TestGrowthProbe:
    def test_initial_ratio_is_one(self):
        s = DiagnosticSeries("g", [0.0, 1.0], [2.0, 3.0])
        probe = growth_ratio_probe([(1.0, s)])
        assert probe.rows[0].ratio == 1.5
        assert ratio_series(s).values[0] == 1.0

    def test_steady_shear_ratio_constant(self, grid64):
        result = vc.run(shear_state(grid64), 0.5, sample_every=0.1)
        rs = ratio_series(result.series["grad_sup"])
        assert np.max(np.abs(rs.values - 1.0)) <= 1e-10

    def test_nondecreasing_check(self):
        t = [0.0, 1.0]
        probe = growth_ratio_probe(
            [
                (1.0, DiagnosticSeries("a", t, [1.0, 2.0])),
                (2.0, DiagnosticSeries("b", t, [1.0, 3.0])),
            ]
        )
        assert probe.nondecreasing()
        probe_bad = growth_ratio_probe(
            [
                (1.0, DiagnosticSeries("a", t, [1.0, 3.0])),
                (2.0, DiagnosticSeries("b", t, [1.0, 2.0])),
            ]
        )
        assert not probe_bad.nondecreasing()


class TestDivergenceFreeAdvectionProperty:
    def test_polygon_area_preserved_under_solver_flow(self, grid128):
        # velocity snapshots from an actual solver run drive the polyline
        from vcross.experiments import smooth_random_field

        state = vc.SimState(smooth_random_field(grid128, seed=4))
        result = vc.run(state, 0.5, sample_every=0.05, log_velocity=True)
        flow = SnapshotFlow(grid128, result.velocity_log)
        pts = circle((np.pi, np.pi), 0.5, n=256)
        out = advect_polyline(flow, pts, 0.5, dt=2e-3)
        a0, a1 = polygon_area(pts), polygon_area(out.points)
        assert abs(a1 - a0) / a0 <= 1e-4

    def test_snapshot_cadence_convergence(self, grid128):
        from vcross.experiments import smooth_random_field

        state = vc.SimState(smooth_random_field(grid128, seed=4))
        coarse = vc.run(state, 0.4, sample_every=0.2, log_velocity=True)
        fine = vc.run(state, 0.4, sample_every=0.05, log_velocity=True)
        pts = circle((np.pi, np.pi), 0.5, n=32)
        out_c = advect_polyline(SnapshotFlow(grid128, coarse.velocity_log), pts, 0.4, dt=2e-3)
        out_f = advect_polyline(SnapshotFlow(grid128, fine.velocity_log), pts, 0.4, dt=2e-3)
        gap = np.max(np.linalg.norm(out_c.points - out_f.points, axis=1))
        assert gap <= 5e-4  # linear-in-time interpolation error at coarse cadence

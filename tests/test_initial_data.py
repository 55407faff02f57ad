"""Initial-data constructors: cross fields, bumps, composition."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

import vcross as vc
from conftest import evenness_error
from vcross.initial_data import (
    BumpSpec,
    _mollifier_tail_table,
    bump_profile_constants,
    compose_initial_data,
    cross_arm_distance,
    make_bump,
    mollified_cross,
    mollifier_slope_at_jump,
    singular_cross,
)
from vcross.ladder import resolve_ladder

TWO_PI = 2.0 * np.pi


def relaxed_ladder(outer=0.7):
    return resolve_ladder(1.0, mode="relaxed", overrides={"outer": math.log10(outer)})


class TestSingularCross:
    def test_quadrant_values(self, grid64):
        sc = singular_cross(grid64)
        i = 16  # x = pi/2
        assert sc.values[i, i] == 1.0
        assert sc.values[64 - i, i] == -1.0  # x = -pi/2
        assert sc.values[64 - i, 64 - i] == 1.0

    def test_axis_ties_to_zero(self, grid64):
        sc = singular_cross(grid64)
        assert np.all(sc.values[0, :] == 0.0)
        assert np.all(sc.values[:, 32] == 0.0)

    def test_mean_exactly_zero(self, grid64):
        assert singular_cross(grid64).mean == 0.0

    def test_odd_across_each_axis_even_jointly(self, grid64):
        v = singular_cross(grid64).values
        assert np.array_equal(v, -np.roll(v[::-1, :], 1, 0))  # odd in x
        assert np.array_equal(v, -np.roll(v[:, ::-1], 1, 1))  # odd in y
        assert evenness_error(v) == 0.0


class TestMollifiedCross:
    def test_equals_cross_away_from_arms(self, grid256):
        sigma = 0.2
        mc = mollified_cross(grid256, sigma)
        sc = singular_cross(grid256)
        far = cross_arm_distance(grid256) > sigma
        assert np.array_equal(mc.values[far], sc.values[far])

    def test_plateau_value_at_quadrant_center(self, grid256):
        mc = mollified_cross(grid256, 0.2)
        i = 64  # (pi/2, pi/2)
        assert mc.values[i, i] == 1.0

    def test_mean_and_symmetry(self, grid256):
        mc = mollified_cross(grid256, 0.2)
        assert abs(mc.mean) <= 1e-12
        assert evenness_error(mc.values) == 0.0
        v = mc.values
        assert np.array_equal(v, -np.roll(v[::-1, :], 1, 0))

    def test_sup_is_one(self, grid256):
        mc = mollified_cross(grid256, 0.2)
        assert mc.linf_norm() == 1.0
        assert np.max(mc.values) == 1.0

    def test_under_resolved_sigma_rejected(self, grid64):
        with pytest.raises(vc.UnresolvedScaleError) as err:
            mollified_cross(grid64, 0.2)  # 0.2 < 8 * 2pi/64
        assert err.value.required_n >= 256

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 0.7])
    def test_sigma_range_enforced(self, grid256, sigma):
        with pytest.raises(ValueError):
            mollified_cross(grid256, sigma)

    def test_against_quadrature_oracle(self, grid256):
        # the construction must agree with direct 2D quadrature of the
        # convolution integral at band and corner points
        sigma = 0.2
        mc = mollified_cross(grid256, sigma)

        def mollifier(a, b):
            r2 = (a * a + b * b) / sigma**2
            if r2 >= 1.0:
                return 0.0
            return math.exp(-1.0 / (1.0 - r2))

        norm, _ = integrate.dblquad(
            mollifier, -sigma, sigma, lambda a: -sigma, lambda a: sigma,
            epsabs=1e-12, epsrel=1e-10,
        )

        def wave(t):
            t = t % TWO_PI
            if t == 0.0 or t == math.pi:
                return 0.0
            return 1.0 if t < math.pi else -1.0

        def convolved(x, y):
            val, _ = integrate.dblquad(
                lambda b, a: wave(x - a) * wave(y - b) * mollifier(a, b),
                -sigma, sigma, lambda a: -sigma, lambda a: sigma,
                epsabs=1e-11, epsrel=1e-9,
            )
            return val / norm

        for i, j in ((3, 64), (2, 3), (250, 126)):
            x, y = grid256.x[i], grid256.x[j]
            assert mc.values[i, j] == pytest.approx(convolved(x, y), abs=2e-5)

    def test_jump_slope_constant(self):
        # the 1D profile slope at the arm is the mollifier marginal density
        assert mollifier_slope_at_jump() == pytest.approx(1.9035, abs=2e-3)


class TestMollifierTailTable:
    def test_build_peak_memory_bounded(self):
        tracemalloc.start()
        try:
            _, table = _mollifier_tail_table.__wrapped__()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * table.nbytes

    def test_total_quarter_mass_at_origin(self):
        _, table = _mollifier_tail_table()
        assert table[0, 0] == 0.25

    def test_nonincreasing_along_both_axes(self):
        _, table = _mollifier_tail_table()
        assert np.all(np.diff(table, axis=0) <= 0.0)
        assert np.all(np.diff(table, axis=1) <= 0.0)

    def test_zero_outside_unit_disc(self):
        axis, table = _mollifier_tail_table()
        outside = np.add.outer(axis**2, axis**2) >= 1.0
        assert outside.any()
        assert np.all(table[outside] == 0.0)


class TestMakeBump:
    def test_sup_exactly_height(self, grid256):
        spec = BumpSpec((0.12, 0.42), 16 * grid256.spacing, 0.8)
        b = make_bump(grid256, spec, ladder=relaxed_ladder())
        assert b.linf_norm() == 0.8
        assert np.max(b.values) == 0.8

    def test_zero_mean_and_even(self, grid256):
        spec = BumpSpec((0.12, 0.42), 16 * grid256.spacing, 0.8)
        b = make_bump(grid256, spec, ladder=relaxed_ladder())
        assert abs(b.mean) <= 1e-12
        assert evenness_error(b.values) == 0.0

    def test_gradient_scale(self, grid256):
        h1 = 16 * grid256.spacing
        h2 = 0.8
        spec = BumpSpec((0.12, 0.42), h1, h2)
        b = make_bump(grid256, spec, ladder=relaxed_ladder())
        profile_const = 2.0 * bump_profile_constants()["max_abs_slope"]
        predicted = (h2 / h1) * profile_const
        assert 0.5 * predicted <= vc.grad_sup_norm(b) <= 4.0 * predicted

    def test_l2_norm_matches_profile(self, grid256):
        h1 = 16 * grid256.spacing
        spec = BumpSpec((0.12, 0.42), h1, 0.8)
        b = make_bump(grid256, spec, ladder=relaxed_ladder())
        # two copies of height * radius * |g|_2
        predicted = 0.8 * (h1 / 2.0) * bump_profile_constants()["l2"] * math.sqrt(2.0)
        assert b.l2_norm() == pytest.approx(predicted, rel=5e-3)

    def test_under_resolved_support_rejected(self, grid64):
        spec = BumpSpec((0.8, 1.2), 4 * grid64.spacing, 0.5)
        with pytest.raises(vc.UnresolvedScaleError) as err:
            make_bump(grid64, spec)
        assert err.value.required_n == 128

    def test_center_outside_wedge_rejected(self, grid256):
        spec = BumpSpec((0.4, 0.42), 16 * grid256.spacing, 0.5)  # y < sqrt(x)
        with pytest.raises(ValueError, match="y0_above_sqrt_x0"):
            make_bump(grid256, spec, ladder=relaxed_ladder())

    def test_faithful_ladder_rejects_any_grid_center(self, grid256):
        spec = BumpSpec((0.12, 0.42), 16 * grid256.spacing, 0.5)
        faithful = resolve_ladder(1.0, mode="faithful")
        with pytest.raises(ValueError, match="seed box"):
            make_bump(grid256, spec, ladder=faithful)

    def test_without_ladder_no_placement_check(self, grid256):
        spec = BumpSpec((1.8, 2.6), 16 * grid256.spacing, 0.5)
        b = make_bump(grid256, spec)
        assert b.linf_norm() == 0.5

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BumpSpec((0.1, 0.4), -0.1, 0.5)
        with pytest.raises(ValueError):
            BumpSpec((0.1, 0.4), 0.1, 0.0)
        assert not BumpSpec((0.1, 0.4), 0.2, 0.5).faithful_regime
        assert BumpSpec((0.1, 0.4), 1e-6, 5e-5).faithful_regime


class TestCompose:
    def test_sup_below_two_zero_mean_even(self, grid256):
        ladder = relaxed_ladder()
        spec = BumpSpec((0.12, 0.42), 16 * grid256.spacing, 0.8)
        theta = compose_initial_data(grid256, ladder, spec, 0.25)
        assert theta.linf_norm() < 2.0
        assert abs(theta.mean) <= 1e-12
        assert evenness_error(theta.values) == 0.0

    def test_sup_cap_enforced(self, grid256):
        ladder = relaxed_ladder()
        spec = BumpSpec((0.12, 0.42), 16 * grid256.spacing, 1.2)
        with pytest.raises(vc.InvalidFieldError, match="sup norm"):
            compose_initial_data(grid256, ladder, spec, 0.25)

    def test_gradient_dominated_by_bump(self, grid256):
        # steep bump away from the arm band: composed slope is the bump's
        ladder = relaxed_ladder(outer=0.85)
        sigma = 0.2
        h1 = 12 * grid256.spacing
        spec = BumpSpec((0.45, 0.75), h1, 0.9)
        theta = compose_initial_data(grid256, ladder, spec, sigma)
        bump_slope = (0.9 / h1) * 2.0 * bump_profile_constants()["max_abs_slope"]
        cross_slope = mollifier_slope_at_jump() / sigma
        assert bump_slope > 1.5 * cross_slope
        assert vc.grad_sup_norm(theta) == pytest.approx(bump_slope, rel=0.15)

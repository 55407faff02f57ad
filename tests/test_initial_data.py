"""Initial-data constructors: cross fields, bumps, composition."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

import vcross as vc
from conftest import evenness_error
from vcross.experiments import default_growth_family
from vcross.fields import PointEvenField
from vcross.initial_data import (
    BumpSpec,
    TAIL_RES,
    _check_bump_placement,
    _corner_columns,
    _signed_arm_offsets,
    _square_wave,
    _tail_columns,
    bump_profile_constants,
    compose_initial_data,
    cross_arm_distance,
    make_bump,
    mollified_cross,
    mollifier_slope_at_jump,
    singular_cross,
)
from vcross.ladder import resolve_ladder
from vcross.model import WedgeRegion

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

    def test_resolution_floor_is_the_bumps(self, grid64, grid256):
        # one floor for sigma and support: a width a rounding short of 8 cells passes
        mollified_cross(grid256, np.nextafter(8 * grid256.spacing, 0.0))
        with pytest.raises(vc.UnresolvedScaleError) as err:
            mollified_cross(grid64, 0.2)
        assert str(err.value) == "sigma 0.2 spans fewer than 8 cells at n=64 (need n >= 256)"

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

    @pytest.mark.parametrize(
        "n, sigma",
        [(256, 0.25)] + [(512, m.sigma) for m in default_growth_family(vc.Grid(512))],
    )
    def test_bitwise_the_whole_table_formula(self, whole_table, n, sigma):
        grid = vc.Grid(n)
        expected = _table_formula_cross(grid, sigma, whole_table)
        assert np.array_equal(mollified_cross(grid, sigma).values, expected)

    def test_cold_cross_peak_and_retained_memory(self):
        grid = vc.Grid(512)
        mollified_cross(grid, 0.125)  # first-call imports stay out of the trace
        _tail_columns.cache_clear()
        tracemalloc.start()
        try:
            cross = mollified_cross(grid, 0.125)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 2.1 MB result, the outer product's blocks and one pass's buffers;
        # with the whole table this peaked at 10.8 MB and kept 10.5 MB more
        assert peak <= 4.5e6
        assert retained - cross.values.nbytes <= 0.5e6

    def test_jump_slope_is_the_tail_formula_bit_for_bit(self):
        q0 = _tail_columns.__wrapped__((0,))[:, 0]  # uncached: the constant needs no pass
        slope = float(4.0 * (q0[0] - q0[1]) / (1.0 / TAIL_RES))
        assert mollifier_slope_at_jump().hex() == slope.hex()

    def test_growth_set_up_makes_one_pass_and_warm_runs_none(self):
        grid = vc.Grid(512)
        _tail_columns.cache_clear()
        for _ in range(2):
            sigma = default_growth_family(grid)[-1].sigma
            mollified_cross(grid, sigma)
            assert _tail_columns.cache_info().misses == 1  # the cross's; the slope is a constant


def _table_formula_cross(grid, sigma, table):
    """The cross as bilinear lookups into a whole tail table: the old formula, verbatim."""
    res = table.shape[0] - 1

    def _interp_tail(p, q):
        p = np.clip(np.abs(p), 0.0, 1.0) * res
        q = np.clip(np.abs(q), 0.0, 1.0) * res
        i0 = np.minimum(p.astype(int), res - 1)
        j0 = np.minimum(q.astype(int), res - 1)
        fp = p - i0
        fq = q - j0
        return (
            table[i0, j0] * (1 - fp) * (1 - fq)
            + table[i0 + 1, j0] * fp * (1 - fq)
            + table[i0, j0 + 1] * (1 - fp) * fq
            + table[i0 + 1, j0 + 1] * fp * fq
        )

    def mollified_wave(p):
        p = np.asarray(p, dtype=float)
        mag = 1.0 - 4.0 * _interp_tail(np.abs(p), np.zeros_like(p))
        return np.sign(p) * mag

    def mollified_corner(p, q):
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        ap, aq = np.abs(p), np.abs(q)
        val = (
            1.0
            - 4.0 * _interp_tail(ap, np.zeros_like(ap))
            - 4.0 * _interp_tail(aq, np.zeros_like(aq))
            + 4.0 * _interp_tail(ap, aq)
        )
        return np.sign(p) * np.sign(q) * val

    n = grid.n
    offset, orientation = _signed_arm_offsets(n)
    p = offset * grid.spacing / sigma  # signed offset in mollifier units
    near = np.abs(p) < 1.0
    s = _square_wave(n)
    profile_1d = np.where(near, orientation * mollified_wave(p), s)
    values = np.outer(profile_1d, profile_1d)
    idx = np.nonzero(near)[0]
    if idx.size:
        px = p[idx][:, None]
        py = p[idx][None, :]
        ori = orientation[idx]
        corner = (ori[:, None] * ori[None, :]) * mollified_corner(px, py)
        values[np.ix_(idx, idx)] = corner
    return values


def _whole_table_tail():
    """The tail table built whole, four table-sized arrays at a time: the oracle."""
    res = 1024
    axis = np.linspace(0.0, 1.0, res + 1)
    r2 = np.add.outer(axis * axis, axis * axis)
    w = np.zeros_like(r2)
    inside = r2 < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    del r2, inside
    # suffix trapezoid in both directions: ((w[k+1] + w[k]) * 0.5) * h summed
    # from the far edge, the cumsum written straight into its reversed slot
    h = 1.0 / res
    col = np.zeros_like(w)
    term = np.add(w[:, :0:-1], w[:, -2::-1])
    del w
    term *= 0.5
    term *= h
    np.cumsum(term, axis=1, out=col[:, -2::-1])
    del term
    q = np.zeros_like(col)
    term = np.add(col[:0:-1, :], col[-2::-1, :])
    del col
    term *= 0.5
    term *= h
    np.cumsum(term, axis=0, out=q[-2::-1, :])
    q /= 4.0 * q[0, 0]
    return q


@pytest.fixture(scope="module")
def whole_table():
    return _whole_table_tail()


ALL_COLUMNS = tuple(range(1025))


@pytest.fixture(scope="class")
def all_columns():
    # uncached: a request this large must not stay in the pass's cache
    return _tail_columns.__wrapped__(ALL_COLUMNS)


class TestMollifierTailTable:
    """The tail measure Q, requested whole (all 1025 columns) or by columns."""

    def test_streamed_build_is_bitwise_the_whole_table_build(self, all_columns, whole_table):
        assert np.array_equal(all_columns, whole_table)

    @pytest.mark.parametrize("cols", [(0, 1, 511, 1023, 1024), "growth corner"])
    def test_column_pass_is_bitwise_the_whole_table_columns(self, whole_table, cols):
        if cols == "growth corner":
            grid = vc.Grid(512)
            offset, _ = _signed_arm_offsets(grid.n)
            p = np.abs(offset * grid.spacing / default_growth_family(grid)[-1].sigma)
            cols = _corner_columns(p[p < 1.0])
            assert len(cols) > 8
        assert np.array_equal(_tail_columns.__wrapped__(cols), whole_table[:, list(cols)])

    def test_build_peak_memory_bounded(self):
        tracemalloc.start()
        try:
            table = _tail_columns.__wrapped__(ALL_COLUMNS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * table.nbytes

    def test_total_quarter_mass_at_origin(self, all_columns):
        assert all_columns[0, 0] == 0.25

    def test_nonincreasing_along_both_axes(self, all_columns):
        assert np.all(np.diff(all_columns, axis=0) <= 0.0)
        assert np.all(np.diff(all_columns, axis=1) <= 0.0)

    def test_zero_outside_unit_disc(self, all_columns):
        axis = np.linspace(0.0, 1.0, 1025)
        outside = np.add.outer(axis**2, axis**2) >= 1.0
        assert outside.any()
        assert np.all(all_columns[outside] == 0.0)


def _bump_profile_quadrature():
    """The profile constants by trapezoid quadrature on 200,001 points of [0, 1]."""
    rho = np.linspace(0.0, 1.0, 200_001)
    with np.errstate(over="ignore", under="ignore"):
        B = np.where(rho < 1.0, np.exp(-(rho**2) / np.maximum(1e-300, 1.0 - rho**2)), 0.0)
    a = np.trapezoid(B * rho, rho) / np.trapezoid(B * rho**3, rho)
    g = B * (1.0 - a * rho**2)
    slope = np.diff(g) / np.diff(rho)
    return {
        "a": float(a),
        "max_abs_slope": float(np.max(np.abs(slope))),
        "min_value": float(np.min(g)),
        "l2": float(np.sqrt(2.0 * np.pi * np.trapezoid(g * g * rho, rho))),
    }


class TestMakeBump:
    def test_profile_constants_are_the_quadrature_bit_for_bit(self):
        held, computed = bump_profile_constants(), _bump_profile_quadrature()
        assert {k: v.hex() for k, v in held.items()} == {k: v.hex() for k, v in computed.items()}

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
        with pytest.raises(ValueError, match="x0_below_y0_power"):
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

    @pytest.mark.parametrize("center", [(0.0, 0.0), (np.pi, 0.0), (0.0, np.pi), (np.pi, np.pi)])
    def test_a_center_that_is_its_own_mirror_gets_one_patch(self, center):
        b = make_bump(vc.Grid(128), BumpSpec(center, 0.5, 0.3))
        assert b.linf_norm() == 0.3
        assert np.max(b.values) == 0.3
        assert abs(b.mean) <= 1e-12
        assert evenness_error(b.values) == 0.0

    @pytest.mark.parametrize("cells", [(2, 3), (0, 3), (3, 128)])
    def test_a_pair_overlapping_its_mirror_is_refused(self, grid256, cells):
        # each center lies within 2 radii (16 cells) of its mirror on both axes
        center = tuple(c * grid256.spacing for c in cells)
        with pytest.raises(ValueError, match="overlaps its mirror image"):
            make_bump(grid256, BumpSpec(center, 16 * grid256.spacing, 0.5))

    def test_an_axis_center_far_from_its_mirror_keeps_both_patches(self, grid256):
        b = make_bump(grid256, BumpSpec((0.0, 1.2), 16 * grid256.spacing, 0.5))
        assert np.count_nonzero(b.values == 0.5) == 2
        assert evenness_error(b.values) == 0.0

    def test_relaxed_gate_accepts_the_wedge_regions_centers(self):
        ladder = relaxed_ladder()
        region = WedgeRegion.from_log10(ladder.log10_inner, ladder.log10_outer)
        # log-uniform centers on both sides of each of the wedge's three bounds
        rng = np.random.default_rng(24)
        accepted = []
        for x, y in 10.0 ** rng.uniform((-9.0, -6.0), (0.5, 0.5), size=(400, 2)):
            inside = bool(region.contains_log(math.log(x), math.log(y)))
            try:
                _check_bump_placement((x, y), ladder)
            except ValueError as exc:
                assert not inside, exc
            else:
                assert inside
            accepted.append(inside)
        assert 50 < sum(accepted) < 350

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BumpSpec((0.1, 0.4), -0.1, 0.5)
        with pytest.raises(ValueError):
            BumpSpec((0.1, 0.4), 0.1, 0.0)


class TestCompose:
    def test_sup_below_two_zero_mean_even(self, grid256):
        ladder = relaxed_ladder()
        spec = BumpSpec((0.12, 0.42), 16 * grid256.spacing, 0.8)
        theta = compose_initial_data(grid256, ladder, spec, 0.25)
        assert theta.linf_norm() < 2.0
        assert abs(theta.mean) <= 1e-12
        assert evenness_error(theta.values) == 0.0

    def test_held_as_the_real_half_spectrum_of_the_composed_values(self, grid256):
        spec = BumpSpec((0.12, 0.42), 16 * grid256.spacing, 0.8)
        theta = compose_initial_data(grid256, relaxed_ladder(), spec, 0.25)
        values = mollified_cross(grid256, 0.25).values + make_bump(grid256, spec).values
        assert isinstance(theta, PointEvenField)
        assert np.array_equal(theta.real_spectrum, np.fft.rfft2(values).real)
        assert theta.real_spectrum.flags.c_contiguous  # a run steps it with no copy

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

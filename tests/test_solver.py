"""Solver tests: inversion closed forms, stepping, conservation, norms."""

import contextlib
import functools
import multiprocessing
import os
import pickle
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft

import vcross as vc
from conftest import evenness_error, mirror, traced_peak_mb
from vcross import experiments, solver
from vcross.experiments import (
    default_growth_family,
    rescaling_pair,
    run_growth_member,
    shear_state,
    smooth_random_field,
)
from vcross.fields import PointEvenField, dealias_mask, inverse_k2_power
from vcross.solver import DEFAULT_DIAGNOSTICS, DIAGNOSTICS

TWO_PI = 2.0 * np.pi


class TestVelocityFromVorticity:
    def test_zero_field(self, grid64):
        vel = vc.velocity_from_vorticity(vc.ScalarField.zeros(grid64))
        assert vel.u.linf_norm() == 0.0
        assert vel.v.linf_norm() == 0.0

    def test_single_mode_closed_form(self, grid64):
        # theta = cos x inverts to the stream function -cos x, u = (0, sin x)
        X, _ = grid64.meshgrid()
        vel = vc.velocity_from_vorticity(
            vc.ScalarField.from_values(grid64, np.cos(X))
        )
        assert vel.u.linf_norm() < 1e-13
        assert np.max(np.abs(vel.v.values - np.sin(X))) < 1e-13

    def test_two_mode_closed_form(self, grid64):
        X, Y = grid64.meshgrid()
        vel = vc.velocity_from_vorticity(
            vc.ScalarField.from_values(grid64, np.cos(X) + np.cos(Y))
        )
        assert np.max(np.abs(vel.u.values + np.sin(Y))) < 1e-13
        assert np.max(np.abs(vel.v.values - np.sin(X))) < 1e-13

    def test_generalized_exponent_single_mode(self, grid64):
        # theta = cos 2x at exponent 1.5: |k|^3 = 8, u = (0, sin(2x) / 4)
        X, _ = grid64.meshgrid()
        vel = vc.velocity_from_vorticity(
            vc.ScalarField.from_values(grid64, np.cos(2 * X)), 1.5
        )
        assert np.max(np.abs(vel.v.values - np.sin(2 * X) / 4.0)) < 1e-13

    def test_rejects_nonzero_mean(self, grid64):
        f = vc.ScalarField.from_values(grid64, np.full((64, 64), 0.1))
        with pytest.raises(vc.InvalidFieldError, match="mean"):
            vc.velocity_from_vorticity(f)

    def test_rejects_exponent_below_one(self, grid64):
        with pytest.raises(ValueError):
            vc.velocity_from_vorticity(vc.ScalarField.zeros(grid64), 0.5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_divergence_free(self, grid256, seed):
        theta = smooth_random_field(grid256, seed=seed)
        vel = vc.velocity_from_vorticity(theta)
        assert vel.divergence_rel() <= 1e-12


class TestStepRK4:
    def test_zero_field_advances_time_only(self, grid64):
        state = vc.SimState(vc.ScalarField.zeros(grid64))
        out = vc.step_rk4(state, 0.3)
        assert out.time == 0.3
        assert out.theta.linf_norm() == 0.0

    def test_steady_shear_invariant(self, grid64):
        state = shear_state(grid64)
        out = state
        for _ in range(10):
            out = vc.step_rk4(out, 0.02)
        assert np.max(np.abs(out.theta.values - state.theta.values)) <= 1e-12

    def test_cfl_violation_carries_admissible_dt(self, grid64):
        state = shear_state(grid64)  # max speed exactly 1
        with pytest.raises(vc.CFLViolation) as err:
            vc.step_rk4(state, 1.0)
        assert err.value.admissible_dt == pytest.approx(grid64.spacing, rel=1e-6)
        vc.step_rk4(state, err.value.admissible_dt)  # boundary value is allowed

    def test_blowup_reports_time(self, grid64):
        spec = np.zeros((64, 33), dtype=complex)
        spec[1, 0] = 1e300  # two interacting modes so the advection term acts
        spec[0, 1] = 1e300
        theta = vc.ScalarField.from_spectrum(grid64, spec)
        state = vc.SimState(theta, time=2.5)
        with pytest.raises(vc.BlowUpError) as err:
            vc.step_rk4(state, 1e-305)
        assert err.value.time == 2.5

    def test_fourth_order_convergence(self, grid64):
        X, Y = grid64.meshgrid()
        theta = vc.ScalarField.from_values(grid64, np.cos(X) + 0.5 * np.cos(2 * Y))
        state = vc.SimState(theta)
        ref = state
        for _ in range(16):
            ref = vc.step_rk4(ref, 0.02 / 16)
        errs = []
        for k in (1, 2):
            out = state
            for _ in range(k):
                out = vc.step_rk4(out, 0.02 / k)
            errs.append(np.max(np.abs(out.theta.values - ref.theta.values)))
        order = np.log2(errs[0] / errs[1])
        assert 3.5 < order < 4.5

    def test_mean_preserved_bit_for_bit(self, grid64):
        theta = smooth_random_field(grid64, seed=7)
        state = vc.SimState(theta)
        zero_mode = state.theta.spectrum[0, 0]
        for _ in range(5):
            state = vc.step_rk4(state, 0.01)
        assert state.theta.spectrum[0, 0] == zero_mode


def band_limited_spectrum(grid, seed):
    """Seeded white-noise spectrum truncated to the 2/3 band, zero mean."""
    rng = np.random.default_rng(seed)
    spec = fft.rfft2(rng.standard_normal((grid.n, grid.n)))
    spec *= dealias_mask(grid.kx, grid.ky, grid.n)
    spec[0, 0] = 0.0
    return spec


def transport_rhs(theta_hat, grid, alpha):
    """Five-transform RHS -(u . grad theta), dealiased, and the max speed."""
    s = (grid.n, grid.n)
    dealias = dealias_mask(grid.kx, grid.ky, grid.n)
    th = theta_hat * dealias
    psi_hat = -th * inverse_k2_power(grid.k2, alpha)
    u = fft.irfft2(-1j * grid.ky * psi_hat, s=s)
    v = fft.irfft2(1j * grid.kx * psi_hat, s=s)
    tx = fft.irfft2(1j * grid.kx * th, s=s)
    ty = fft.irfft2(1j * grid.ky * th, s=s)
    rhs = -fft.rfft2(u * tx + v * ty) * dealias
    rhs[0, 0] = 0.0
    return rhs, max(np.max(np.abs(u)), np.max(np.abs(v)))


@pytest.fixture
def kernels(monkeypatch):
    """Every kernel that ``run`` and ``step_rk4`` build, in order."""
    built, choose = [], solver._kernel_for

    def spy(state):
        built.append(choose(state))
        return built[-1]

    monkeypatch.setattr(solver, "_kernel_for", spy)
    return built


class TestAdvectionKernel:
    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_rhs_matches_transport_form(self, n, seed, alpha):
        # at alpha = 1 the kernel uses the four-transform Basdevant form
        grid = vc.Grid(n)
        theta_hat = band_limited_spectrum(grid, seed)
        kernel = solver._AdvectionKernel(grid, alpha)
        out = np.empty((n, kernel.width), dtype=complex)
        speed = kernel.rhs(theta_hat, out)
        ref, ref_speed = transport_rhs(theta_hat, grid, alpha)
        m = kernel.width
        assert np.max(np.abs(out - ref[:, :m])) <= 1e-10 * np.max(np.abs(ref))
        assert np.all(ref[:, m:] == 0.0)  # nothing is dropped beyond the band
        assert speed == pytest.approx(ref_speed, rel=1e-12)

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_point_even_rhs_matches_general_and_transport(self, n, alpha):
        # the real part of a spectrum is the spectrum of the field's even part
        grid = vc.Grid(n)
        theta_hat = band_limited_spectrum(grid, 5).real + 0j
        even = solver._AdvectionKernel(grid, alpha, point_even=True)
        general = solver._AdvectionKernel(grid, alpha)
        out = np.empty((n, even.width))
        speed = even.rhs(even.pack(theta_hat), out)
        general_out = np.empty((n, general.width), dtype=complex)
        general_speed = general.rhs(theta_hat, general_out)
        ref, ref_speed = transport_rhs(theta_hat, grid, alpha)
        bound = 1e-10 * np.max(np.abs(ref))
        assert np.max(np.abs(out - general_out)) <= bound
        assert np.max(np.abs(out - ref[:, : even.width])) <= bound
        assert speed == pytest.approx(general_speed, rel=1e-12)
        assert speed == pytest.approx(ref_speed, rel=1e-12)

    @pytest.mark.parametrize("point_even", [False, True])
    def test_speed_only_on_request(self, grid64, point_even):
        kernel = solver._AdvectionKernel(grid64, 1.0, point_even=point_even)
        theta_hat = kernel.pack(band_limited_spectrum(grid64, 2).real + 0j)
        out = np.empty_like(kernel.k)
        assert kernel.rhs(theta_hat, out) > 0.0
        first = out.copy()
        # a zero-length stage is theta_hat itself: the same RHS, with no speed
        assert kernel.rhs(theta_hat, out, stage=(0.0, np.zeros_like(out), 0.0)) is None
        assert np.array_equal(out, first)
        assert kernel.evaluations == 2

    @pytest.mark.parametrize("point_even", [False, True])
    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_lanes_form_the_stage_a_caller_formed(self, grid64, alpha, point_even):
        # the reference is the RHS of the stage band k * c + theta, formed in
        # a buffer of its own, after acc += k * w
        kernel = solver._AdvectionKernel(grid64, alpha, point_even=point_even)
        spectrum = band_limited_spectrum(grid64, 4)
        theta_hat = kernel.pack(spectrum.real + 0j if point_even else spectrum)
        band, k, (c, w) = theta_hat[:, : kernel.width], kernel.k, (0.5 * 0.01, 2.0 * 0.01 / 6.0)
        kernel.rhs(theta_hat, k)
        stage = np.multiply(k, c)
        stage += band
        want_acc = band.copy()
        want_acc += np.multiply(k, w)
        want = np.empty_like(k)
        kernel.rhs(stage, want)
        acc = band.copy()
        assert kernel.rhs(theta_hat, k, stage=(c, acc, w)) is None
        assert np.array_equal(k, want)
        assert np.array_equal(acc, want_acc)

    @staticmethod
    def expand(multiplier, n, m, dtype):
        """The n x m band symbol a compact multiplier stands for, its rows copied bit for bit."""
        full, c = np.zeros((n, m), dtype), n // 3
        full[: c + 1], full[-c:] = multiplier.top, multiplier.bottom
        return full

    @staticmethod
    def multipliers(kernel):
        return [kernel.to_u, kernel.to_v, *kernel.products]

    @pytest.mark.parametrize("point_even", [False, True])
    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_band_multipliers_match_full_grid_slices(self, alpha, point_even):
        # the band of the full n x (n/2 + 1) symbols, each by its eager formula;
        # each compact multiplier is expanded to the n x m band it stands for
        grid = vc.Grid(512)
        n, m = grid.n, grid.n // 3 + 1
        k2 = grid.kx**2 + grid.ky**2
        inv = np.zeros_like(k2)
        nz = k2 > 0
        inv[nz] = 1.0 / k2[nz] if alpha == 1.0 else k2[nz] ** (-alpha)
        kcut = n // 3
        keep = ((np.abs(grid.kx) <= kcut) & (grid.ky <= kcut))[:, :m]
        inv = inv[:, :m] * keep
        kx, ky = grid.kx, grid.ky[:, :m]
        odd, fwd = (1.0, float(n)) if point_even else (1j, 1.0)
        if alpha == 1.0:
            products = [fwd * kx * ky * keep, fwd * (kx * kx - ky * ky) * keep]
        else:
            products = [odd * kx * keep, odd * ky * keep, -fwd * keep]
        kernel = solver._AdvectionKernel(grid, alpha, point_even=point_even)
        want = [odd * ky * inv, -odd * kx * inv] + products
        dtype = float if point_even else complex
        got = [self.expand(mult, n, m, dtype) for mult in self.multipliers(kernel)]
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        # apply writes the products of the expanded symbol, zero in the masked slab
        re, im = np.random.default_rng(6).standard_normal((2, n, m))
        source = re if point_even else re + 1j * im
        for mult, full in zip(self.multipliers(kernel), got):
            out = np.full((n, m), np.nan, dtype)
            mult.apply(source, out)
            assert np.array_equal(out, source * full)

    @pytest.mark.parametrize(("n", "alpha", "bound_mib"), [(512, 1.0, 1.4), (256, 1.5, 0.2)])
    def test_multipliers_store_only_the_rows_that_differ(self, n, alpha, bound_mib):
        # the growth (n = 512) and cli (n = 256) kernels; full n x m arrays
        # took 2.67 and 0.84 MiB
        kernel = solver._AdvectionKernel(vc.Grid(n), alpha, point_even=True)
        parts = [p for mult in self.multipliers(kernel) for p in (mult.top, mult.bottom)]
        owners = {id(a): a for a in (p if p.base is None else p.base for p in parts)}
        assert sum(a.nbytes for a in owners.values()) <= bound_mib * 2**20

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_zero_mode_exactly_zero(self, grid64, alpha):
        theta_hat = band_limited_spectrum(grid64, 3)
        theta_hat[0, 0] = 64.0 * 64.0 * 0.7  # a mean the RHS must not feel
        kernel = solver._AdvectionKernel(grid64, alpha)
        out = np.full((64, kernel.width), np.nan, dtype=complex)
        kernel.rhs(theta_hat, out)
        assert out[0, 0] == 0.0

    def test_run_blowup_raises(self, grid64):
        spec = np.zeros((64, 33), dtype=complex)
        spec[1, 0] = 1e300
        spec[0, 1] = 1e300
        state = vc.SimState(vc.ScalarField.from_spectrum(grid64, spec), time=2.5)
        with pytest.raises(vc.BlowUpError) as err:
            vc.run(state, 3.0, diagnostics={"mean": lambda s: s.theta.mean})
        assert err.value.time == 2.5

    def test_generalized_invariant_conserved(self, grid128):
        # sum |k|^(-2 alpha) |theta_hat|^2 is conserved by the dealiased
        # dynamics at every alpha; what drifts is RK4 truncation, 1.7e-10 at
        # cfl 0.4 and 6.5e-12 at cfl 0.2 here (about dt^5 per step)
        alpha = 1.5
        weights = solver._spectral_weights(grid128) * inverse_k2_power(grid128.k2, alpha)
        state = vc.SimState(smooth_random_field(grid128, seed=4), inversion_exponent=alpha)
        result = vc.run(state, 1.0, cfl=0.2, sample_every=0.5)
        q0, q1 = (
            np.sum(weights * np.abs(st.theta.spectrum) ** 2) for st in (state, result.state)
        )
        assert abs(q1 - q0) <= 1e-10 * q0


class TestErrors:
    @pytest.mark.parametrize(
        "error, attribute",
        [
            (vc.UnresolvedScaleError("feature below 8 cells", 256), "required_n"),
            (solver.BlowUpError(0.375), "time"),
            (solver.CFLViolation(0.1, 0.025), "admissible_dt"),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else v,
    )
    def test_errors_survive_pickle(self, error, attribute):
        # a process pool sends a failed member's error back pickled
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        assert getattr(copy, attribute) == getattr(error, attribute)


class TestRun:
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("point_even", [False, True])
    def test_start_spectrum_freed_by_the_second_sample(self, n, point_even):
        # handed to run and held nowhere else: the march drops the start state
        # once the kernel has its spectrum, and the first step replaces it
        refs, alive = [], []

        def start():
            spec = band_limited_spectrum(vc.Grid(n), 3)
            theta = (
                PointEvenField(vc.Grid(n), spec.real.copy())
                if point_even
                else vc.ScalarField.from_spectrum(vc.Grid(n), spec)
            )
            refs.append(weakref.ref(theta.real_spectrum if point_even else theta.spectrum))
            return vc.SimState(theta)

        def start_alive(sample):
            alive.append(refs[0]() is not None)
            return 0.0

        result = vc.run(start(), 0.02, sample_every=0.01, diagnostics={"alive": start_alive})
        assert result.kernel == ("point-even" if point_even else "general")
        assert alive == [True, False, False]

    def test_noop_run(self, grid64):
        state = vc.SimState(smooth_random_field(grid64, seed=2), time=1.0)
        result = vc.run(state, 1.0)
        assert result.state is state
        assert all(len(s) == 0 for s in result.series.values())

    def test_rejects_bad_cfl(self, grid64):
        state = vc.SimState(vc.ScalarField.zeros(grid64))
        with pytest.raises(ValueError):
            vc.run(state, 1.0, cfl=0.9)

    @pytest.mark.parametrize("every", [0.0, -0.01, float("nan")])
    def test_rejects_non_positive_sample_every(self, grid64, every):
        # a sample clock that never advances would step forever
        state = vc.SimState(smooth_random_field(grid64, seed=2))
        with pytest.raises(ValueError, match="sample_every must be positive, got"):
            vc.run(state, 0.1, sample_every=every)
        assert vc.run(state, 0.0, sample_every=every).steps == 0  # horizon 0: empty result

    def test_a_run_that_takes_no_step_builds_no_kernel(self, grid64, kernels):
        state = vc.SimState(smooth_random_field(grid64, seed=2))
        result = vc.run(state, 5e-14)  # shorter than the clock's 1e-13 tolerance
        assert (result.steps, result.kernel, result.rhs_evals, kernels) == (0, "none", 0, [])
        assert result.state is state and list(result.series["energy"].t) == [0.0]

    @pytest.mark.parametrize("even", [True, False], ids=["even", "general"])
    def test_a_run_caches_nothing_on_its_start_field(self, grid64, even):
        field = smooth_random_field(grid64, seed=2)
        if even:
            field = PointEvenField(grid64, np.ascontiguousarray(even_part(field).spectrum.real))
        result = vc.run(vc.SimState(field), 0.05, diagnostics=DIAGNOSTICS)
        assert result.steps > 0
        if even:  # neither rows, values nor a complex spectrum
            assert (field._rows, field._values, field._spectrum) == (None, None, None)
        else:
            assert field._spectrum is None

    @pytest.mark.parametrize("cell", [1.0, 4e307])
    def test_refuses_a_non_vorticity_before_its_first_sample(self, cell):
        # one nonzero cell: a nonzero mean; at 4e307 the energy sample would
        # overflow first (a RuntimeWarning, an error in this suite)
        values = np.zeros((32, 32))
        values[3, 5] = cell
        state = vc.SimState(vc.ScalarField.from_values(vc.Grid(32), values))
        with pytest.raises(vc.InvalidFieldError, match="vorticity must have zero mean"):
            vc.run(state, 0.1)

    def test_shear_diagnostics_constant(self, grid128):
        result = vc.run(shear_state(grid128), 1.0, sample_every=0.25)
        grad = result.series["grad_sup"].values
        assert np.max(np.abs(grad - 1.0)) <= 1e-10
        energy = result.series["energy"].values
        assert np.max(np.abs(energy - energy[0])) <= 1e-10 * energy[0]

    def test_sample_times_hit_exactly(self, grid64):
        state = vc.SimState(smooth_random_field(grid64, seed=2))
        result = vc.run(state, 0.5, sample_every=0.1)
        assert np.allclose(result.series["energy"].t, np.arange(6) * 0.1, atol=1e-12)

    def test_short_conservation(self, grid128):
        state = vc.SimState(smooth_random_field(grid128, seed=3))
        result = vc.run(state, 1.0, cfl=0.4, sample_every=0.5)
        for name in ("energy", "enstrophy"):
            v = result.series[name].values
            assert abs(v[-1] - v[0]) / v[0] <= 1e-8

    @pytest.mark.parametrize("even", [False, True], ids=["general", "point-even"])
    def test_hamiltonian_is_the_energy_bit_for_bit_at_alpha_one(self, grid64, even):
        field = smooth_random_field(grid64, seed=4)
        state = vc.SimState(even_part(field) if even else field)
        result = vc.run(state, 0.5, sample_every=0.25, diagnostics=DIAGNOSTICS)
        assert result.kernel == ("point-even" if even else "general")
        assert np.array_equal(result.series["hamiltonian"].values, result.series["energy"].values)

    def test_hamiltonian_conserved_at_alpha_one_and_a_half(self, grid64):
        # 1/2 |u|^2 is not an invariant at alpha != 1; H = 1/2 sum |k|^(-2 alpha) |theta_hat|^2 is
        state = vc.SimState(smooth_random_field(grid64, seed=1, l2=2.0), inversion_exponent=1.5)
        result = vc.run(
            state, 1.0, cfl=0.2, sample_every=0.5, diagnostics=DIAGNOSTICS
        )
        h, e = result.series["hamiltonian"].values, result.series["energy"].values
        assert abs(h[-1] - h[0]) <= 1e-10 * h[0]  # the RK4 time error: 8e-12 here
        assert abs(e[-1] - e[0]) > 1e3 * abs(h[-1] - h[0])

    def test_rearrangement_invariants(self, grid128):
        # integral invariants hold to quadrature accuracy: spectral for the
        # polynomial norms, kink-limited for l1, grid-sampling-limited for sup
        state = vc.SimState(smooth_random_field(grid128, seed=3))
        result = vc.run(
            state, 2.0, cfl=0.4, sample_every=1.0, diagnostics=DIAGNOSTICS
        )
        drift = {
            name: abs(s.values[-1] - s.values[0]) / abs(s.values[0])
            for name, s in result.series.items()
            if name.startswith("l")
        }
        assert drift["l2"] <= 1e-6
        assert drift["l4"] <= 1e-6
        assert drift["l1"] <= 1e-4
        assert drift["linf"] <= 1e-2

    def test_parity_preserved_for_even_data(self, grid64):
        X, Y = grid64.meshgrid()
        vals = np.cos(X) * np.cos(Y) + 0.3 * np.cos(2 * X)
        state = vc.SimState(vc.ScalarField.from_values(grid64, vals))
        assert evenness_error(state.theta.values) <= 2e-15
        result = vc.run(state, 0.5, sample_every=0.5)
        assert evenness_error(result.state.theta.values) <= 1e-10

    def test_point_even_data_takes_point_even_path(self, grid64, kernels):
        random = smooth_random_field(grid64, seed=2).values
        state = vc.SimState(vc.ScalarField.from_values(grid64, 0.5 * (random + mirror(random))))
        assert evenness_error(state.theta.values) == 0.0
        result = vc.run(state, 0.5, sample_every=0.5)
        vc.step_rk4(state, 0.01)
        assert [k.mode for k in kernels] == ["point-even", "point-even"]
        assert result.kernel == "point-even"
        assert result.rhs_evals == 4 * result.steps
        assert evenness_error(result.state.theta.values) <= 1e-14

    def test_chained_steps_stay_point_even(self, grid64, kernels):
        # each step hands the next exactly even values, not an irfft2 of them
        random = smooth_random_field(grid64, seed=2).values
        state = vc.SimState(vc.ScalarField.from_values(grid64, 0.5 * (random + mirror(random))))
        for _ in range(4):
            state = vc.step_rk4(state, 0.01)
        assert [k.mode for k in kernels] == ["point-even"] * 4
        assert np.array_equal(state.theta.values, mirror(state.theta.values))
        final = vc.run(state, state.time + 0.1).state.theta.values
        assert np.array_equal(final, mirror(final))

    def test_chained_steps_make_no_full_size_inverse(self, grid64, kernels, monkeypatch):
        # a point-even step hands on its half-spectrum form, so neither the
        # next evenness test nor the finiteness check transforms at full size
        random = smooth_random_field(grid64, seed=4).values
        state = vc.SimState(vc.ScalarField.from_values(grid64, 0.5 * (random + mirror(random))))
        calls, irfft2 = [], np.fft.irfft2

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return irfft2(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft2", counted)
        for _ in range(4):
            state = vc.step_rk4(state, 0.01)
        assert [k.mode for k in kernels] == ["point-even"] * 4
        assert np.array_equal(state.theta.values, mirror(state.theta.values))
        assert calls == []

    def test_random_data_takes_general_path(self, grid64, kernels):
        result = vc.run(vc.SimState(smooth_random_field(grid64, seed=2)), 0.1)
        vc.step_rk4(vc.SimState(smooth_random_field(grid64, seed=3)), 0.01)
        assert [k.mode for k in kernels] == ["general", "general"]
        assert result.kernel == "general"
        assert result.rhs_evals == 4 * result.steps

    def test_point_even_march_matches_general(self, kernels, monkeypatch):
        # c07's steepness-200 member on the n = 256 grid, 48 steps each way
        member = default_growth_family(vc.Grid(256))[-1]
        even = run_growth_member(256, member, T=0.5)

        def general_only(state):
            kernels.append(solver._AdvectionKernel(state.grid, state.inversion_exponent))
            return kernels[-1]

        monkeypatch.setattr(solver, "_kernel_for", general_only)
        general = run_growth_member(256, member, T=0.5)
        assert [k.mode for k in kernels] == ["point-even", "general"]
        assert [k.evaluations for k in kernels] == [4 * 48, 4 * 48]
        diff = even.state.theta.values - general.state.theta.values
        assert np.max(np.abs(diff)) <= 1e-11

    def test_default_cfl_time_error_within_budget(self, monkeypatch):
        # c07's steepness-200 member at n = 256 to T = 0.5, at the default cfl
        # and at a quarter of it: 4.1e-4 apart, against a 2.4 % move in the
        # sup from n = 512 to 1024
        member = default_growth_family(vc.Grid(256))[-1]
        default = run_growth_member(256, member, T=0.5).series["grad_sup"]
        monkeypatch.setattr(experiments, "run", functools.partial(vc.run, cfl=solver.CFL_CAP / 4))
        fine = run_growth_member(256, member, T=0.5).series["grad_sup"]
        assert np.array_equal(default.t, fine.t)
        assert np.max(np.abs(default.values / fine.values - 1.0)) <= 1e-3

    @pytest.mark.parametrize("mu", [2.0, 0.5])
    def test_rescaling_symmetry(self, grid64, mu):
        # scaling the data by mu and the horizon by 1/mu reproduces the run;
        # with mu a power of two the discrete trajectories agree to rounding
        theta = smooth_random_field(grid64, seed=9)
        base = vc.run(vc.SimState(theta), 0.5, sample_every=0.25)
        scaled_field = vc.ScalarField.from_values(grid64, mu * theta.values)
        scaled = vc.run(vc.SimState(scaled_field), 0.5 / mu, sample_every=0.25 / mu)
        g1 = base.series["grad_sup"].values
        g2 = scaled.series["grad_sup"].values
        assert np.max(np.abs(mu * g1 - g2)) <= 1e-12 * np.max(g2)

    def test_rescaling_pair_coincides_exactly(self, grid64):
        # mu = 2 scales every stage exactly, so both runs round identically
        base, scaled = rescaling_pair(smooth_random_field(grid64, seed=1), 1.0)
        assert np.array_equal(base.values, scaled.values)
        assert np.array_equal(base.t, 2.0 * scaled.t)

    def test_cfl_holds_at_every_step_start(self, grid64, monkeypatch):
        # the max speed grows over this run, so a dt taken from the speed of
        # the previous step's state would overshoot the CFL number
        steps = []
        rk4 = solver._rk4_spectrum

        def spy(theta_hat, kernel, dt_for_speed):
            out, dt = rk4(theta_hat, kernel, dt_for_speed)
            steps.append((theta_hat, dt))
            return out, dt

        monkeypatch.setattr(solver, "_rk4_spectrum", spy)
        vc.run(vc.SimState(smooth_random_field(grid64, seed=2)), 1.0, sample_every=1.0)
        speeds = [
            vc.velocity_from_vorticity(vc.ScalarField.from_spectrum(grid64, th)).max_speed()
            for th, _ in steps
        ]
        assert speeds[-1] > 1.05 * speeds[0]
        for (_, dt), speed in zip(steps, speeds):
            assert dt * speed / grid64.spacing <= solver.CFL_CAP * (1.0 + 1e-12)  # the default


def test_point_even_run_holds_no_stage_or_band_buffer(cpus):
    # the lanes form each RK4 stage in their physical buffers: at n = 512 the
    # stage and second-lane band buffers, 0.70 MB each, are gone (a run of
    # one step traced 11.49 MB with them, 10.09 MB without)
    cpus(2)
    grid = vc.Grid(512)
    even = even_part(smooth_random_field(grid, seed=4))
    state = vc.SimState(PointEvenField(grid, np.ascontiguousarray(even.spectrum.real)))
    diagnostics = {"mean": lambda s: s.theta.mean}
    march = functools.partial(vc.run, state, 0.01, sample_every=0.01, diagnostics=diagnostics)
    assert march().steps == 1  # warm: FFT plans
    assert traced_peak_mb(march) <= 10.5


CONSERVED = ("energy", "enstrophy", "l1", "l2", "l4", "linf")  # conserved at alpha = 1


class TestNorms:
    @pytest.mark.parametrize("power", [2.0, -1.0, -1.5, -2.0])
    @pytest.mark.parametrize("point_even", [False, True])
    def test_half_height_parseval_symbol_sums_the_same_bits(self, grid128, power, point_even):
        # the cached symbol holds rows kx = 0..n/2; the sum is the one the
        # full n x (n/2 + 1) symbol gave, weights * |k|^(2 power) * |theta_hat|^2
        g, n = grid128, grid128.n
        assert solver._parseval_symbol(g, power).shape == (n // 2 + 1, n // 2 + 1)
        spec = fft.rfft2(np.random.default_rng(8).standard_normal((n, n)))
        f = vc.ScalarField.from_spectrum(g, spec)
        if point_even:
            f = PointEvenField(g, spec.real.copy())
        weights = np.full((n, n // 2 + 1), 2.0)
        weights[:, [0, -1]] = 1.0
        p = f.spectral_power()
        p *= weights * inverse_k2_power(g.k2, -power)
        assert solver._parseval_sum(f, power) == float((2.0 * np.pi) ** 2 / n**4 * np.sum(p))

    def test_grad_sup_constant_is_zero(self, grid64):
        f = vc.ScalarField.from_values(grid64, np.full((64, 64), 0.4))
        assert vc.grad_sup_norm(f) == 0.0

    def test_grad_sup_single_mode(self, grid64):
        X, _ = grid64.meshgrid()
        f = vc.ScalarField.from_values(grid64, np.sin(X))
        assert vc.grad_sup_norm(f) == pytest.approx(1.0, abs=1e-12)

    def test_grad_sup_two_mode_against_dense_argmax(self, grid64):
        X, Y = grid64.meshgrid()
        f = vc.ScalarField.from_values(grid64, np.sin(3 * X) * np.cos(2 * Y))
        # dense-grid argmax of the analytic gradient magnitude
        xs = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
        XX, YY = np.meshgrid(xs, xs, indexing="ij")
        gx = 3 * np.cos(3 * XX) * np.cos(2 * YY)
        gy = -2 * np.sin(3 * XX) * np.sin(2 * YY)
        dense_max = np.max(np.hypot(gx, gy))
        assert dense_max == pytest.approx(3.0, abs=1e-6)
        assert vc.grad_sup_norm(f) == pytest.approx(dense_max, abs=1e-9)

    def test_grad_sup_holds_one_work_buffer_and_the_gradient(self):
        n = 512
        f = vc.ScalarField.from_values(vc.Grid(n), np.random.default_rng(3).random((n, n)))
        f.spectrum  # formed before the traced call
        # 2.1 MB each: the complex work buffer, f_x and f_y
        assert traced_peak_mb(vc.grad_sup_norm, f) <= 6.5

    def test_hessian_sup_zero(self, grid64):
        assert vc.hessian_sup_of_inverse_laplacian(vc.ScalarField.zeros(grid64)) == 0.0

    def test_hessian_sup_single_mode(self, grid64):
        X, Y = grid64.meshgrid()
        f = vc.ScalarField.from_values(grid64, np.cos(X))
        assert vc.hessian_sup_of_inverse_laplacian(f) == pytest.approx(1.0, rel=1e-12)
        g = vc.ScalarField.from_values(grid64, np.cos(X) + np.cos(Y))
        assert vc.hessian_sup_of_inverse_laplacian(g) == pytest.approx(1.0, rel=1e-12)

    @staticmethod
    def eager_inverse_k2_power(g, alpha):
        k2 = g.kx**2 + g.ky**2
        inv, nz = np.zeros_like(k2), k2 > 0
        inv[nz] = 1.0 / k2[nz] if alpha == 1.0 else k2[nz] ** (-alpha)
        return inv

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_velocity_matches_the_eager_formulas_bit_for_bit(self, grid128, alpha):
        theta = smooth_random_field(grid128, seed=5)
        g, psi_hat = grid128, -theta.spectrum * self.eager_inverse_k2_power(grid128, alpha)
        vel = vc.velocity_from_vorticity(theta, alpha)
        for field, symbol in ((vel.u, -1j * g.ky), (vel.v, 1j * g.kx)):
            assert np.array_equal(field.spectrum, symbol * psi_hat)
            assert np.array_equal(field.values, np.fft.irfft2(symbol * psi_hat, s=(g.n, g.n)))

    def test_hessian_sup_matches_the_eager_formulas_bit_for_bit(self, grid128):
        f, g, s = smooth_random_field(grid128, seed=5), grid128, (grid128.n, grid128.n)
        psi_hat = -f.spectrum * self.eager_inverse_k2_power(g, 1.0)
        hxx = np.fft.irfft2(-g.kx * g.kx * psi_hat, s=s)
        hxy = np.fft.irfft2(-g.kx * g.ky * psi_hat, s=s)
        hyy = np.fft.irfft2(-g.ky * g.ky * psi_hat, s=s)
        expected = float(max(np.max(np.abs(hxx)), np.max(np.abs(hxy)), np.max(np.abs(hyy))))
        assert vc.hessian_sup_of_inverse_laplacian(f) == expected

    def test_hessian_sup_holds_one_entry_at_a_time(self):
        f = experiments.arm_anomaly(vc.Grid(512), 0.1)
        vc.hessian_sup_of_inverse_laplacian(f)  # warm: the field's spectrum and FFT plans
        # 2.1 MB each: psi_hat, one symbol product, and irfft2's complex pass
        # and real entry (8.4 MB); the three entries held at once read 12.6 MB
        assert traced_peak_mb(vc.hessian_sup_of_inverse_laplacian, f) <= 10.0

    def test_hessian_rejects_mean(self, grid64):
        f = vc.ScalarField.from_values(grid64, np.full((64, 64), 1.0))
        with pytest.raises(vc.InvalidFieldError):
            vc.hessian_sup_of_inverse_laplacian(f)

    def test_h2_seminorm_values(self, grid64):
        X, _ = grid64.meshgrid()
        f = vc.ScalarField.from_values(grid64, np.cos(X))
        assert vc.h2_seminorm(f) == pytest.approx(np.sqrt(2 * np.pi**2), rel=1e-12)
        assert vc.h2_seminorm(vc.ScalarField.zeros(grid64)) == 0.0
        g = vc.ScalarField.from_values(grid64, np.cos(2 * X))
        assert vc.h2_seminorm(g) == pytest.approx(4 * np.sqrt(2 * np.pi**2), rel=1e-12)

    def test_conserved_quantities_closed_forms(self, grid64):
        X, _ = grid64.meshgrid()
        state = vc.SimState(vc.ScalarField.from_values(grid64, np.cos(X)))
        q = {k: DIAGNOSTICS[k](state) for k in CONSERVED}
        assert q["enstrophy"] == pytest.approx(2 * np.pi**2, rel=1e-12)
        assert q["energy"] == pytest.approx(np.pi**2, rel=1e-12)
        assert q["l1"] == pytest.approx(8 * np.pi, rel=1e-3)  # kinked integrand
        assert q["l2"] == pytest.approx(np.sqrt(2 * np.pi**2), rel=1e-12)
        assert q["l4"] == pytest.approx((1.5 * np.pi**2) ** 0.25, rel=1e-12)
        assert q["linf"] == pytest.approx(1.0, abs=1e-12)
        assert state.theta.mean == pytest.approx(0.0, abs=1e-15)

    def test_energy_matches_velocity_quadrature(self, grid128):
        # two routes: spectral Parseval sum vs physical-space velocity norm
        theta = smooth_random_field(grid128, seed=8)
        for alpha in (1.0, 1.5):
            state = vc.SimState(theta, inversion_exponent=alpha)
            vel = vc.velocity_from_vorticity(theta, alpha)
            uu, vv = vel.u.values, vel.v.values
            physical = 0.5 * np.sum(uu * uu + vv * vv) * grid128.cell_area
            spectral = DIAGNOSTICS["energy"](state)
            assert spectral == pytest.approx(physical, rel=1e-12)

    def test_conserved_quantities_zero_state(self, grid64):
        state = vc.SimState(vc.ScalarField.zeros(grid64))
        assert all(DIAGNOSTICS[k](state) == 0.0 for k in CONSERVED)
        assert state.theta.mean == 0.0

    def test_one_table_names_every_sample_quantity(self):
        names = ["grad_sup", "energy", "enstrophy", "hamiltonian", "h2", "l1", "l2", "l4", "linf"]
        assert list(DIAGNOSTICS) == names
        assert list(DEFAULT_DIAGNOSTICS) == names[:3]
        assert all(DEFAULT_DIAGNOSTICS[k] is DIAGNOSTICS[k] for k in names[:3])


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([16, 32, 64, 128]), seed=st.integers(0, 2**32 - 1))
def test_half_grid_diagnostics_match_full_grid(n, seed):
    # a kernel-built point-even field reduces over rows 0..n/2 of the mirrored
    # frame; the full-grid formulas below read every grid value
    grid = vc.Grid(n)
    random = np.random.default_rng(seed).standard_normal((n, n))
    values = 0.5 * (random + mirror(random))
    values -= np.mean(values)
    kernel = solver._AdvectionKernel(grid, 1.0, point_even=True)
    field = kernel.field(kernel.pack(vc.ScalarField.from_values(grid, values).spectrum))
    spectrum, area, s = field.spectrum, grid.cell_area, (n, n)
    full = fft.irfft2(spectrum, s=s)
    fx = fft.irfft2(1j * grid.kx * spectrum, s=s)
    fy = fft.irfft2(1j * grid.ky * spectrum, s=s)
    lap = fft.irfft2(-grid.k2 * spectrum, s=s)
    expected = {
        "grad_sup": np.max(np.hypot(fx, fy)),
        "h2": np.sqrt(np.sum(lap * lap) * area),
        "enstrophy": np.sum(full * full) * area,
        "l1": np.sum(np.abs(full)) * area,
        "l2": np.sqrt(np.sum(full * full) * area),
        "l4": (np.sum(full**4) * area) ** 0.25,
        "linf": np.max(np.abs(full)),
    }
    diagnostics = DIAGNOSTICS
    state = vc.SimState(field)
    for name, value in expected.items():
        assert diagnostics[name](state) == pytest.approx(value, rel=1e-13, abs=0.0), name
    assert np.array_equal(field.values, mirror(field.values))
    assert np.max(np.abs(field.values - full)) <= 1e-14 * np.max(np.abs(full))


class TestGeneralizedExponent:
    def test_alpha_gradient_growth_at_most_linear_in_log(self, grid128):
        theta = smooth_random_field(grid128, seed=5, k_peak=5.0, l2=4.0)
        state = vc.SimState(theta, inversion_exponent=1.5)
        result = vc.run(state, 5.0, cfl=0.4, sample_every=0.5)
        g = result.series["grad_sup"]
        sup = float(np.max(np.abs(theta.values)))
        from vcross.diagnostics import fit_growth_envelope

        fit = fit_growth_envelope(
            g, "exponential", {"grad0": g.values[0], "theta_sup": sup}
        )
        # log growth dominated by a fitted linear envelope over [0, 5]
        assert fit.fitted_C < 1.0
        envelope = np.log(g.values[0]) + fit.fitted_C * sup * g.t
        assert np.all(np.log(g.values) <= envelope + 1e-9)


def even_part(field):
    values = field.values
    return vc.ScalarField.from_values(field.grid, 0.5 * (values + mirror(values)))


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count the helper policy reads: cpus(1) or cpus(2)."""
    return lambda count: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestHelperThread:
    GRID = vc.Grid(solver.HELPER_MIN_N)

    @pytest.mark.parametrize(
        "even, alpha", [(True, 1.0), (True, 1.5), (False, 1.0)], ids=["even", "even-1.5", "general"]
    )
    def test_bits_match_one_thread(self, cpus, even, alpha):
        field = smooth_random_field(self.GRID, seed=6)
        state = vc.SimState(even_part(field) if even else field, inversion_exponent=alpha)
        before, threads = threading.active_count(), []
        diagnostics = {
            **DIAGNOSTICS,
            "threads": lambda s: threads.append(threading.active_count()) or 0.0,
        }
        results = []
        for count in (2, 1):
            cpus(count)
            result = vc.run(state, 0.15, sample_every=0.05, diagnostics=diagnostics)
            results.append((result, vc.step_rk4(result.state, 0.002)))
        (two, two_step), (one, one_step) = results
        assert two.kernel == ("point-even" if even else "general") and two.steps >= 3
        assert np.array_equal(two.state.theta.values, one.state.theta.values)
        assert np.array_equal(two_step.theta.values, one_step.theta.values)
        for name in two.series:
            if name != "threads":
                assert np.array_equal(two.series[name].values, one.series[name].values), name
        # the first sample of each run is taken before its kernel is built
        assert threads == [before] + [before + 1] * 3 + [before] * 4

    @pytest.mark.parametrize("leave", ["break", "raise"])
    def test_a_march_left_early_joins_its_helper(self, cpus, leave):
        cpus(2)
        state = vc.SimState(even_part(smooth_random_field(self.GRID, seed=9)))
        before, threads = threading.active_count(), []
        with pytest.raises(KeyError) if leave == "raise" else contextlib.nullcontext():
            for sample, steps, kernel in vc.march(state, 0.1, sample_every=0.02):
                threads.append(threading.active_count())
                if len(threads) == 2:
                    if leave == "break":
                        break
                    raise KeyError("consumer")
        assert threads == [before, before + 1]
        assert threading.active_count() == before

    @pytest.mark.parametrize("even", [True, False], ids=["even", "general"])
    def test_march_yields_what_run_records(self, cpus, even):
        cpus(2)
        field = smooth_random_field(self.GRID, seed=6)
        state = vc.SimState(even_part(field) if even else field)
        diagnostics = DIAGNOSTICS
        expected = vc.run(state, 0.15, sample_every=0.05, diagnostics=diagnostics)
        times, rows, lent = [], [], []
        for sample, steps, kernel in vc.march(state, 0.15, sample_every=0.05):
            times.append(sample.time)
            rows.append([fn(sample) for fn in diagnostics.values()])
            lent.append(len(getattr(sample.theta, "lent", ())))
        assert (steps, kernel.mode, kernel.evaluations) == (
            expected.steps, expected.kernel, expected.rhs_evals
        )
        for i, (name, series) in enumerate(expected.series.items()):
            assert np.array_equal(times, series.t) and len(times) == 4, name
            assert np.array_equal([row[i] for row in rows], series.values), name
        # a point-even sample borrows the kernel's buffers until the march ends
        assert lent == ([0, 5, 5, 5] if even else [0] * 4)
        assert getattr(sample.theta, "lent", []) == []

    def test_a_sample_holds_lent_arrays_only_until_the_march_resumes(self, cpus):
        cpus(2)
        state = vc.SimState(even_part(smooth_random_field(self.GRID, seed=6)))
        marching = vc.march(state, 0.1, sample_every=0.02)
        next(marching)
        sample, _, kernel = next(marching)
        f_x = sample.theta.gradient_arrays()[0]
        kept = f_x.copy()
        assert any(np.shares_memory(f_x, buffer) for buffer in kernel._lent)
        next(marching)  # the next step reuses the buffer
        assert not np.array_equal(f_x, kept)
        marching.close()
        assert kernel._lent == [] and kernel._helper is None

    def test_a_samples_rows_are_lent_and_overwritten_once_the_march_resumes(self, cpus):
        cpus(2)
        state = vc.SimState(even_part(smooth_random_field(self.GRID, seed=6)))
        marching = vc.march(state, 0.1, sample_every=0.02)
        next(marching)
        sample, _, kernel = next(marching)
        rows = sample.theta.row_values
        kept = rows.copy()
        assert any(np.shares_memory(rows, buffer) for buffer in kernel._lent)
        gradient = sample.theta.gradient_arrays()  # in other lent buffers
        assert not any(np.shares_memory(rows, d) for d in gradient)
        assert np.array_equal(rows, kept)
        next(marching)  # the next step's second lane reuses the buffer
        assert not np.array_equal(rows, kept)
        marching.close()

    def test_small_grids_and_pool_workers_step_on_one_thread(self, cpus, monkeypatch):
        cpus(2)
        assert solver._helper_allowed(solver.HELPER_MIN_N)
        assert not solver._helper_allowed(solver.HELPER_MIN_N // 2)
        cpus(1)
        assert not solver._helper_allowed(solver.HELPER_MIN_N)
        cpus(2)
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        assert not solver._helper_allowed(solver.HELPER_MIN_N)

    def test_joined_after_return_and_kernel_freed(self, cpus, kernels):
        cpus(2)
        before = threading.active_count()
        state = vc.SimState(even_part(smooth_random_field(self.GRID, seed=7)))
        result = vc.run(state, 0.02, sample_every=0.02)
        assert threading.active_count() == before
        kernel = kernels.pop()
        freed = [weakref.ref(kernel), weakref.ref(kernel._u)]
        del kernel
        # no reference cycle keeps the kernel, and the final field keeps none of its buffers
        assert [ref() for ref in freed] == [None, None]
        assert result.state.theta.gradient_arrays()[0].shape == (self.GRID.n // 2 + 1, self.GRID.n)

    def test_joined_after_blowup(self, cpus):
        cpus(2)
        before = threading.active_count()
        n = self.GRID.n
        spec = np.zeros((n, n // 2 + 1), dtype=complex)
        spec[1, 0] = spec[0, 1] = 1e300
        state = vc.SimState(vc.ScalarField.from_spectrum(self.GRID, spec), time=2.5)
        with pytest.raises(vc.BlowUpError):
            vc.run(state, 3.0, diagnostics={"mean": lambda s: s.theta.mean})
        assert threading.active_count() == before

    def test_joined_after_an_error_in_a_paired_job(self, cpus, monkeypatch):
        cpus(2)
        before = threading.active_count()

        def fails(*args):
            raise MemoryError("paired job")

        monkeypatch.setattr(solver, "point_even_inverse", fails)
        state = vc.SimState(even_part(smooth_random_field(self.GRID, seed=8)))
        with pytest.raises(MemoryError, match="paired job"):
            vc.run(state, 0.02)
        assert threading.active_count() == before

    def test_a_job_the_helper_started_is_awaited_and_its_error_raised(self):
        started, finished = threading.Event(), []

        def first():
            started.set()
            finished.append(threading.current_thread() is not threading.main_thread())
            raise MemoryError("helper job")

        before = threading.active_count()
        with solver._Helper() as helper:
            # the second job returns only once the helper has claimed the first
            with pytest.raises(MemoryError, match="helper job"):
                helper.pair(first, lambda: started.wait(timeout=60.0))
            assert finished == [True]
            # unclaimed, the first job runs on the caller's thread
            ran_on = []
            helper.pair(lambda: ran_on.append(threading.current_thread()), lambda: None)
            assert len(ran_on) == 1
        assert threading.active_count() == before

    def test_a_job_the_helper_ran_is_not_held_past_its_pair(self):
        # a job's closure can hold an RK4 state that the march has replaced
        held, started = np.ones(4), threading.Event()
        alive = weakref.ref(held)

        def first(held=held):
            started.set()

        with solver._Helper() as helper:
            helper.pair(first, lambda: started.wait(timeout=60.0))
            del first, held
            assert alive() is None

    def test_an_idle_helper_stops_polling_after_its_window(self, cpus):
        cpus(2)
        started = threading.Event()
        with solver._AdvectionKernel(self.GRID, 1.0, point_even=True) as kernel:
            assert kernel._helper is not None
            before = time.process_time()
            time.sleep(0.1)
            spent = time.process_time() - before
            # asleep on its condition, the helper still wakes for the next pair
            kernel._pair(started.set, lambda: started.wait(timeout=60.0))
        # polling costs at most its window; a helper that polled through the
        # whole sleep spent 12-14 ms
        assert spent <= solver.HANDOFF_POLL_S + 0.003
        assert started.is_set()

    def test_stress_concurrent_runs_keep_their_bits(self, cpus):
        # three callers and their three helpers on two cores, switching often
        fields = [smooth_random_field(self.GRID, seed=s) for s in (1, 2)]
        states = [vc.SimState(even_part(f)) for f in fields] + [vc.SimState(fields[0])]
        cpus(1)
        expected = [vc.run(s, 0.1, sample_every=0.05).state.theta.values for s in states]
        cpus(2)
        got = [None] * len(states)

        def march(i):
            got[i] = vc.run(states[i], 0.1, sample_every=0.05).state.theta.values

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=march, args=(i,)) for i in range(len(states))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_jobs_run_under_the_callers_error_state(self):
        started = threading.Event()

        def overflow():
            started.set()
            np.multiply(np.full(4, 1e308), 10.0)

        def pair(helper):  # the helper claims the first job before the second returns
            started.clear()
            helper.pair(overflow, lambda: started.wait(timeout=60.0))

        with solver._Helper() as helper:
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                pair(helper)
            with np.errstate(over="ignore"):
                pair(helper)
            # numpy warns by default; the suite's filter makes the warning an error
            with np.errstate(over="warn"), pytest.raises(RuntimeWarning, match="overflow"):
                pair(helper)
            with np.errstate(over="warn"), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                pair(helper)
            assert [w.category for w in caught] == [RuntimeWarning]

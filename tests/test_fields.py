"""Grid and field container tests: representations, invariants, snapshot IO."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vcross as vc
from conftest import mirror, traced_peak_mb
from vcross.fields import (
    PointEvenField,
    dealias_mask,
    inverse_k2_power,
    is_point_even,
    next_power_of_two,
    point_even_inverse,
    point_parity_error,
)
from vcross.solver import SNAPSHOT_MAGIC, load_state, save_state


class TestGrid:
    def test_spacing_times_n_is_exactly_two_pi(self):
        for n in (16, 64, 256):
            g = vc.Grid(n)
            assert g.spacing * n == 2.0 * np.pi

    @pytest.mark.parametrize("n", [8, 12, 100, 96])
    def test_rejects_non_power_of_two_or_small(self, n):
        with pytest.raises(ValueError):
            vc.Grid(n)

    def test_rejects_a_grid_larger_than_the_host_memory_before_allocating(self):
        # one 2**31 x 2**31 float64 array needs 2**65 bytes; n-sized arrays alone take 16 GiB
        with pytest.raises(ValueError, match="n = 2147483648 needs 36893488147419103232 bytes"):
            vc.Grid(2**31)

    def test_dealias_mask_keeps_two_thirds(self, grid64):
        dealias = dealias_mask(grid64.kx, grid64.ky, grid64.n)
        assert dealias[0, 0]
        assert dealias[21, 21]  # 64 // 3 = 21
        assert not dealias[22, 0]
        assert not dealias[0, 22]
        assert not dealias[32, 0]  # Nyquist row

    def test_mode_arrays_built_on_demand(self):
        # a grid read for its spacing alone builds no n x (n/2 + 1) array
        assert traced_peak_mb(lambda: vc.Grid(512).spacing) <= 0.1

    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_mode_arrays_match_eager_formulas(self, n):
        g = vc.Grid(n)
        kx = np.fft.fftfreq(n, d=1.0 / n)[:, None]
        ky = np.arange(n // 2 + 1)[None, :].astype(float)
        k2 = kx**2 + ky**2
        inv_k2 = np.zeros_like(k2)
        nz = k2 > 0
        inv_k2[nz] = 1.0 / k2[nz]
        kcut = n // 3
        dealias = (np.abs(kx) <= kcut) & (ky <= kcut)
        assert np.array_equal(g.k2, k2)
        assert np.array_equal(inverse_k2_power(g.k2, 1.0), inv_k2)
        assert np.array_equal(dealias_mask(g.kx, g.ky, g.n), dealias)

    def test_wavenumbers_are_integers(self, grid64):
        assert grid64.kx[1, 0] == 1.0
        assert grid64.kx[-1, 0] == -1.0
        assert grid64.ky[0, -1] == 32.0


class TestScalarField:
    def test_roundtrip_physical_spectral(self, grid64):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((64, 64))
        f = vc.ScalarField.from_values(grid64, vals)
        back = vc.ScalarField.from_spectrum(grid64, f.spectrum)
        assert np.max(np.abs(back.values - vals)) <= 1e-12 * np.max(np.abs(vals))

    def test_mean_reads_zero_mode(self, grid64):
        vals = np.full((64, 64), 0.73)
        f = vc.ScalarField.from_values(grid64, vals)
        assert f.mean == pytest.approx(0.73, abs=1e-14)

    def test_rejects_nonfinite(self, grid64):
        vals = np.zeros((64, 64))
        vals[3, 3] = np.nan
        with pytest.raises(vc.InvalidFieldError):
            vc.ScalarField.from_values(grid64, vals)

    def test_rejects_bad_shape(self, grid64):
        with pytest.raises(vc.InvalidFieldError):
            vc.ScalarField.from_values(grid64, np.zeros((64, 32)))

    def test_spectral_derivative_single_mode(self, grid64):
        X, _ = grid64.meshgrid()
        f = vc.ScalarField.from_values(grid64, np.sin(3 * X))
        fx, fy = f.gradient_arrays()
        assert np.max(np.abs(fx - 3 * np.cos(3 * X))) < 1e-12
        assert np.max(np.abs(fy)) < 1e-12

    def test_point_even_values_are_assembled_per_read_and_never_held(self, grid64):
        values = np.random.default_rng(3).standard_normal((64, 64))
        values += mirror(values)
        f = PointEvenField(grid64, np.ascontiguousarray(np.fft.rfft2(values).real))
        first = f.values
        assert f.values is not first and np.array_equal(f.values, first)
        assert np.array_equal(first, mirror(first))
        assert f._values is None and f.view()._values is None

    @pytest.mark.parametrize("n", [64, 256])
    def test_gradient_is_bitwise_irfft2(self, n):
        g = vc.Grid(n)
        f = vc.ScalarField.from_values(g, np.random.default_rng(n).standard_normal((n, n)))
        for derivative, k in zip(f.gradient_arrays(), (g.kx, g.ky)):
            assert np.array_equal(derivative, np.fft.irfft2(1j * k * f.spectrum, s=(n, n)))


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([16, 32, 64]),
    seed=st.integers(0, 2**32 - 1),
    where=st.sampled_from(["nowhere", "row 0", "column 0", "interior", "(0, n/2)", "(n/2, n/2)"]),
)
def test_point_evenness_against_mirror(n, seed, where):
    # an even field moved by one ulp at one entry; (0, n/2) and (n/2, n/2)
    # are their own mirror images, so moving them keeps the field even
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n, n))
    v = r + mirror(r)
    i, j = rng.integers(1, n, size=2)
    h = n // 2
    index = {
        "nowhere": None,
        "row 0": (0, j),
        "column 0": (i, 0),
        "interior": (i, j),
        "(0, n/2)": (0, h),
        "(n/2, n/2)": (h, h),
    }[where]
    if index is not None:
        v[index] = np.nextafter(v[index], np.inf)
    assert is_point_even(v) == np.array_equal(v, mirror(v))
    assert point_parity_error(v) == np.max(np.abs(v - mirror(v)))


class TestVelocityField:
    def test_divergence_rel_zero_field(self, grid64):
        vel = vc.VelocityField(vc.ScalarField.zeros(grid64), vc.ScalarField.zeros(grid64))
        assert vel.divergence_rel() == 0.0

    def test_max_speed_componentwise(self, grid64):
        X, Y = grid64.meshgrid()
        vel = vc.VelocityField(
            vc.ScalarField.from_values(grid64, 0.25 * np.sin(X)),
            vc.ScalarField.from_values(grid64, 2.0 * np.sin(Y)),
        )
        assert vel.max_speed() == pytest.approx(2.0, rel=1e-12)


class TestSnapshotFormat:
    def test_roundtrip(self, grid64, tmp_path):
        rng = np.random.default_rng(1)
        f = vc.ScalarField.from_values(grid64, rng.standard_normal((64, 64)))
        state = vc.SimState(f, time=1.25, inversion_exponent=1.5)
        path = tmp_path / "snap.vcrs"
        save_state(path, state)
        back = load_state(path)
        assert back.time == 1.25
        assert back.inversion_exponent == 1.5
        assert np.array_equal(back.theta.values, f.values)

    def test_header_layout(self, grid64, tmp_path):
        state = vc.SimState(vc.ScalarField.zeros(grid64), time=0.5)
        path = tmp_path / "snap.vcrs"
        save_state(path, state)
        raw = path.read_bytes()
        magic, version, nx, ny, t, alpha = struct.unpack("<4sIQQdd", raw[:40])
        assert magic == SNAPSHOT_MAGIC == b"VCRS"
        assert version == 1
        assert (nx, ny) == (64, 64)
        assert t == 0.5 and alpha == 1.0
        assert len(raw) == 40 + 8 * 64 * 64

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.vcrs"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_state(path)


def test_next_power_of_two():
    assert next_power_of_two(5) == 16
    assert next_power_of_two(16) == 16
    assert next_power_of_two(17) == 32
    assert next_power_of_two(1000) == 1024


@pytest.mark.parametrize("factor", [1.0 / 512, 1j / 512])
def test_point_even_inverse_takes_no_ufunc_buffer(factor):
    # scaling the strided head of the work buffer in place took a 0.26 MB
    # ufunc buffer per call at n = 512; the whole contiguous buffer takes none
    n, m = 512, 512 // 3 + 1
    spectrum = np.random.default_rng(6).standard_normal((n, m))
    work = np.empty((n // 2 + 1, n // 2 + 1), complex)
    out = np.empty((n // 2 + 1, n))
    point_even_inverse(spectrum, factor, work, out)  # warm: FFT plans
    assert traced_peak_mb(point_even_inverse, spectrum, factor, work, out) < 0.05

"""Periodic grid and field containers shared by the solver and the diagnostics.

Everything lives on the square torus [0, 2pi)^2 sampled on an n x n uniform
grid.  Fields keep a physical representation (real samples, row-major, index
[i, j] <-> (x_i, y_j)) and a lazily computed half-complex spectrum from
``rfft2``.  All differential operators in this package are spectral so that
the solver and the norm evaluators share one differentiation convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


class InvalidFieldError(ValueError):
    """Raised when field data violates a precondition (mean, finiteness, shape)."""


class UnresolvedScaleError(ValueError):
    """Raised when a requested feature is too small for the grid.

    Carries ``required_n``, the smallest power-of-two resolution that would
    resolve the feature.
    """

    def __init__(self, message, required_n):
        super().__init__(message)
        self.required_n = required_n

    def __reduce__(self):  # pickle rebuilds from the constructor's arguments
        return type(self), (str(self), self.required_n)


def point_reflection(values):
    """Grid image of z -> -z: index (i, j) -> (-i, -j) mod n."""
    return np.roll(values[::-1, ::-1], (1, 1), (0, 1))


def next_power_of_two(m):
    n = 16
    while n < m:
        n *= 2
    return n


@dataclass(frozen=True)
class Grid:
    """Uniform n x n discretization of the torus, n a power of two, n >= 16.

    ``spacing * n`` equals 2pi exactly in floating point because n is a power
    of two.  Wavenumbers are integers; ``ky`` uses the rfft2 half-spectrum
    layout (last axis).
    """

    n: int

    def __post_init__(self):
        n = self.n
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 16, got {n}")
        spacing = TWO_PI / n
        x = np.arange(n) * spacing
        kx = np.fft.fftfreq(n, d=1.0 / n)[:, None]  # integer wavenumbers, column
        ky = np.arange(n // 2 + 1)[None, :].astype(float)  # rfft half-spectrum, row
        k2 = kx**2 + ky**2
        inv_k2 = np.zeros_like(k2)
        nz = k2 > 0
        inv_k2[nz] = 1.0 / k2[nz]
        # 2/3-rule mask: keep |k| <= n//3 in each direction
        kcut = n // 3
        dealias = (np.abs(kx) <= kcut) & (ky <= kcut)
        for name, val in (
            ("spacing", spacing),
            ("x", x),
            ("kx", kx),
            ("ky", ky),
            ("k2", k2),
            ("inv_k2", inv_k2),
            ("dealias", dealias),
        ):
            object.__setattr__(self, name, val)

    @property
    def cell_area(self):
        return self.spacing * self.spacing

    def meshgrid(self):
        """(X, Y) arrays with X[i, j] = x_i, Y[i, j] = y_j."""
        return np.meshgrid(self.x, self.x, indexing="ij")

    def inv_k2_power(self, alpha):
        """Mode-wise |k|^(-2 alpha) with the zero mode set to zero."""
        if alpha == 1.0:
            return self.inv_k2
        out = np.zeros_like(self.k2)
        nz = self.k2 > 0
        out[nz] = self.k2[nz] ** (-alpha)
        return out


class ScalarField:
    """Real scalar on a Grid with a paired spectral representation.

    Construct with :meth:`from_values` or :meth:`from_spectrum`; instances are
    treated as immutable.  The mean is read off the spectral zero mode, so it
    is preserved bit-for-bit by any operation that leaves that mode untouched.
    """

    __slots__ = ("grid", "_values", "_spectrum")

    def __init__(self, grid, values=None, spectrum=None):
        self.grid = grid
        self._values = values
        self._spectrum = spectrum

    @classmethod
    def from_values(cls, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n, grid.n):
            raise InvalidFieldError(
                f"expected shape {(grid.n, grid.n)}, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidFieldError("field contains non-finite values")
        return cls(grid, values=np.ascontiguousarray(values))

    @classmethod
    def from_spectrum(cls, grid, spectrum):
        n = grid.n
        if spectrum.shape != (n, n // 2 + 1):
            raise InvalidFieldError(
                f"expected spectrum shape {(n, n // 2 + 1)}, got {spectrum.shape}"
            )
        return cls(grid, spectrum=np.ascontiguousarray(spectrum))

    @classmethod
    def zeros(cls, grid):
        return cls.from_values(grid, np.zeros((grid.n, grid.n)))

    @property
    def values(self):
        if self._values is None:
            self._values = np.fft.irfft2(self._spectrum, s=(self.grid.n, self.grid.n))
        return self._values

    @property
    def spectrum(self):
        if self._spectrum is None:
            self._spectrum = np.fft.rfft2(self._values)
        return self._spectrum

    @property
    def mean(self):
        return float(self.spectrum[0, 0].real) / (self.grid.n * self.grid.n)

    def require_zero_mean(self, what="field"):
        scale = max(1.0, float(np.max(np.abs(self.values))))
        if abs(self.mean) > 1e-12 * scale:
            raise InvalidFieldError(
                f"{what} must have zero mean, got {self.mean:.3e}"
            )

    def gradient_arrays(self):
        """Physical-space (f_x, f_y) computed spectrally."""
        g = self.grid
        sp = self.spectrum
        fx = np.fft.irfft2(1j * g.kx * sp, s=(g.n, g.n))
        fy = np.fft.irfft2(1j * g.ky * sp, s=(g.n, g.n))
        return fx, fy

    def l2_norm(self):
        v = self.values
        return float(np.sqrt(np.sum(v * v) * self.grid.cell_area))

    def linf_norm(self):
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class VelocityField:
    """Divergence-free velocity pair on a shared grid."""

    u: ScalarField
    v: ScalarField

    @property
    def grid(self):
        return self.u.grid

    def max_speed(self):
        """Componentwise sup speed, the quantity entering the CFL bound."""
        return max(self.u.linf_norm(), self.v.linf_norm())

    def divergence_rel(self):
        """Spectral divergence relative to the field's spectral magnitude."""
        g = self.grid
        div = 1j * g.kx * self.u.spectrum + 1j * g.ky * self.v.spectrum
        scale = np.max(
            np.sqrt(g.k2) * np.maximum(np.abs(self.u.spectrum), np.abs(self.v.spectrum))
        )
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(div)) / scale)

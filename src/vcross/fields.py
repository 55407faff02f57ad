"""Periodic grid and field containers shared by the solver and the diagnostics.

Everything lives on the square torus [0, 2pi)^2 sampled on an n x n uniform
grid.  Fields keep a physical representation (real samples, row-major, index
[i, j] <-> (x_i, y_j)) and a lazily computed half-complex spectrum from
``rfft2``.  A :class:`PointEvenField`, which the solver's point-even mode
hands out, is held as its real half-spectrum and sampled on half the grid.
Operators are spectral, with one formula each for |k|^(-2 alpha) and the 2/3
mask, so the solver and the norm evaluators share one convention.
"""

from __future__ import annotations

import functools
import os
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


def _mirror_pairs(values):
    """View pairs (a, b) with b[k] the image of a[k] under z -> -z, cheapest first.

    The image of index (i, j) is (-i, -j) mod n.  Row 0, column 0 and the
    interior each map onto themselves; the origin is its own image.
    """
    return (
        (values[0, 1:], values[0, :0:-1]),
        (values[1:, 0], values[:0:-1, 0]),
        (values[1:, 1:], values[:0:-1, :0:-1]),
    )


def is_point_even(values):
    """Whether the grid values equal their image under z -> -z, without a copy."""
    return all(np.array_equal(a, b) for a, b in _mirror_pairs(values))


def point_parity_error(values):
    """Sup over the grid of |v(z) - v(-z)|."""
    errors = []
    for a, b in _mirror_pairs(values):
        diff = np.subtract(a, b)
        errors.append(np.max(np.abs(diff, out=diff)))
    return float(np.max(errors))


def point_even_inverse(spectrum, factor, work, out):
    """Rows 0..n/2 of the mirrored frame (row r <-> x = -x_r) of a point-even field.

    ``spectrum`` holds the leading m columns of a real half-spectrum, the
    columns beyond them zero; ``factor`` is 1/n, or i/n for an odd field whose
    spectrum is i times ``spectrum``.  The transform is rfft down the columns
    into ``work`` (complex, n/2 + 1 square, its columns from m on zeroed
    here), then irfft along the rows into ``out`` (real, (n/2 + 1) x n).
    A full-width irfft input is about a third faster than a zero-padded one.
    """
    m = spectrum.shape[1]
    np.fft.rfft(spectrum, axis=0, out=work[:, :m])
    work[:, m:] = 0.0
    work *= factor  # in place on the contiguous buffer: no ufunc buffer for a strided view
    return np.fft.irfft(work, out.shape[1], axis=1, out=out)


def inverse_k2_power(k2, alpha):
    """Mode-wise |k|^(-2 alpha) of the squared wavenumbers ``k2``, zero where k2 = 0."""
    out = np.zeros_like(k2)
    nz = k2 > 0
    out[nz] = 1.0 / k2[nz] if alpha == 1.0 else k2[nz] ** (-alpha)
    return out


def dealias_mask(kx, ky, n):
    """2/3-rule mask on the modes (kx, ky): |kx| and ky at most n//3."""
    return (np.abs(kx) <= n // 3) & (ky <= n // 3)


@functools.cache
def _physical_memory():
    """Bytes of physical memory on this host, or None where it cannot be read."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or not these names
        return None


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
    layout (last axis).  It holds no n x (n/2 + 1) array: ``k2`` is formed on
    each read, |k|^(-2 alpha) by :func:`inverse_k2_power` and the 2/3 mask by
    :func:`dealias_mask`.  An n whose one n x n float64 array would not fit in
    the host's physical memory is refused before anything is allocated.
    """

    n: int

    def __post_init__(self):
        n = self.n
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 16, got {n}")
        need, memory = 8 * n * n, _physical_memory()
        if memory is not None and need > memory:
            raise ValueError(
                f"grid size n = {n} needs {need} bytes for one n x n array, "
                f"more than this host's {memory} bytes of memory"
            )
        spacing = TWO_PI / n
        for name, val in (
            ("spacing", spacing),
            ("x", np.arange(n) * spacing),
            ("kx", np.fft.fftfreq(n, d=1.0 / n)[:, None]),  # integer wavenumbers, column
            ("ky", np.arange(n // 2 + 1)[None, :].astype(float)),  # rfft half-spectrum, row
        ):
            object.__setattr__(self, name, val)

    @property
    def k2(self):
        """|k|^2 on the half-spectrum, formed on each read."""
        return self.kx**2 + self.ky**2

    @property
    def cell_area(self):
        return self.spacing * self.spacing

    def meshgrid(self):
        """(X, Y) arrays with X[i, j] = x_i, Y[i, j] = y_j."""
        return np.meshgrid(self.x, self.x, indexing="ij")


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

    def view(self):
        """A field over the values and spectrum this one holds.

        What the view computes is cached on it alone, so a reader of the view
        leaves this field as it was.  A point-even view forms its own rows.
        """
        return ScalarField(self.grid, self._values, self._spectrum)

    @property
    def spectrum(self):
        if self._spectrum is None:
            self._spectrum = np.fft.rfft2(self._values)
        return self._spectrum

    @property
    def row_values(self):
        """The values reductions read: every grid row (see :class:`PointEvenField`)."""
        return self.values

    def row_sum(self, cells):
        """Sum over the grid of ``cells``, an array formed pointwise on ``row_values``."""
        return np.sum(cells)

    def spectral_power(self):
        """Mode-wise |spectrum|^2 on the rfft2 half-spectrum."""
        return np.abs(self.spectrum) ** 2

    @property
    def mean(self):
        return float(self.spectrum[0, 0].real) / (self.grid.n * self.grid.n)

    def require_zero_mean(self, what="field"):
        scale = max(1.0, float(np.max(np.abs(self.row_values))))
        if abs(self.mean) > 1e-12 * scale:
            raise InvalidFieldError(
                f"{what} must have zero mean, got {self.mean:.3e}"
            )

    def gradient_arrays(self):
        """(f_x, f_y) on the rows of ``row_values``, computed spectrally.

        The pair is the caller's to overwrite, but a field that a solver run
        hands out may form it in scratch the run reuses (see
        :class:`PointEvenField`): copy it to keep it past the run's next step.
        """
        g = self.grid
        sp = self.spectrum
        work = np.empty_like(sp)

        def derivative(k):  # irfft2's own sequence, through one complex buffer
            np.multiply(1j * k, sp, out=work)
            np.fft.ifft(work, axis=0, out=work)
            return np.fft.irfft(work, g.n, axis=1)

        return derivative(g.kx), derivative(g.ky)

    def l2_norm(self):
        v = self.row_values
        return float(np.sqrt(self.row_sum(v * v) * self.grid.cell_area))

    def linf_norm(self):
        return float(np.max(np.abs(self.row_values)))


class PointEvenField(ScalarField):
    """A field equal to its point reflection, held as its real half-spectrum.

    ``row_values`` are rows 0..n/2 of the mirrored frame (row r <-> x = -x_r),
    made by one half-size inverse; rows 0 and n/2 are their own mirror images,
    so the second half of each is copied from the first.  Every grid value is
    a mirror copy of one of them: grid sums weigh rows 1..n/2-1 twice, and the
    full ``values`` are assembled by copies only, so they are exactly even.

    ``lent`` is empty, or the list of (work, spectrum, f_x, f_y, rows)
    scratch buffers that the solver kernel which made the field lends to it
    and to its other fields while its call runs; the kernel empties the list
    when the call ends, and the field then uses fresh buffers.  Rows formed
    in a lent buffer hold only until the kernel steps on.
    """

    __slots__ = ("real_spectrum", "_rows", "lent")

    def __init__(self, grid, real_spectrum):
        super().__init__(grid)
        self.real_spectrum = real_spectrum
        self._rows = None
        self.lent = ()

    def view(self):
        field = PointEvenField(self.grid, self.real_spectrum)
        field._spectrum, field.lent = self._spectrum, self.lent
        return field

    @property
    def row_values(self):
        if self._rows is None:
            n, h = self.grid.n, self.grid.n // 2
            work, out = (
                (self.lent[0], self.lent[4])
                if self.lent
                else (np.empty((h + 1, h + 1), complex), np.empty((h + 1, n)))
            )
            rows = point_even_inverse(self.real_spectrum, 1.0 / n, work, out)
            rows[[0, h], h + 1 :] = rows[[0, h], h - 1 : 0 : -1]
            self._rows = rows
        return self._rows

    @property
    def values(self):
        """The full values, assembled afresh on each read and never held."""
        n, h, rows = self.grid.n, self.grid.n // 2, self.row_values
        v = np.empty((n, n))
        v[0], v[h] = rows[0], rows[h]
        v[h + 1 :] = rows[h - 1 : 0 : -1]  # grid row n - r is mirrored row r
        v[1:h, 0] = rows[1:h, 0]  # grid row r is mirrored row r reversed in y
        v[1:h, 1:] = rows[1:h, :0:-1]
        return v

    @property
    def spectrum(self):
        if self._spectrum is None:
            self._spectrum = self.real_spectrum + 0j
        return self._spectrum

    @property
    def mean(self):
        return float(self.real_spectrum[0, 0]) / (self.grid.n * self.grid.n)

    def row_sum(self, cells):
        sums = np.sum(cells, axis=1)
        return 2.0 * np.sum(sums[1:-1]) + sums[0] + sums[-1]

    def spectral_power(self):
        return self.real_spectrum * self.real_spectrum

    def gradient_arrays(self):
        """(f_x, f_y) on the rows of ``row_values``; in lent buffers while lent.

        Lent buffers are shared by the lending kernel's fields and its steps,
        so the pair holds only until the next sample or step.
        """
        g, n, h = self.grid, self.grid.n, self.grid.n // 2 + 1
        work, spectrum, fx, fy = self.lent[:4] or (
            np.empty((h, h), complex), np.empty((n, h)), np.empty((h, n)), np.empty((h, n))
        )
        return tuple(  # the gradient of an even field is odd
            point_even_inverse(np.multiply(k, self.real_spectrum, out=spectrum), 1j / g.n, work, d)
            for k, d in ((g.kx, fx), (g.ky, fy))
        )


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

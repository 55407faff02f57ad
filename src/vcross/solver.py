"""Pseudo-spectral solver for the vorticity form of 2D Euler on the torus.

The transported scalar theta obeys theta_t + u . grad theta = 0 with
u = perp-grad of the inverse Laplacian of theta; an optional generalized
inversion exponent replaces |k|^-2 by |k|^(-2 alpha) mode-wise (realized with
the real symbol -|k|^(-2 alpha), which reduces to the Laplacian inverse at
alpha = 1).  Time stepping is classical RK4 with 2/3-rule dealiasing applied
to the advection product, and the spectral zero mode is never touched so the
mean is conserved bit-for-bit.  At alpha = 1 theta is the vorticity of u and
the product takes Basdevant's form dxdy(v^2 - u^2) + (dxx - dyy)(uv), four
transforms per RHS; at alpha != 1 that identity fails and u . grad theta
costs five.

Starting values equal to their point reflection theta(-x, -y), as all
cross+bump data are, are stepped in a point-even mode: the spectrum stays
real, so each transform is a pair of half-size real ones, about half the FFT
work.  The state stays exactly symmetric and its values are symmetrized on
the way out, so chained ``step_rk4`` calls stay point-even and the parity
error ``simulate`` checks reads exactly 0.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, replace

import numpy as np

from .fields import Grid, InvalidFieldError, ScalarField, VelocityField, point_reflection
from .series import SeriesRecorder

SNAPSHOT_MAGIC = b"VCRS"
SNAPSHOT_VERSION = 1


class CFLViolation(RuntimeError):
    """Requested step exceeds the advective CFL limit; carries admissible_dt."""

    def __init__(self, dt, admissible_dt):
        super().__init__(
            f"dt={dt:.6g} exceeds CFL limit; admissible dt <= {admissible_dt:.6g}"
        )
        self.dt = dt
        self.admissible_dt = admissible_dt

    def __reduce__(self):  # pickle rebuilds from the constructor's arguments
        return type(self), (self.dt, self.admissible_dt)


class BlowUpError(FloatingPointError):
    """Non-finite values appeared while stepping; carries the time stamp."""

    def __init__(self, time):
        super().__init__(f"solution lost finiteness at t={time:.6g}")
        self.time = time

    def __reduce__(self):  # pickle rebuilds from the constructor's arguments
        return type(self), (self.time,)


@dataclass(frozen=True)
class SimState:
    """Vorticity field plus clock and inversion exponent."""

    theta: ScalarField
    time: float = 0.0
    inversion_exponent: float = 1.0

    def __post_init__(self):
        if self.inversion_exponent < 1.0:
            raise ValueError("inversion exponent must be >= 1")

    @property
    def grid(self):
        return self.theta.grid


def _require_vorticity(theta):
    if not np.all(np.isfinite(theta.values)):
        raise InvalidFieldError("vorticity contains non-finite values")
    theta.require_zero_mean(what="vorticity")


def velocity_from_vorticity(theta, inversion_exponent=1.0):
    """Invert vorticity to the divergence-free velocity (-psi_y, psi_x).

    The stream function is the mode-wise product of the vorticity spectrum
    with -|k|^(-2 alpha); the zero mode is set to zero.  Rejects fields with
    nonzero mean or non-finite values.
    """
    if inversion_exponent < 1.0:
        raise ValueError("inversion exponent must be >= 1")
    _require_vorticity(theta)
    g = theta.grid
    psi_hat = -theta.spectrum * g.inv_k2_power(inversion_exponent)
    u_hat = -1j * g.ky * psi_hat
    v_hat = 1j * g.kx * psi_hat
    return VelocityField(
        ScalarField.from_spectrum(g, u_hat), ScalarField.from_spectrum(g, v_hat)
    )


class _AdvectionKernel:
    """Spectral RHS of theta_t = -(u . grad theta) and the RK4 stage buffers.

    Built once per ``run`` or ``step_rk4`` call for one grid and exponent.
    The multipliers fuse inversion, derivative and the 2/3 mask, so a stage
    starts from the undealiased spectrum.  At alpha = 1 theta = curl u and
    the advection term takes Basdevant's form u . grad w = dxdy(v^2 - u^2) +
    (dxx - dyy)(uv): two inverse transforms (u, v) and two forward ones.  At
    alpha != 1 it stays u . grad theta: four inverse transforms (u, v,
    theta_x, theta_y) and one forward.  The product is truncated to the 2/3
    band and its zero mode set to exactly zero.

    Dealiased spectra vanish beyond the columns ky <= n/3, so stage buffers
    hold those ``width`` columns only and the first-axis transforms skip the
    rest.  Transforms are numpy.fft calls writing into preallocated arrays,
    so no transform allocates a fresh output.

    In ``point_even`` mode the state is the real half-spectrum and physical
    buffers hold rows 0..n/2 in the mirrored frame (row r <-> x = -x_r).  An
    inverse is rfft down the band, times i/n (u, v, theta_x, theta_y are odd),
    then irfft along rows; a forward is rfft along rows, then irfft down the
    band (the hfft identity), its 1/n undone by the product multipliers.
    """

    def __init__(self, grid, inversion_exponent, point_even=False):
        n, m, h = grid.n, grid.n // 3 + 1, grid.n // 2 + 1
        kx, ky, keep = grid.kx, grid.ky[:, :m], grid.dealias[:, :m]
        inv = grid.inv_k2_power(inversion_exponent)[:, :m] * keep
        self.grid, self.n, self.width, self.point_even = grid, n, m, point_even
        self.mode, self.evaluations = ("point-even" if point_even else "general"), 0
        # spectra of odd fields are i * real when point-even, the i left to _inverse
        odd, fwd, dtype = (1.0, float(n), float) if point_even else (1j, 1.0, complex)
        # u = -psi_y, v = psi_x with psi_hat = -|k|^(-2 alpha) theta_hat
        self.to_u, self.to_v = odd * ky * inv, -odd * kx * inv
        self.basdevant = inversion_exponent == 1.0
        if self.basdevant:  # RHS = kx ky F(v^2 - u^2) + (kx^2 - ky^2) F(uv)
            self.products = (fwd * kx * ky * keep, fwd * (kx * kx - ky * ky) * keep)
        else:  # RHS = -F(u theta_x + v theta_y)
            self.products = (odd * kx * keep, odd * ky * keep, -fwd * keep)
        self.stage, self.k = np.empty((n, m), dtype), np.empty((n, m), dtype)
        rows = h if point_even else n
        self._spec_in = np.zeros((rows, h), complex)  # columns >= m stay 0
        self._spec_out = np.empty_like(self._spec_in)
        self._band = np.empty((n, m)) if point_even else None  # forward output
        self._u, self._v, self._scratch = (np.empty((rows, n)) for _ in range(3))

    def pack(self, spectrum):
        """RK4 state of an rfft2 spectrum: itself, or its real part if point-even."""
        return np.ascontiguousarray(spectrum.real) if self.point_even else spectrum

    def field(self, state_hat):
        """ScalarField of an RK4 state, the inverse of :meth:`pack`.

        Point-even values are symmetrized, since an irfft2 of a real spectrum
        is even only to rounding; the next kernel then sees exactly even data.
        """
        if not self.point_even:
            return ScalarField.from_spectrum(self.grid, state_hat)
        spectrum = state_hat + 0j
        v = np.fft.irfft2(spectrum, s=(self.n, self.n))
        return ScalarField(self.grid, 0.5 * (v + point_reflection(v)), spectrum)

    def _inverse(self, band, out):
        """Physical values of an (odd, if point-even) band spectrum."""
        half = self._spec_in[:, : self.width]
        if self.point_even:
            np.fft.rfft(band, axis=0, out=half)
            half *= 1j / self.n
        else:
            np.fft.ifft(band, axis=0, out=half)
        return np.fft.irfft(self._spec_in, self.n, axis=1, out=out)

    def _forward(self, values):
        """Band columns of rfft2(values) (over n if point-even) in a reused buffer."""
        np.fft.rfft(values, axis=1, out=self._spec_out)
        band = self._spec_out[:, : self.width]
        if self.point_even:
            return np.fft.irfft(band, self.n, axis=0, out=self._band)
        return np.fft.fft(band, axis=0, out=band)

    def rhs(self, theta_hat, out, with_speed=True):
        """Write the RHS band into ``out`` (n x width); return the max speed.

        ``theta_hat`` may be a full half-spectrum or a band; ``out`` is also
        the scratch for transform inputs, so it must not alias ``theta_hat``.
        Without ``with_speed`` the speed is not reduced and None is returned.
        """
        self.evaluations += 1
        band, scratch = theta_hat[:, : self.width], self._scratch
        u = self._inverse(np.multiply(band, self.to_u, out=out), self._u)
        v = self._inverse(np.multiply(band, self.to_v, out=out), self._v)
        speed = float(max(u.max(), -u.min(), v.max(), -v.min())) if with_speed else None
        with np.errstate(over="ignore", invalid="ignore"):
            # overflow here is the blow-up signal; the caller checks finiteness
            if self.basdevant:
                m_xy, m_diff = self.products
                np.multiply(u, v, out=scratch)
                u *= u
                v *= v
                v -= u
                np.multiply(self._forward(v), m_xy, out=out)
                uv_hat = self._forward(scratch)
                uv_hat *= m_diff
                out += uv_hat
            else:
                m_x, m_y, m_minus = self.products
                u *= self._inverse(np.multiply(band, m_x, out=out), scratch)
                v *= self._inverse(np.multiply(band, m_y, out=out), scratch)
                u += v
                np.multiply(self._forward(u), m_minus, out=out)
        out[0, 0] = 0.0
        return speed


def _kernel_for(state):
    """Kernel for the state's grid and exponent; point-even iff its values are."""
    v = state.theta.values
    even = np.array_equal(v, point_reflection(v))
    return _AdvectionKernel(state.grid, state.inversion_exponent, point_even=even)


def _rk4_spectrum(theta_hat, kernel, dt_for_speed):
    """One classical RK4 step; returns the new spectrum and the dt taken.

    dt is ``dt_for_speed`` of the max speed of theta_hat itself, read off the
    first stage, so a CFL bound holds for the state being advanced.
    """
    stage, k = kernel.stage, kernel.k
    out = theta_hat.copy()  # modes beyond the band have zero RHS
    band, acc = theta_hat[:, : kernel.width], out[:, : kernel.width]
    dt = dt_for_speed(kernel.rhs(theta_hat, k))  # k = k1
    for weight, shift in ((1.0, 0.5), (2.0, 0.5), (2.0, 1.0), (1.0, None)):
        acc += np.multiply(k, weight * dt / 6.0, out=stage)
        if shift is not None:
            np.multiply(k, shift * dt, out=stage)
            stage += band
            kernel.rhs(stage, k, with_speed=False)  # k2, k3, k4
    out[0, 0] = theta_hat[0, 0]  # mean preserved bit-for-bit
    return out, dt


def step_rk4(state, dt):
    """Advance one RK4 step of length dt; dt must respect the CFL limit.

    The admissible step is spacing / max speed of the induced velocity;
    violations raise :class:`CFLViolation` carrying the admissible dt, and
    non-finite results raise :class:`BlowUpError` stamped with the pre-step
    time.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    theta = state.theta
    _require_vorticity(theta)
    g = state.grid

    def checked_dt(speed):
        if speed > 0.0:
            admissible = g.spacing / speed
            if dt > admissible * (1.0 + 1e-9):
                raise CFLViolation(dt, admissible)
        return dt

    kernel = _kernel_for(state)
    new_hat, _ = _rk4_spectrum(kernel.pack(theta.spectrum), kernel, checked_dt)
    if not np.all(np.isfinite(new_hat)):
        raise BlowUpError(state.time)
    return replace(state, theta=kernel.field(new_hat), time=state.time + dt)


# --- diagnostics on fields -------------------------------------------------


def grad_sup_norm(f):
    """Sup over grid points of |grad f|, derivatives spectral."""
    if not np.all(np.isfinite(f.values)):
        raise InvalidFieldError("field contains non-finite values")
    fx, fy = f.gradient_arrays()
    return float(np.max(np.hypot(fx, fy)))


def hessian_sup_of_inverse_laplacian(f):
    """Largest |entry| of the Hessian of the inverse Laplacian of f."""
    f.require_zero_mean()
    g = f.grid
    psi_hat = -f.spectrum * g.inv_k2
    n = g.n
    hxx = np.fft.irfft2(-g.kx * g.kx * psi_hat, s=(n, n))
    hxy = np.fft.irfft2(-g.kx * g.ky * psi_hat, s=(n, n))
    hyy = np.fft.irfft2(-g.ky * g.ky * psi_hat, s=(n, n))
    return float(max(np.max(np.abs(hxx)), np.max(np.abs(hxy)), np.max(np.abs(hyy))))


def h2_seminorm(f):
    """L2 norm of the spectral Laplacian of f (the H^2 seminorm)."""
    f.require_zero_mean()
    g = f.grid
    lap = np.fft.irfft2(-g.k2 * f.spectrum, s=(g.n, g.n))
    return float(np.sqrt(np.sum(lap * lap) * g.cell_area))


def _spectral_weights(grid):
    """Multiplicities of the rfft2 half-spectrum under full-spectrum Parseval."""
    n = grid.n
    w = np.full((n, n // 2 + 1), 2.0)
    w[:, 0] = 1.0
    w[:, -1] = 1.0  # Nyquist column is self-conjugate for even n
    return w


@functools.lru_cache(maxsize=8)
def _energy_symbol(grid, inversion_exponent):
    """Parseval weights times |k|^(2 - 4 alpha), zero at k = 0; read-only."""
    sym = np.zeros_like(grid.k2)
    nz = grid.k2 > 0
    sym[nz] = grid.k2[nz] ** (1.0 - 2.0 * inversion_exponent)
    sym = _spectral_weights(grid) * sym
    sym.flags.writeable = False
    return sym


def kinetic_energy(theta, inversion_exponent=1.0):
    """Half the squared L2 norm of the induced velocity, summed spectrally."""
    g = theta.grid
    total = np.sum(_energy_symbol(g, inversion_exponent) * np.abs(theta.spectrum) ** 2)
    return float(0.5 * (2.0 * np.pi) ** 2 / g.n**4 * total)


def _cell_sum(state, integrand):
    return float(np.sum(integrand(state.theta.values)) * state.grid.cell_area)


def _fourth_power(tv):
    """tv**4 as the square of tv*tv, formed in one buffer."""
    out = tv * tv
    return np.multiply(out, out, out=out)


# one function per quantity, so each diagnostic key computes only its own
_CONSERVED = {
    "energy": lambda s: kinetic_energy(s.theta, s.inversion_exponent),
    "enstrophy": lambda s: _cell_sum(s, lambda tv: tv * tv),
    "l1": lambda s: _cell_sum(s, np.abs),
    "l2": lambda s: float(np.sqrt(_cell_sum(s, lambda tv: tv * tv))),
    "l4": lambda s: _cell_sum(s, _fourth_power) ** 0.25,
    "linf": lambda s: float(np.max(np.abs(s.theta.values))),
    "mean": lambda s: s.theta.mean,
}


def conserved_quantities(state):
    """Energy, enstrophy, L^p norms (p in {1, 2, 4, inf}) and mean of theta."""
    return {name: fn(state) for name, fn in _CONSERVED.items()}


DEFAULT_DIAGNOSTICS = {
    "grad_sup": lambda s: grad_sup_norm(s.theta),
    "energy": _CONSERVED["energy"],
    "enstrophy": _CONSERVED["enstrophy"],
}


def diagnostics_with_norms():
    """Default set plus the H^2 seminorm and the transported L^p norms."""
    diags = dict(DEFAULT_DIAGNOSTICS)
    diags["h2"] = lambda s: h2_seminorm(s.theta)
    for p in ("l1", "l2", "l4", "linf"):
        diags[p] = _CONSERVED[p]
    return diags


@dataclass
class RunResult:
    """Final state, sampled diagnostic series and optional velocity log.

    ``kernel`` is the stepping mode that ran (``none`` if nothing was
    stepped) and ``rhs_evals`` its count of RHS evaluations.
    """

    state: SimState
    series: dict
    steps: int = 0
    velocity_log: list = None
    kernel: str = "none"
    rhs_evals: int = 0

    def series_list(self):
        return [self.series[name] for name in sorted(self.series)]


def run(
    state,
    t_end,
    cfl=0.4,
    sample_every=None,
    diagnostics=None,
    log_velocity=False,
):
    """March to t_end with adaptive dt = cfl * spacing / max speed.

    Samples the requested diagnostics whenever the clock crosses a multiple of
    ``sample_every`` (endpoints always included); the step is snapped to land
    exactly on sample times so output grids are reproducible.  A run with
    t_end equal to the current time returns an empty series set and the
    unchanged state.
    """
    if not (0.0 < cfl <= 0.5):
        raise ValueError("cfl must lie in (0, 0.5]")
    if t_end < state.time - 1e-15:
        raise ValueError("t_end precedes current state time")
    diagnostics = dict(diagnostics or DEFAULT_DIAGNOSTICS)
    recorder = SeriesRecorder(list(diagnostics))
    if t_end <= state.time:
        return RunResult(state, recorder.to_series(), steps=0, velocity_log=[] if log_velocity else None)

    g = state.grid
    kernel = _kernel_for(state)
    if sample_every is None:
        sample_every = (t_end - state.time) / 50.0
    t0 = state.time
    vel_log = [] if log_velocity else None

    def sample(st):
        recorder.record(st.time, {name: fn(st) for name, fn in diagnostics.items()})
        if vel_log is not None:
            vel = velocity_from_vorticity(st.theta, st.inversion_exponent)
            vel_log.append((st.time, vel.u.values.copy(), vel.v.values.copy()))

    def dt_for_speed(speed):
        # reads the loop's current t and t_sample; t_sample <= t_end
        dt = cfl * g.spacing / speed if speed > 0.0 else (t_end - t)
        return min(dt, t_sample - t)

    sample(state)
    theta_hat = kernel.pack(state.theta.spectrum)
    t = t0
    steps = 0
    next_idx = 1
    while t < t_end - 1e-13:
        t_sample = min(t0 + next_idx * sample_every, t_end)
        theta_hat, dt = _rk4_spectrum(theta_hat, kernel, dt_for_speed)
        if not np.all(np.isfinite(theta_hat)):
            raise BlowUpError(t)
        t += dt
        steps += 1
        if t >= t_sample - 1e-13:
            sample(replace(state, theta=kernel.field(theta_hat), time=t))
            while t0 + next_idx * sample_every <= t + 1e-13:
                next_idx += 1
    final = replace(state, theta=kernel.field(theta_hat), time=t)
    return RunResult(
        final, recorder.to_series(), steps, vel_log, kernel.mode, kernel.evaluations
    )


# --- snapshot format --------------------------------------------------------

_HEADER = struct.Struct("<4sIQQdd")


def save_state(path, state):
    """Binary snapshot: magic VCRS, version, nx, ny, time, exponent, values."""
    g = state.grid
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                SNAPSHOT_MAGIC,
                SNAPSHOT_VERSION,
                g.n,
                g.n,
                state.time,
                state.inversion_exponent,
            )
        )
        fh.write(np.ascontiguousarray(state.theta.values, dtype="<f8").tobytes())


def load_state(path):
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(
                f"{path}: truncated snapshot: header needs {_HEADER.size} bytes, "
                f"file holds {len(header)}"
            )
        magic, version, nx, ny, time, alpha = _HEADER.unpack(header)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"{path}: unsupported snapshot version {version}")
        if nx != ny:
            raise ValueError(f"{path}: grid must be square, got {nx}x{ny}")
        need = 8 * nx * ny
        payload = fh.read()  # sized by the file, not by a possibly corrupt header
        if len(payload) < need:
            raise ValueError(
                f"{path}: truncated snapshot: header promises {need} bytes "
                f"of {nx}x{ny} values, file holds {len(payload)}"
            )
        data = np.frombuffer(payload, dtype="<f8", count=nx * ny).reshape(nx, ny)
    grid = Grid(int(nx))
    return SimState(
        ScalarField.from_values(grid, data.astype(float)),
        time=time,
        inversion_exponent=alpha,
    )

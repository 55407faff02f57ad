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
work.  The state comes out as a ``PointEvenField``: its samples are one
half-size inverse onto rows 0..n/2 of the mirrored frame, and its full values
are mirror copies of them, exactly even.  So chained ``step_rk4`` calls stay
point-even without a full-size transform, the parity error ``simulate``
checks reads exactly 0, and every diagnostic reduces over the half grid.

Each ``run`` or ``step_rk4`` call steps with one helper thread when the
process may use two CPUs and is not a ``multiprocessing`` worker (a pool
already fills the cores).  The RHS's independent transform chains run in
pairs, one on the helper while the caller runs the other, in disjoint
buffers and with unchanged arithmetic, so the bits do not depend on the
thread.  The helper is joined when the call returns or raises.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .fields import (
    Grid,
    InvalidFieldError,
    PointEvenField,
    ScalarField,
    VelocityField,
    is_point_even,
    point_even_inverse,
)
from .series import SeriesRecorder

SNAPSHOT_MAGIC = b"VCRS"
SNAPSHOT_VERSION = 1
CFL_CAP = 0.5  # the largest cfl ``run`` accepts, and its default


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


def _require_exponent(alpha):
    """A usable inversion exponent: finite and >= 1 (at inf only |k| = 1 moves)."""
    if not 1.0 <= alpha < math.inf:  # also NaN
        need = "finite" if alpha == math.inf else ">= 1"
        raise ValueError(f"inversion exponent must be {need}, got {alpha}")


@dataclass(frozen=True)
class SimState:
    """Vorticity field plus clock and inversion exponent."""

    theta: ScalarField
    time: float = 0.0
    inversion_exponent: float = 1.0

    def __post_init__(self):
        _require_exponent(self.inversion_exponent)

    @property
    def grid(self):
        return self.theta.grid


def _require_vorticity(theta):
    if not np.all(np.isfinite(theta.row_values)):
        raise InvalidFieldError("vorticity contains non-finite values")
    theta.require_zero_mean(what="vorticity")


def velocity_from_vorticity(theta, inversion_exponent=1.0):
    """Invert vorticity to the divergence-free velocity (-psi_y, psi_x).

    The stream function is the mode-wise product of the vorticity spectrum
    with -|k|^(-2 alpha); the zero mode is set to zero.  Rejects fields with
    nonzero mean or non-finite values.
    """
    _require_exponent(inversion_exponent)
    _require_vorticity(theta)
    g = theta.grid
    psi_hat = -theta.spectrum * g.inv_k2_power(inversion_exponent)
    u_hat = -1j * g.ky * psi_hat
    v_hat = 1j * g.kx * psi_hat
    return VelocityField(
        ScalarField.from_spectrum(g, u_hat), ScalarField.from_spectrum(g, v_hat)
    )


HELPER_MIN_N = 256  # at n = 128 the hand-overs cost more than the overlap saves


def _helper_allowed(n):
    """Whether a stepping call on an n x n grid may start a helper thread.

    It needs two CPUs this process may run on, and it is not started in a
    ``multiprocessing`` worker, whose pool already gives each core one run.
    On a 2-core host, two pooled n = 256 sweep members with a helper each
    took 2.21 s against 1.86 s without (medians, 8 of 10 alternating pairs
    slower): :class:`_Helper`'s fallback does not win back a core that a
    sibling worker holds.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return n >= HELPER_MIN_N and cpus >= 2 and multiprocessing.parent_process() is None


def _under_errstate(job, errors):
    """Run ``job`` under numpy error state ``errors``, which does not follow into a thread."""
    with np.errstate(**errors):
        job()


class _Helper(ThreadPoolExecutor):
    """One thread that runs the first job of each pair while the caller runs the second.

    If the thread has not started the first job by the time the caller's
    job ends, say because another process holds the second CPU, the caller
    cancels it and runs it too, so a pair never waits for a thread that has
    not been scheduled.
    """

    def __init__(self):
        super().__init__(max_workers=1, thread_name_prefix="vcross-helper")

    def pair(self, first, second):
        """Run both jobs; return once both have ended, raising what either raised."""
        future = self.submit(_under_errstate, first, np.geterr())
        try:
            second()
        except BaseException:
            if not future.cancel():  # wait until the job is done with its buffers;
                future.exception()  # its own error, if any, gives way to the caller's
            raise
        if future.cancel():
            first()
        else:
            future.result()


class _AdvectionKernel:
    """Spectral RHS of theta_t = -(u . grad theta) and the RK4 stage buffers.

    Built once per ``run`` or ``step_rk4`` call for one grid and exponent,
    and entered as a context manager for that call: entering starts the
    helper thread if :func:`_helper_allowed`, leaving joins it.  The
    multipliers fuse inversion, derivative and the 2/3 mask, so a stage
    starts from the undealiased spectrum.  At alpha = 1 theta = curl u and
    the advection term takes Basdevant's form u . grad w = dxdy(v^2 - u^2) +
    (dxx - dyy)(uv): two inverse transforms (u, v) and two forward ones.  At
    alpha != 1 it stays u . grad theta: four inverse transforms (u, v,
    theta_x, theta_y) and one forward.  The product is truncated to the 2/3
    band and its zero mode set to exactly zero.

    Independent chains run in pairs (u and v; the two forwards; u and
    theta_x, then v and theta_y), each in its own lane: a spectral buffer and
    a band buffer, the first lane's band being the RHS output itself.  With a
    helper thread the second lane's job is handed to it.  Dealiased spectra
    vanish beyond the columns ky <= n/3, so band buffers hold those
    ``width`` columns only, the first-axis transforms skip the rest and the
    row inverses read them as zeros written into the spectral buffer.
    Transforms are numpy.fft calls writing into preallocated arrays, so no
    transform allocates a fresh output.

    In ``point_even`` mode the state is the real half-spectrum and physical
    buffers hold rows 0..n/2 in the mirrored frame (row r <-> x = -x_r).  An
    inverse is ``point_even_inverse`` of the band: rfft down it, times i/n
    (u, v, theta_x, theta_y are odd), then irfft along rows.  A forward is
    rfft along rows, then irfft down the band (the hfft identity), its 1/n
    undone by the product multipliers.  Between steps the fields it hands
    out borrow its buffers for their samples, until the call ends.
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
        self._spec = (np.empty((rows, h), complex), np.empty((rows, h), complex))
        # the second lane's band: a buffer of its own, or its spectrum's head
        self._band = np.empty((n, m)) if point_even else self._spec[1][:, :m]
        self._u, self._v, self._scratch = (np.empty((rows, n)) for _ in range(3))
        # (work, spectrum, f_x, f_y) scratch of the point-even fields' samples
        self._lent = []
        if point_even:
            self._lent = [self._spec[0], self._scratch.reshape(n, h), self._u, self._v]
        self._helper = None

    def __enter__(self):
        if _helper_allowed(self.n):
            self._helper = _Helper()
        return self

    def __exit__(self, *exc_info):
        helper, self._helper = self._helper, None
        if helper is not None:
            helper.shutdown()
        self._lent.clear()

    def pack(self, spectrum):
        """RK4 state of an rfft2 spectrum: itself, or its real part if point-even."""
        return np.ascontiguousarray(spectrum.real) if self.point_even else spectrum

    def field(self, state_hat):
        """ScalarField of an RK4 state, the inverse of :meth:`pack`.

        A point-even state becomes a :class:`PointEvenField` with no transform:
        its values are mirror-assembled from the half grid when first read,
        exactly even, so the next kernel sees point-even data.
        """
        if not self.point_even:
            return ScalarField.from_spectrum(self.grid, state_hat)
        field = PointEvenField(self.grid, state_hat)
        field.lent = self._lent
        return field

    def _inverse(self, band, spec, out):
        """Physical values of an (odd, if point-even) band spectrum, via ``spec``."""
        if self.point_even:
            return point_even_inverse(band, 1j / self.n, spec, out)
        np.fft.ifft(band, axis=0, out=spec[:, : self.width])
        spec[:, self.width :] = 0.0  # a forward or a sample may have filled it
        return np.fft.irfft(spec, self.n, axis=1, out=out)

    def _forward(self, values, spec, out):
        """Band columns of rfft2(values) (over n if point-even) into ``out``, via ``spec``."""
        np.fft.rfft(values, axis=1, out=spec)
        head = spec[:, : self.width]
        if self.point_even:
            return np.fft.irfft(head, self.n, axis=0, out=out)
        return np.fft.fft(head, axis=0, out=out)

    def _pair(self, first, second):
        """Run two independent jobs: the first on the helper, if there is one."""
        if self._helper is None:
            first()
            second()
        else:
            self._helper.pair(first, second)

    def rhs(self, theta_hat, out, with_speed=True):
        """Write the RHS band into ``out`` (n x width); return the max speed.

        ``theta_hat`` may be a full half-spectrum or a band; ``out`` is also
        the first lane's band, so it must not alias ``theta_hat``.  Without
        ``with_speed`` the speed is not reduced and None is returned.
        """
        self.evaluations += 1
        band, u, v, scratch = theta_hat[:, : self.width], self._u, self._v, self._scratch
        lanes = ((out, self._spec[0]), (self._band, self._spec[1]))

        def inverse(lane, multiplier, values):
            into, spec = lanes[lane]
            return lambda: self._inverse(np.multiply(band, multiplier, out=into), spec, values)

        def forward(lane, values, multiplier):
            into, spec = lanes[lane]
            return lambda: np.multiply(self._forward(values, spec, into), multiplier, out=into)

        def extent(w):
            return float(max(w.max(), -w.min()))

        with np.errstate(over="ignore", invalid="ignore"):
            # overflow here is the blow-up signal; the caller checks finiteness
            if self.basdevant:
                m_xy, m_diff = self.products
                self._pair(inverse(1, self.to_v, v), inverse(0, self.to_u, u))
                speed = max(extent(u), extent(v)) if with_speed else None
                np.multiply(u, v, out=scratch)
                u *= u
                v *= v
                v -= u
                self._pair(forward(1, v, m_xy), forward(0, scratch, m_diff))
                out += self._band  # kx ky F(v^2 - u^2) was the second lane's
            else:  # u theta_x, then v theta_y: three physical buffers hold all four
                m_x, m_y, m_minus = self.products
                self._pair(inverse(1, m_x, scratch), inverse(0, self.to_u, u))
                speed = extent(u) if with_speed else None
                u *= scratch
                self._pair(inverse(1, m_y, scratch), inverse(0, self.to_v, v))
                speed = max(speed, extent(v)) if with_speed else None
                v *= scratch
                u += v
                forward(0, u, m_minus)()
        out[0, 0] = 0.0
        return speed


def _kernel_for(state):
    """Kernel for the state's grid and exponent; point-even iff its values are.

    A field a point-even kernel built carries that form; only other fields
    are tested value by value.
    """
    theta = state.theta
    even = isinstance(theta, PointEvenField) or is_point_even(theta.values)
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

    with _kernel_for(state) as kernel:
        new_hat, _ = _rk4_spectrum(kernel.pack(theta.spectrum), kernel, checked_dt)
    if not np.all(np.isfinite(new_hat)):
        raise BlowUpError(state.time)
    return replace(state, theta=kernel.field(new_hat), time=state.time + dt)


# --- diagnostics on fields -------------------------------------------------


def grad_sup_norm(f):
    """Sup over grid points of |grad f|, derivatives spectral.

    On a point-even field |grad f| is even too, so its sup over the half grid
    is the full sup.
    """
    if not np.all(np.isfinite(f.row_values)):
        raise InvalidFieldError("field contains non-finite values")
    fx, fy = f.gradient_arrays()
    fx *= fx
    fy *= fy
    fx += fy
    return float(np.sqrt(np.max(fx)))


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
    """L2 norm of the spectral Laplacian of f (the H^2 seminorm), by Parseval."""
    f.require_zero_mean()
    return math.sqrt(_parseval_sum(f, 2.0))


def _spectral_weights(grid):
    """Multiplicities of the rfft2 half-spectrum under full-spectrum Parseval."""
    n = grid.n
    w = np.full((n, n // 2 + 1), 2.0)
    w[:, 0] = 1.0
    w[:, -1] = 1.0  # Nyquist column is self-conjugate for even n
    return w


@functools.lru_cache(maxsize=8)
def _parseval_symbol(grid, power):
    """Parseval weights times |k|^(2 power), zero at k = 0; read-only."""
    sym = np.zeros_like(grid.k2)
    nz = grid.k2 > 0
    sym[nz] = grid.k2[nz] ** power
    sym = _spectral_weights(grid) * sym
    sym.flags.writeable = False
    return sym


def _parseval_sum(f, power):
    """Cell-area sum over the grid of |(-Laplacian)^(power / 2) f|^2, from the spectrum."""
    g = f.grid
    total = np.sum(_parseval_symbol(g, power) * f.spectral_power())
    return float((2.0 * np.pi) ** 2 / g.n**4 * total)


def kinetic_energy(theta, inversion_exponent=1.0):
    """Half the squared L2 norm of the induced velocity, summed spectrally."""
    return 0.5 * _parseval_sum(theta, 1.0 - 2.0 * inversion_exponent)


def _cell_sum(state, integrand):
    theta = state.theta
    return float(theta.row_sum(integrand(theta.row_values)) * state.grid.cell_area)


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
    "linf": lambda s: s.theta.linf_norm(),
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
    """Final state and sampled diagnostic series.

    ``kernel`` is the stepping mode that ran (``none`` if nothing was
    stepped) and ``rhs_evals`` its count of RHS evaluations.
    """

    state: SimState
    series: dict
    steps: int = 0
    kernel: str = "none"
    rhs_evals: int = 0

    def series_list(self):
        return [self.series[name] for name in sorted(self.series)]


def run(
    state,
    t_end,
    cfl=CFL_CAP,
    sample_every=None,
    diagnostics=None,
):
    """March to t_end with adaptive dt = cfl * spacing / max speed.

    Samples the requested diagnostics whenever the clock crosses a multiple of
    ``sample_every`` (endpoints always included); the step is snapped to land
    exactly on sample times so output grids are reproducible.  A run with
    t_end equal to the current time returns an empty series set and the
    unchanged state.
    """
    if not (0.0 < cfl <= CFL_CAP):
        raise ValueError(f"cfl must lie in (0, {CFL_CAP}]")
    if not np.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end < state.time - 1e-15:
        raise ValueError("t_end precedes current state time")
    diagnostics = dict(diagnostics or DEFAULT_DIAGNOSTICS)
    recorder = SeriesRecorder(list(diagnostics))
    if t_end <= state.time:
        return RunResult(state, recorder.to_series())

    if sample_every is None:
        sample_every = (t_end - state.time) / 50.0
    if not sample_every > 0.0:  # also NaN: the sample clock would never advance
        raise ValueError(f"sample_every must be positive, got {sample_every}")
    g = state.grid
    t0 = state.time

    def sample(st):
        recorder.record(st.time, {name: fn(st) for name, fn in diagnostics.items()})

    def dt_for_speed(speed):
        # reads the loop's current t and t_sample; t_sample <= t_end
        dt = cfl * g.spacing / speed if speed > 0.0 else (t_end - t)
        return min(dt, t_sample - t)

    sample(state)
    theta = state.theta
    t = t0
    steps = 0
    next_idx = 1
    with _kernel_for(state) as kernel:
        theta_hat = kernel.pack(theta.spectrum)
        while t < t_end - 1e-13:
            t_sample = min(t0 + next_idx * sample_every, t_end)
            theta_hat, dt = _rk4_spectrum(theta_hat, kernel, dt_for_speed)
            if not np.all(np.isfinite(theta_hat)):
                raise BlowUpError(t)
            t += dt
            steps += 1
            if t >= t_sample - 1e-13:
                theta = kernel.field(theta_hat)
                sample(replace(state, theta=theta, time=t))
                while t0 + next_idx * sample_every <= t + 1e-13:
                    next_idx += 1
    final = replace(state, theta=theta, time=t)  # the last step lands on t_end, a sample
    return RunResult(final, recorder.to_series(), steps, kernel.mode, kernel.evaluations)


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
        fh.write(np.ascontiguousarray(state.theta.values, dtype="<f8"))


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

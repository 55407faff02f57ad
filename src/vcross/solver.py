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
are mirror copies of them, exactly even.  So chained ``run`` calls stay
point-even without a full-size transform, the parity error ``simulate``
checks reads exactly 0, and every diagnostic reduces over the half grid.

``march``, the stepping generator that ``run`` consumes, is the one code that
advances a state.  It steps with one helper thread when the process may use
two CPUs and is not a ``multiprocessing`` worker (a pool already fills the
cores).  The RHS's independent transform chains run in pairs of lanes, one on
the helper while the caller runs the other, in disjoint buffers and with
unchanged arithmetic, so the bits do not depend on the thread.  Each lane
also forms its own RK4 stage band, and the caller's lane adds to the RK4 sum,
so between pairs the caller makes only the products and the final sum.  The
idle helper, and the caller waiting for the helper's job to end, poll for
``HANDOFF_POLL_S`` and only then sleep on a condition.  The helper is joined
when the generator ends, raises or is closed.
"""

from __future__ import annotations

import functools
import math
import os
import struct
import sys
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from .fields import (
    Grid,
    InvalidFieldError,
    PointEvenField,
    ScalarField,
    VelocityField,
    dealias_mask,
    inverse_k2_power,
    is_point_even,
    point_even_inverse,
)
from .series import DiagnosticSeries

SNAPSHOT_MAGIC = b"VCRS"
SNAPSHOT_VERSION = 1
CFL_CAP = 0.5  # the largest cfl ``run`` accepts, and its default


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


def require_vorticity(theta):
    """Refuse a field that cannot be a vorticity: non-finite values or a nonzero mean."""
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
    require_vorticity(theta)
    g = theta.grid
    psi_hat = -theta.spectrum * inverse_k2_power(g.k2, inversion_exponent)
    u_hat = -1j * g.ky * psi_hat
    v_hat = 1j * g.kx * psi_hat
    return VelocityField(
        ScalarField.from_spectrum(g, u_hat), ScalarField.from_spectrum(g, v_hat)
    )


HELPER_MIN_N = 256  # at n = 128 the hand-overs cost more than the overlap saves
# How long the helper polls for a job, and the caller for the helper's job to
# end, before either sleeps on a condition.  In c07 growth runs the gaps
# between pairs had a 95th percentile of 0.31 ms at n = 256 and 0.94 ms at
# n = 512; the longer ones, 2.3-9.7 ms, hold a sample, which outlasts a wake.
HANDOFF_POLL_S = 2e-3


def usable_cpus():
    """CPUs this process may run on: its affinity mask, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _helper_allowed(n):
    """Whether a march on an n x n grid may start a helper thread.

    It needs two CPUs this process may run on, and it is not started in a
    ``multiprocessing`` worker, whose pool already gives each core one run
    (a worker has always imported ``multiprocessing``; this module does not).
    On a 2-core host, two pooled n = 256 sweep members with a helper each
    took 2.21 s against 1.86 s without (medians, 8 of 10 alternating pairs
    slower): :class:`_Helper`'s fallback does not win back a core that a
    sibling worker holds.
    """
    mp = sys.modules.get("multiprocessing")
    return n >= HELPER_MIN_N and usable_cpus() >= 2 and (mp is None or mp.parent_process() is None)


def _poll(ready):
    """Whether ``ready()`` came true within HANDOFF_POLL_S.

    Between polls a zero sleep releases the GIL and the CPU until the
    kernel's timer slack has passed (about 57 us on Linux), so a polling
    thread spends about an eighth of a CPU; ``os.sched_yield`` polled
    sooner but spent more CPU than the thread-pool hand-off it replaced.
    """
    deadline = time.perf_counter() + HANDOFF_POLL_S
    while not ready():
        if time.perf_counter() > deadline:
            return False
        time.sleep(0)
    return True


_STOP = object()  # posted in place of a job, it ends the helper thread


class _Helper:
    """One thread that runs the first job of each pair while the caller runs the second.

    The caller posts the first job and runs the second.  The helper claims a
    posted job under a lock, so each job runs once; if the helper has not
    claimed it by the time the caller's job ends, say because another
    process holds the second CPU, the caller takes it back and runs it too,
    so a pair never waits for a thread that has not been scheduled.  Both
    waits, the idle helper's for a job and the caller's for a claimed job to
    end, poll for HANDOFF_POLL_S and then sleep on a condition, so the
    helper sleeps through samples but not between the pairs of a step.  The
    job runs under the caller's numpy error state, and what it raises is
    raised in the caller.  Leaving the context joins the thread.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._posted = threading.Condition(self._lock)  # a job, or _STOP, was posted
        self._ended = threading.Condition(self._lock)  # the claimed job ended
        self._job = None  # (job, errstate) posted and not claimed, or _STOP
        self._busy = False  # the helper runs a job it claimed
        self._error = None  # what that job raised
        self._thread = threading.Thread(target=self._serve, name="vcross-helper", daemon=True)
        self._thread.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        """End and join the thread; no pair may be running."""
        with self._lock:
            self._job = _STOP
            self._posted.notify()
        self._thread.join()

    def _has_job(self):
        return self._job is not None

    def _idle(self):
        return not self._busy

    def _serve(self):
        while True:
            if not _poll(self._has_job):
                with self._lock:
                    self._posted.wait_for(self._has_job)
            with self._lock:
                job, self._job = self._job, None  # None: the caller took it back
                if job is _STOP:
                    return
                self._busy = job is not None
            if job is not None:
                try:
                    with np.errstate(**job[1]):
                        job[0]()
                except BaseException as exc:  # raised in the caller
                    self._error = exc
                with self._lock:  # drop the job now: its closure can keep a replaced state alive
                    job, self._busy = None, False
                    self._ended.notify()

    def pair(self, first, second):
        """Run both jobs; return once both have ended, raising what either raised."""
        with self._lock:
            self._job = (first, np.geterr())
            self._posted.notify()
        try:
            second()
        finally:  # wait until a claimed job is done with its buffers
            with self._lock:
                unclaimed, self._job = self._job, None
            if unclaimed is None and not _poll(self._idle):
                with self._lock:
                    self._ended.wait_for(self._idle)
            error, self._error = self._error, None  # gives way to the caller's own
        if error is not None:
            raise error
        if unclaimed is not None:
            first()


# values in a row block of the Basdevant products (256 KiB).  On a 2-core Xeon,
# over 512 x 512 values they took 0.63 ms in 64-row blocks and 0.76 ms through
# a third buffer; over 129 x 256, 0.06 ms against 0.04
_BLOCK_ELEMENTS = 1 << 15


def _head(buffer, shape, dtype):
    """A C-ordered ``shape`` array of ``dtype`` over the start of ``buffer``'s memory."""
    return buffer.reshape(-1).view(dtype)[: shape[0] * shape[1]].reshape(shape)


class _KeptRows:
    """A 2/3-band multiplier held by its unmasked rows: ``top`` kx = 0..n/3, ``bottom`` -n/3..-1.

    The masked slab n/3 < |kx| is not stored.  Either part may be a column or a row
    that broadcasts over the band.  A symbol even or ``odd`` in kx holds ``top``
    alone and reads ``bottom`` as ``top`` reversed; an odd symbol's bottom
    products are then negated in place, the bits of a product with the negated
    rows, since x (-m) = -(x m) exactly.
    """

    def __init__(self, top, bottom=None, odd=False):
        self.top, self.bottom = top, (top[:0:-1] if bottom is None else bottom)
        self.odd = odd

    def apply(self, source, out):
        """``out`` = ``source`` times the n x width symbol; zero in the masked slab."""
        c = len(out) // 3
        np.multiply(source[: c + 1], self.top, out=out[: c + 1])
        out[c + 1 : -c] = 0.0
        bottom = np.multiply(source[-c:], self.bottom, out=out[-c:])
        if self.odd:
            np.negative(bottom, out=bottom)


class _AdvectionKernel:
    """Spectral RHS of theta_t = -(u . grad theta), evaluated at the RK4 stages.

    Built once per ``march`` for one grid and exponent, and entered as a
    context manager for that march: entering starts the helper thread if
    :func:`_helper_allowed`, leaving joins it.  The multipliers fuse
    inversion, derivative and the 2/3 mask, so a stage starts from the
    undealiased spectrum; each holds only its kept rows, and
    a symbol even or odd in kx only its rows kx >= 0 (:class:`_KeptRows`):
    0.89 MiB at n = 512 and alpha = 1 in place of 2.67 for full band arrays.
    At alpha = 1 theta = curl u and the advection term takes Basdevant's form
    u . grad w = dxdy(v^2 - u^2) + (dxx - dyy)(uv): two inverse transforms
    (u, v) and two forward ones, with the products formed in u and v
    themselves, a row block at a time, so two physical buffers serve.  At
    alpha != 1 it stays u . grad theta: four inverse transforms (u, v,
    theta_x, theta_y) and one forward, through a third physical buffer.  The
    product is truncated to the 2/3 band and its zero mode set to exactly zero.

    Independent chains run in pairs (u and v; the two forwards; u and
    theta_x, then v and theta_y), each in its own lane with its own spectral
    buffer; with a helper thread the second lane's job is handed to it.
    Dealiased spectra vanish beyond the columns ky <= n/3, so bands hold
    those ``width`` columns only, the first-axis transforms skip the rest and
    the row inverses read them as zeros written into the spectral buffer.
    A lane writes the band an inverse reads, stage times multiplier, into the
    head of the physical buffer that the inverse then fills.  The first
    lane's forward writes the RHS output itself, the second lane's the head
    of v, which it has just transformed, so no band needs a buffer of its
    own.  At an RK4 stage each lane forms the stage band theta + c k itself,
    in its stage place: the head of its inverse's buffer at alpha = 1; at
    alpha != 1, where it is kept for both inverses, the head of v for the
    first lane and ``_held`` for the second.  The first lane also adds w k
    to the RK4 sum before the forwards overwrite k.  The caller makes the
    products between the pairs and the final sum.  Transforms are numpy.fft
    calls writing into preallocated arrays, so no transform allocates a
    fresh output.

    In ``point_even`` mode the state is the real half-spectrum and physical
    buffers hold rows 0..n/2 in the mirrored frame (row r <-> x = -x_r).  An
    inverse is ``point_even_inverse`` of the band: rfft down it, times i/n
    (u, v, theta_x, theta_y are odd), then irfft along rows.  A forward is
    rfft along rows, then irfft down the band (the hfft identity), its 1/n
    undone by the product multipliers.  Between steps the fields it hands
    out borrow its buffers for their samples, until the march ends: their
    rows go into the head of the second lane's complex work buffer, and at
    alpha != 1 a gradient's derivative spectrum into the third physical
    buffer (at alpha = 1 a fresh array; a sample holds one state fewer than
    a step, so the peak does not rise).
    """

    def __init__(self, grid, inversion_exponent, point_even=False):
        n, m, h, c = grid.n, grid.n // 3 + 1, grid.n // 2 + 1, grid.n // 3
        # the band's kept rows |kx| <= n/3, where the mask keeps every column
        kx, ky = np.concatenate((grid.kx[: c + 1], grid.kx[-c:])), grid.ky[:, :m]
        keep = dealias_mask(kx, ky, n)
        inv = inverse_k2_power(kx**2 + ky**2, inversion_exponent) * keep
        self.grid, self.n, self.width, self.point_even = grid, n, m, point_even
        self.mode, self.evaluations = ("point-even" if point_even else "general"), 0
        # spectra of odd fields are i * real when point-even, the i left to _inverse
        odd, fwd, dtype = (1.0, float(n), float) if point_even else (1j, 1.0, complex)

        def kept(symbol):  # over the kept rows, or a column of them
            return _KeptRows(symbol[: c + 1], symbol[c + 1 :])

        def half(symbol, odd_in_kx=False):  # even or odd in kx: the rows kx >= 0 alone
            return _KeptRows(np.array(symbol[: c + 1]), odd=odd_in_kx)

        # u = -psi_y, v = psi_x with psi_hat = -|k|^(-2 alpha) theta_hat
        self.to_u, self.to_v = half(odd * ky * inv), half(-odd * kx * inv, odd_in_kx=True)
        self.basdevant = inversion_exponent == 1.0
        if self.basdevant:  # RHS = kx ky F(v^2 - u^2) + (kx^2 - ky^2) F(uv)
            self.products = (
                half(fwd * kx * ky * keep, odd_in_kx=True), half(fwd * (kx * kx - ky * ky) * keep)
            )
        else:  # RHS = -F(u theta_x + v theta_y); one wavenumber each, so vectors
            column, row = keep[:, :1], odd * ky * keep[:1]
            self.products = (kept(odd * kx * column), _KeptRows(row, row), kept(-fwd * column))
        self.k = np.empty((n, m), dtype)
        rows = h if point_even else n
        self._spec = (np.empty((rows, h), complex), np.empty((rows, h), complex))
        self._u, self._v = np.empty((rows, n)), np.empty((rows, n))
        # theta_x, then theta_y at alpha != 1; at alpha = 1 the products form in u and v
        self._scratch = None if self.basdevant else np.empty((rows, n))
        # the bands over the heads of the physical buffers
        physical = (self._u, self._v) if self.basdevant else (self._u, self._v, self._scratch)
        self._heads = tuple(_head(b, (n, m), dtype) for b in physical)
        u_head, v_head = self._heads[:2]
        self._held = (u_head, v_head) if self.basdevant else (v_head, np.empty((n, m), dtype))
        # the Basdevant products' row block, over the first lane's complex work
        # buffer, which is free between the pairs
        block = min(rows, max(1, _BLOCK_ELEMENTS // n))
        self._block = _head(self._spec[0], (block, n), float) if self.basdevant else None
        # (work, spectrum, f_x, f_y, rows) scratch of the point-even fields'
        # samples; the second lane's complex work buffer is free during samples.
        # At alpha = 1 no third physical buffer is there to lend for the spectrum.
        self._lent = []
        if point_even:
            spectrum = None if self.basdevant else self._scratch.reshape(n, h)
            rows = _head(self._spec[1], (h, n), float)
            self._lent = [self._spec[0], spectrum, self._u, self._v, rows]
        self._helper = None

    def __enter__(self):
        if _helper_allowed(self.n):
            self._helper = _Helper()
        return self

    def __exit__(self, *exc_info):
        helper, self._helper = self._helper, None
        if helper is not None:
            helper.close()
        self._lent.clear()

    def pack(self, spectrum):
        """RK4 state of an rfft2 spectrum: itself, or its real part if point-even."""
        return np.ascontiguousarray(spectrum.real) if self.point_even else spectrum

    def start(self, theta):
        """RK4 state of the field ``theta``, which stepping reads but never writes.

        A point-even kernel steps a :class:`PointEvenField` from the real
        half-spectrum it holds, with no copy.
        """
        held = self.point_even and isinstance(theta, PointEvenField)
        return self.pack(theta.real_spectrum if held else theta.spectrum)

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

    def _basdevant_products(self, u, v):
        """u, v -> uv, v^2 - u^2 in place, one row block at a time through ``_block``.

        Each value takes the operations of whole-array products, so the bits
        depend neither on the block nor on where uv is held.
        """
        step = len(self._block)
        for lo in range(0, len(u), step):
            bu, bv = u[lo : lo + step], v[lo : lo + step]
            t = np.multiply(bu, bv, out=self._block[: len(bu)])
            bu *= bu
            bv *= bv
            bv -= bu
            bu[...] = t

    def rhs(self, theta_hat, out, stage=None):
        """Write the RHS band into ``out`` (n x width); return the max speed.

        ``theta_hat`` may be a full half-spectrum or a band; ``out`` must not
        alias it.  With ``stage = (c, acc, w)`` the RHS is taken at the RK4
        stage theta_hat + c * out, ``out`` holding the previous stage's RHS
        on entry, and ``acc += w * out`` is added first; the speed is then
        not reduced and None is returned.
        """
        self.evaluations += 1
        band, u, v = theta_hat[:, : self.width], self._u, self._v
        u_head, v_head = self._heads[:2]
        speeds = [None, None]  # the extents of u and v

        def form(lane):  # this lane's stage band, in its stage place
            held = self._held[lane]
            c, acc, w = stage
            if lane == 0:
                acc += np.multiply(out, w, out=held)
            np.multiply(out, c, out=held)
            held += band

        def inverse(lane, multiplier, values, head, forms, slot=None):
            def job():  # ``forms``: the lane's first inverse of this RHS
                if stage is not None and forms:
                    form(lane)
                multiplier.apply(band if stage is None else self._held[lane], head)
                self._inverse(head, self._spec[lane], values)
                if stage is None and slot is not None:
                    speeds[slot] = float(max(values.max(), -values.min()))

            return job

        def forward(lane, values, multiplier, into):
            def job():
                multiplier.apply(self._forward(values, self._spec[lane], into), into)

            return job

        with np.errstate(over="ignore", invalid="ignore"):
            # overflow here is the blow-up signal; the caller checks finiteness
            if self.basdevant:
                m_xy, m_diff = self.products
                self._pair(
                    inverse(1, self.to_v, v, v_head, True, 1),
                    inverse(0, self.to_u, u, u_head, True, 0),
                )
                self._basdevant_products(u, v)
                self._pair(forward(1, v, m_xy, v_head), forward(0, u, m_diff, out))
                out += v_head  # kx ky F(v^2 - u^2) was the second lane's
            else:  # u theta_x, then v theta_y: three physical buffers hold all four
                m_x, m_y, m_minus = self.products
                scratch, scratch_head = self._scratch, self._heads[2]
                self._pair(
                    inverse(1, m_x, scratch, scratch_head, True),
                    inverse(0, self.to_u, u, u_head, True, 0),
                )
                u *= scratch
                self._pair(
                    inverse(1, m_y, scratch, scratch_head, False),
                    inverse(0, self.to_v, v, v_head, False, 1),
                )
                v *= scratch
                u += v
                forward(0, u, m_minus, out)()
        out[0, 0] = 0.0
        return max(speeds[0], speeds[1]) if stage is None else None


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
    k = kernel.k
    out = theta_hat.copy()  # modes beyond the band have zero RHS
    acc = out[:, : kernel.width]
    dt = dt_for_speed(kernel.rhs(theta_hat, k))  # k = k1
    for weight, shift in ((1.0, 0.5), (2.0, 0.5), (2.0, 1.0)):  # k2, k3, k4
        kernel.rhs(theta_hat, k, stage=(shift * dt, acc, weight * dt / 6.0))
    acc += np.multiply(k, dt / 6.0, out=kernel._held[0])  # a stage place is free between RHSs
    out[0, 0] = theta_hat[0, 0]  # mean preserved bit-for-bit
    return out, dt


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
    """Largest |entry| of the Hessian of the inverse Laplacian of f, one entry alive at a time."""
    f.require_zero_mean()
    g = f.grid
    psi_hat = -f.spectrum * inverse_k2_power(g.k2, 1.0)
    spectra = (-a * b * psi_hat for a, b in ((g.kx, g.kx), (g.kx, g.ky), (g.ky, g.ky)))
    return float(max(np.max(np.abs(np.fft.irfft2(h, s=(g.n, g.n)))) for h in spectra))


def h2_seminorm(f):
    """L2 norm of the spectral Laplacian of f (the H^2 seminorm), by Parseval."""
    f.require_zero_mean()
    return math.sqrt(_parseval_sum(f, 2.0))


def _spectral_weights(grid):
    """Multiplicities of the rfft2 half-spectrum's columns under full-spectrum Parseval, a row."""
    w = np.full((1, grid.n // 2 + 1), 2.0)
    w[:, [0, -1]] = 1.0  # the zero and, for even n, the Nyquist column are self-conjugate
    return w


@functools.lru_cache(maxsize=8)
def _parseval_symbol(grid, power):
    """Parseval weights times |k|^(2 power), zero at k = 0, on rows kx = 0..n/2; read-only.

    The symbol is even in kx, so row n - r of the half-spectrum is row r here.
    """
    kx = grid.kx[: grid.n // 2 + 1]
    sym = _spectral_weights(grid) * inverse_k2_power(kx**2 + grid.ky**2, -power)
    sym.flags.writeable = False
    return sym


def _parseval_sum(f, power):
    """Cell-area sum over the grid of |(-Laplacian)^(power / 2) f|^2, from the spectrum."""
    g, sym = f.grid, _parseval_symbol(f.grid, power)
    p = f.spectral_power()  # the one temporary
    p[: len(sym)] *= sym
    p[len(sym) :] *= sym[-2:0:-1]  # rows kx = -(n/2 - 1)..-1
    return float((2.0 * np.pi) ** 2 / g.n**4 * np.sum(p))


def kinetic_energy(theta, inversion_exponent=1.0):
    """Half the squared L2 norm of the induced velocity, summed spectrally."""
    return 0.5 * _parseval_sum(theta, 1.0 - 2.0 * inversion_exponent)


def hamiltonian(theta, inversion_exponent=1.0):
    """H = 1/2 sum |k|^(-2 alpha) |theta_hat|^2, conserved at every exponent alpha.

    At alpha = 1 it is the kinetic energy, bit for bit (the same symbol).
    """
    return 0.5 * _parseval_sum(theta, -inversion_exponent)


def _cell_sum(state, integrand):
    theta = state.theta
    return float(theta.row_sum(integrand(theta.row_values)) * state.grid.cell_area)


def _fourth_power(tv):
    """tv**4 as the square of tv*tv, formed in one buffer."""
    out = tv * tv
    return np.multiply(out, out, out=out)


# one function per sample quantity, so each diagnostic key computes only its own
DIAGNOSTICS = {
    "grad_sup": lambda s: grad_sup_norm(s.theta),
    "energy": lambda s: kinetic_energy(s.theta, s.inversion_exponent),
    "enstrophy": lambda s: _cell_sum(s, lambda tv: tv * tv),
    "hamiltonian": lambda s: hamiltonian(s.theta, s.inversion_exponent),
    "h2": lambda s: h2_seminorm(s.theta),
    "l1": lambda s: _cell_sum(s, np.abs),
    "l2": lambda s: s.theta.l2_norm(),
    "l4": lambda s: _cell_sum(s, _fourth_power) ** 0.25,
    "linf": lambda s: s.theta.linf_norm(),
}
DEFAULT_DIAGNOSTICS = {k: DIAGNOSTICS[k] for k in ("grad_sup", "energy", "enstrophy")}


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


def _require_march_args(state, t_end, cfl):
    """Refuse a cfl outside (0, CFL_CAP], and a t_end not finite or before the state's clock."""
    if not (0.0 < cfl <= CFL_CAP):
        raise ValueError(f"cfl must lie in (0, {CFL_CAP}]")
    if not np.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end < state.time - 1e-15:
        raise ValueError("t_end precedes current state time")


def march(state, t_end, cfl=CFL_CAP, sample_every=None):
    """March to t_end with adaptive dt = cfl * spacing / max speed, yielding samples.

    Yields ``(state, steps, kernel)`` at the start, before any kernel is built
    (``kernel`` None), then whenever the clock crosses a multiple of
    ``sample_every`` and at t_end; steps are snapped to land on sample times.
    The kernel's ``mode`` and ``evaluations`` (RHS calls) describe the
    stepping.  A zero horizon yields nothing, and a march that takes no step
    builds no kernel.  The kernel and its helper thread stay open across
    yields until the generator ends or is closed.

    The start sample's field is a view of ``state.theta``: what its readers
    and the kernel's start compute is cached on the view, never on the
    caller's field.  Once the kernel has its start spectrum the march drops
    ``state``, so a caller that hands the state down without keeping it gets
    that spectrum freed by the first step.  A later sample's field borrows
    the kernel's buffers for its row values and gradients, which hold only
    until the consumer resumes.  The generator returns the final state:
    ``state`` itself if no step was taken, else the t_end state built afresh
    from its spectrum.  A cfl step too short to move a clock standing at
    t_end, so that the march could never end, raises ``ValueError`` once a
    finite step has shown it.
    """
    _require_march_args(state, t_end, cfl)
    if t_end <= state.time:
        return state
    t0 = t = state.time
    if sample_every is None:
        sample_every = (t_end - t0) / 50.0
    if not sample_every > 0.0:  # also NaN: the sample clock would never advance
        raise ValueError(f"sample_every must be positive, got {sample_every}")
    g = state.grid

    def dt_for_speed(speed):
        # reads the loop's current t and t_sample; t_sample <= t_end
        dt = cfl * g.spacing / speed if speed > 0.0 else (t_end - t)
        return min(dt, t_sample - t)

    start = replace(state, theta=state.theta.view())
    require_vorticity(start.theta)  # before any diagnostic reads the field
    yield start, 0, None
    if not t < t_end - 1e-13:
        return state
    steps, next_idx, alpha = 0, 1, state.inversion_exponent
    # over the spectrum the start sample may have formed, but not its rows
    start = replace(start, theta=start.theta.view())
    del state  # the first step replaces the start spectrum, which is then freed
    with _kernel_for(start) as kernel:
        theta_hat = kernel.start(start.theta)
        del start
        while t < t_end - 1e-13:
            t_sample = min(t0 + next_idx * sample_every, t_end)
            theta_hat, dt = _rk4_spectrum(theta_hat, kernel, dt_for_speed)
            if not np.all(np.isfinite(theta_hat)):
                raise BlowUpError(t)
            if dt < t_sample - t and t_end + dt == t_end:  # a cfl step, not a snapped one
                raise ValueError(
                    f"cfl {cfl} gives dt {dt:.6g}, which cannot advance a clock at t_end = {t_end}"
                )
            t += dt
            steps += 1
            if t >= t_sample - 1e-13:
                yield SimState(kernel.field(theta_hat), t, alpha), steps, kernel
                while t0 + next_idx * sample_every <= t + 1e-13:
                    next_idx += 1
    return SimState(kernel.field(theta_hat), t, alpha)


def run(state, t_end, cfl=CFL_CAP, sample_every=None, diagnostics=None):
    """:func:`march` to t_end, evaluating the diagnostics at each sample it yields.

    Each sample is dropped once its diagnostics are read, so the march steps
    on with none held.  Only the last sample is kept, as the final state:
    the one ``march`` returns, rebuilt from its spectrum (or the start state
    if no step was taken).
    """
    diagnostics = dict(diagnostics or DEFAULT_DIAGNOSTICS)
    samples = march(state, t_end, cfl, sample_every)
    del state  # the march alone holds the start state
    times, rows, steps, kernel = [], [], 0, None
    while True:
        try:
            sample, steps, kernel = next(samples)
        except StopIteration as end:
            state = end.value
            break
        times.append(sample.time)
        # finite data too large to square read inf here; the next step's
        # finiteness check reports the blow-up
        with np.errstate(over="ignore", invalid="ignore"):
            rows.append([float(fn(sample)) for fn in diagnostics.values()])
        del sample  # before the march steps on
    t, data = np.asarray(times), np.asarray(rows).reshape(len(times), len(diagnostics))
    series = {name: DiagnosticSeries(name, t, data[:, i]) for i, name in enumerate(diagnostics)}
    if kernel is None:  # no step was taken
        return RunResult(state, series)
    return RunResult(state, series, steps, kernel.mode, kernel.evaluations)


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
    try:  # a bad grid size or value is named with its file
        theta = ScalarField.from_values(Grid(int(nx)), data.astype(float))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return SimState(theta, time=time, inversion_exponent=alpha)

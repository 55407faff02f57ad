"""Reusable experiment drivers: growth families, refinement pairs, sweeps.

These functions tie the constructors, the solver and the diagnostics into the
configurations the batch driver and the verification suite both run, so that
a command-line run and a test exercise identical code.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .diagnostics import growth_ratio_probe, ratio_series
from .fields import TWO_PI, Grid, ScalarField, UnresolvedScaleError
from .initial_data import (
    MIN_CELLS,
    BumpSpec,
    arm_distance_1d,
    bump_profile_constants,
    compose_initial_data,
    cross_arm_distance,
    mollified_cross,
    mollifier_slope_at_jump,
)
from .ladder import resolve_ladder
from .pcg64 import PCG64Stream
from .solver import SimState, grad_sup_norm, run, usable_cpus


def smooth_random_field(grid, seed=0, k_peak=3.0, l2=2.0):
    """Zero-mean random field with a fixed low-mode spectrum, L2-normalized.

    The mode set (|kx|, ky <= 12) and the seeded phases are resolution
    independent, so the same seed produces (samples of) the same continuum
    field on every grid; that is what refinement comparisons need.
    """
    rng = PCG64Stream(seed)
    n = grid.n
    k_max = 12
    if k_max >= n // 2:
        raise ValueError(f"grid n={n} cannot hold modes up to {k_max}")
    spec = np.zeros((n, n // 2 + 1), dtype=complex)
    # ky = 0 column carries both +kx and -kx rows: set conjugate pairs
    for kx in range(1, k_max + 1):
        amp = math.exp(-(kx * kx) / (2.0 * k_peak**2))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        spec[kx, 0] = amp * np.exp(1j * phase)
        spec[(-kx) % n, 0] = np.conj(spec[kx, 0])
    for ky in range(1, k_max + 1):
        for kx in range(-k_max, k_max + 1):
            amp = math.exp(-(kx * kx + ky * ky) / (2.0 * k_peak**2))
            phase = rng.uniform(0.0, 2.0 * np.pi)
            spec[kx % n, ky] = amp * np.exp(1j * phase)
    f = ScalarField.from_spectrum(grid, spec)
    scale = l2 / f.l2_norm()
    return ScalarField.from_values(grid, f.values * scale)


def arm_anomaly(grid, width):
    """Even, zero-mean vorticity anomaly supported within ``width`` of the arms.

    A smooth ridge profile across the horizontal arm lines, modulated by
    cos(x) along them; bounded by 1.
    """
    if width <= 0.0:
        raise ValueError(f"arm anomaly width must be positive, got {width}")
    d = arm_distance_1d(grid)  # distance to nearest arm line, per index
    rho = d / width
    profile = np.where(rho < 1.0, np.exp(-(rho**2) / np.maximum(1e-300, 1.0 - rho**2)), 0.0)
    x = grid.x
    values = np.outer(np.cos(x), profile)  # ridge on y in {0, pi}
    return ScalarField.from_values(grid, values)


# --- growth experiment: members run side by side -------------------------------


def run_members(fn, payloads, workers):
    """One ``(fn(p), None)`` or ``(None, exception)`` per payload, in payload order.

    ``workers > 1`` runs the payloads in that many processes (at most one per
    payload), bit-identical to the in-process run of ``workers <= 1``.
    """
    workers = min(workers, len(payloads))
    if workers > 1:  # only a pool loads the process machinery
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        # a pool starts every member at once; serially each runs when called
        calls = [pool.submit(fn, p).result if pool else partial(fn, p) for p in payloads]
        outcomes = []
        for call in calls:
            try:
                outcomes.append((call(), None))
            except Exception as exc:  # a member's failure stays its own
                outcomes.append((None, exc))
    return outcomes


@dataclass(frozen=True)
class GrowthMember:
    """One member of the steepness family driving the growth experiment.

    ``steepness`` is the requested initial-gradient scale (the
    height-to-support ratio of the construction).  A literal realization is
    impossible on a fixed grid: a front of height below the sup budget and
    slope S needs width ~1/S, which drops under one cell for S >= 50 at
    n = 512.  The realized family therefore maps the request monotonically
    onto the resolution frontier: the mollifier width shrinks with the
    request (so the cross front steepens with it) and the bump slope is
    pinned at that front, keeping the composed initial gradient increasing
    along the family.  Steeper members then contract at strictly faster
    double-exponential rates, which is the ordering the family asserts.
    """

    steepness: float
    sigma: float
    height: float
    support: float
    center: tuple


def _front_width(s, spacing):
    # width ladder 0.25 * sqrt(50 / S), floored at the 8-cell bump support: calibrated
    # so every member's front stays resolved over the run while the contraction depths separate
    return max(1.76777 / math.sqrt(s), MIN_CELLS * spacing)


def default_growth_family(grid, requested=(50.0, 100.0, 200.0)):
    """Monotone realization of the requested steepness ladder on this grid."""
    requested = sorted(requested)
    h1 = MIN_CELLS * grid.spacing  # bump support, and the mollifier width's floor
    slope_const = mollifier_slope_at_jump()
    max_dg = bump_profile_constants()["max_abs_slope"]
    members = []
    for s in requested:
        sigma = _front_width(s, grid.spacing)
        front_slope = slope_const / sigma
        # bump slope pinned at the member's front slope
        height = front_slope * h1 / (2.0 * max_dg)
        members.append(
            GrowthMember(float(s), float(sigma), float(height), float(h1), (0.12, 0.42))
        )
    return members


def distinct_growth_family(grid, requested):
    """:func:`default_growth_family`, refused unless each request realizes its own member."""
    def sharing(spacing):  # the names of the requests whose realized widths coincide
        widths = [_front_width(s, spacing) for s in requested]
        return ", ".join(f"{s:g}" for s, w in zip(requested, widths) if widths.count(w) > 1)

    if not all(s > 0.0 for s in requested) or sharing(0.0):  # no grid separates equal widths
        raise ValueError(f"steepness requests must be positive and distinct, got {requested}")
    required = grid.n
    while sharing(TWO_PI / required):
        required *= 2
    if required > grid.n:
        raise UnresolvedScaleError(
            f"steepness requests {sharing(grid.spacing)} realize one member at n={grid.n}: "
            f"sigma is floored at {MIN_CELLS} cells (need n >= {required})", required
        )
    return default_growth_family(grid, requested)


@dataclass
class GrowthRunRecord:
    member: GrowthMember
    series: dict
    grad0: float
    state: SimState


def run_growth_member(n, member, T=1.25):
    """Compose cross+bump data for one member and march it to T."""
    grid = Grid(n)
    # wider outer scale so the placement depth sits inside the wedge
    ladder = resolve_ladder(
        max(T, 1.0), mode="relaxed", overrides={"outer": math.log10(0.7)}
    )
    spec = BumpSpec(member.center, member.support, member.height)
    result = run(  # the start state handed down, not held: the first step frees its spectrum
        SimState(compose_initial_data(grid, ladder, spec, member.sigma)), T, sample_every=0.0625
    )
    first = result.series["grad_sup"].values[:1]  # the run's own t = 0 sample, if it took one
    grad0 = float(first[0]) if len(first) else grad_sup_norm(result.state.theta)  # the start state
    return GrowthRunRecord(member, result.series, grad0, result.state)


def growth_experiment(n=512, requested=(50.0, 100.0, 200.0), T=1.25):
    """Run the full steepness family, one process per core, and tabulate growth."""
    members = distinct_growth_family(Grid(n), requested)
    workers = min(len(members), usable_cpus())
    records = []
    for rec, exc in run_members(partial(run_growth_member, n, T=T), members, workers):
        if exc is not None:
            raise exc
        records.append(rec)
    probe = growth_ratio_probe([rec.series["grad_sup"] for rec in records])
    return records, probe


# --- stationarity of the mollified cross ----------------------------------------


def cross_stationarity_residual(n):
    """Sup change of the mollified cross (sigma = 0.2) at t = 0.5, away from the arms.

    The comparison mask keeps points farther than 3 sigma from the arms
    (never empty, since sigma < 0.5), where the initial data is exactly +-1
    and the continuum solution never changes; what remains is the
    discretization residual, which must shrink under refinement.
    """
    grid = Grid(n)
    sigma = 0.2
    theta0 = mollified_cross(grid, sigma)
    result = run(SimState(theta0), 0.5, sample_every=0.5)
    mask = cross_arm_distance(grid) > 3.0 * sigma
    diff = np.abs(result.state.theta.values - theta0.values)
    return float(diff[mask].max())


# --- rescaling probe -------------------------------------------------------------


def rescaling_pair(theta, T):
    """Growth-ratio series for (theta, T) and (2 theta, T/2) on matched clocks.

    The rescaling symmetry makes the two gradient-amplification series equal;
    with a power-of-two factor the discrete trajectories coincide to rounding.
    """
    base = run(SimState(theta), T, sample_every=T / 8)
    scaled_field = ScalarField.from_values(theta.grid, 2.0 * theta.values)
    scaled = run(SimState(scaled_field), T / 2.0, sample_every=T / 16.0)
    r1 = ratio_series(base.series["grad_sup"])
    r2 = ratio_series(scaled.series["grad_sup"])
    return r1, r2


def shear_state(grid, amplitude=1.0):
    """Steady parallel shear: vorticity depending on one coordinate only."""
    x = grid.x
    values = amplitude * np.outer(np.cos(x), np.ones(grid.n))
    return SimState(ScalarField.from_values(grid, values))

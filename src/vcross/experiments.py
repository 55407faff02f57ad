"""Reusable experiment drivers: growth families, refinement pairs, sweeps.

These functions tie the constructors, the solver and the diagnostics into the
configurations the batch driver and the verification suite both run, so that
a command-line run and a test exercise identical code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import growth_ratio_probe, ratio_series
from .fields import Grid, ScalarField
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
from .solver import SimState, grad_sup_norm, run


def smooth_random_field(grid, seed=0, k_peak=3.0, l2=2.0):
    """Zero-mean random field with a fixed low-mode spectrum, L2-normalized.

    The mode set (|kx|, ky <= 12) and the seeded phases are resolution
    independent, so the same seed produces (samples of) the same continuum
    field on every grid; that is what refinement comparisons need.
    """
    rng = np.random.default_rng(seed)
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


# --- growth experiment ---------------------------------------------------------


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


def default_growth_family(grid, requested=(50.0, 100.0, 200.0)):
    """Monotone realization of the requested steepness ladder on this grid."""
    requested = sorted(requested)
    h1 = MIN_CELLS * grid.spacing  # bump support, and the mollifier width's floor
    slope_const = mollifier_slope_at_jump()
    max_dg = bump_profile_constants()["max_abs_slope"]
    members = []
    for s in requested:
        # width ladder 0.25 * sqrt(50 / S): calibrated so every member's front
        # stays resolved over the run while the contraction depths separate
        sigma = max(1.76777 / math.sqrt(s), h1)
        front_slope = slope_const / sigma
        # bump slope pinned at the member's front slope
        height = front_slope * h1 / (2.0 * max_dg)
        members.append(
            GrowthMember(float(s), float(sigma), float(height), float(h1), (0.12, 0.42))
        )
    return members


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
    theta = compose_initial_data(grid, ladder, spec, member.sigma)
    grad0 = grad_sup_norm(theta)
    result = run(SimState(theta), T, sample_every=0.0625)
    return GrowthRunRecord(member, result.series, grad0, result.state)


def growth_experiment(n=512, requested=(50.0, 100.0, 200.0), T=1.25):
    """Run the full steepness family and tabulate gradient amplification."""
    grid = Grid(n)
    members = default_growth_family(grid, requested)
    records = [run_growth_member(n, m, T=T) for m in members]
    probe = growth_ratio_probe(
        [(rec.member.steepness, rec.series["grad_sup"]) for rec in records]
    )
    return records, probe


# --- stationarity of the mollified cross ----------------------------------------


def cross_stationarity_residual(n, sigma=0.2, t_end=0.5):
    """Sup change of the evolved mollified cross away from the arm band.

    The comparison mask keeps points farther than 3 sigma from the arms
    (never empty, since sigma < 0.5), where the initial data is exactly +-1
    and the continuum solution never changes; what remains is the
    discretization residual, which must shrink under refinement.
    """
    grid = Grid(n)
    theta0 = mollified_cross(grid, sigma)
    result = run(SimState(theta0), t_end, sample_every=t_end)
    mask = cross_arm_distance(grid) > 3.0 * sigma
    diff = np.abs(result.state.theta.values - theta0.values)
    return float(diff[mask].max())


# --- rescaling probe -------------------------------------------------------------


def rescaling_pair(theta, T, mu=2.0):
    """Growth-ratio series for (theta, T) and (mu theta, T/mu) on matched clocks.

    The rescaling symmetry makes the two gradient-amplification series equal;
    with mu a power of two the discrete trajectories coincide to rounding.
    """
    base = run(SimState(theta), T, sample_every=T / 8)
    scaled_field = ScalarField.from_values(theta.grid, mu * theta.values)
    scaled = run(SimState(scaled_field), T / mu, sample_every=T / (mu * 8))
    r1 = ratio_series(base.series["grad_sup"])
    r2 = ratio_series(scaled.series["grad_sup"])
    return r1, r2


def shear_state(grid, amplitude=1.0):
    """Steady parallel shear: vorticity depending on one coordinate only."""
    x = grid.x
    values = amplitude * np.outer(np.cos(x), np.ones(grid.n))
    return SimState(ScalarField.from_values(grid, values))

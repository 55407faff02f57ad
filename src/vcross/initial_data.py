"""Initial-data constructors: singular cross, mollified cross, steep bumps.

The cross takes the value sign(x) * sign(y) on the period cell centered at the
origin, with arms along the lines x, y in {0, pi} and ties on the arms broken
to zero.  Mollification convolves it with a radial unit-mass bump of width
sigma; the construction is assembled from precomputed 1D/2D profiles of that
convolution so the result equals +-1 exactly at every grid point farther than
sigma from the arms, and all symmetries hold exactly by index arithmetic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    TWO_PI,
    InvalidFieldError,
    ScalarField,
    UnresolvedScaleError,
    next_power_of_two,
)
from .ladder import seed_region_violations

MIN_CELLS = 8  # grid cells a mollifier width or a bump support must span


# --- square wave and arm geometry -------------------------------------------


def _square_wave(n):
    """Periodic square wave by index: +1 on (0, pi), -1 on (pi, 2pi), 0 on arms."""
    s = np.zeros(n)
    s[1 : n // 2] = 1.0
    s[n // 2 + 1 :] = -1.0
    return s


def _signed_arm_offsets(n):
    """Per-index signed distance (in grid cells) to the nearest arm line.

    Returns (offset_cells, orientation): orientation +1 near the 0-line where
    the wave jumps upward, -1 near the pi-line where it jumps downward.
    """
    i = np.arange(n)
    d0 = np.where(i <= n // 2, i, i - n)  # cells to the 0-line, in (-n/2, n/2]
    dpi = i - n // 2  # cells to the pi-line
    near_zero_line = np.abs(d0) <= np.abs(dpi)
    offset = np.where(near_zero_line, d0, dpi)
    orientation = np.where(near_zero_line, 1.0, -1.0)
    return offset, orientation


def arm_distance_1d(grid):
    """Per-index distance to the nearest arm line along one axis."""
    offset, _ = _signed_arm_offsets(grid.n)
    return np.abs(offset) * grid.spacing


def cross_arm_distance(grid):
    """Distance from each grid point to the arm set {x in {0, pi}} U {y in {0, pi}}."""
    d = arm_distance_1d(grid)
    return np.minimum(d[:, None], d[None, :])


def singular_cross(grid):
    """The vortex-patch steady state sign(x) * sign(y) sampled on the grid."""
    s = _square_wave(grid.n)
    return ScalarField.from_values(grid, np.outer(s, s))


# --- mollifier tables --------------------------------------------------------

@functools.cache
def _mollifier_tail_table():
    """Upper-right tail measure Q(p, q) of the radial bump exp(-1/(1-r^2)).

    Q(p, q) integrates the (normalized) bump over {a > p, b > q} for
    p, q >= 0 on a 1025^2 node grid; normalization uses Q(0, 0) = 1/4 so
    the discrete table carries exactly unit total mass.

    Built in place so that no more than about four table-sized arrays are
    alive at once; each temporary is dropped as soon as the next is filled.
    """
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
    return axis, q


def _interp_tail(p, q):
    """Bilinear interpolation of the tail table at |p|, |q| (clipped to [0, 1])."""
    axis, table = _mollifier_tail_table()
    res = axis.size - 1
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
    """1D profile of the mollified square wave at signed offset p = d / sigma."""
    p = np.asarray(p, dtype=float)
    mag = 1.0 - 4.0 * _interp_tail(np.abs(p), np.zeros_like(p))
    return np.sign(p) * mag


def mollified_corner(p, q):
    """2D profile of the mollified cross where both offsets are inside sigma."""
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


def mollifier_slope_at_jump():
    """Slope of the 1D mollified wave at the arm, per unit 1/sigma."""
    axis, table = _mollifier_tail_table()
    # d/dp [1 - 4 Q(p, 0)] at p = 0 equals 4 * marginal density at 0
    h = axis[1] - axis[0]
    return float(4.0 * (table[0, 0] - table[1, 0]) / h)


def mollified_cross(grid, sigma):
    """Convolution of the singular cross with a radial unit-mass bump of width sigma.

    Requires 0 < sigma < 0.5 and at least MIN_CELLS grid cells across sigma.
    Equals the singular cross exactly at grid points farther than sigma from
    the arms; odd across each axis and even under simultaneous negation,
    hence zero mean.
    """
    if not (0.0 < sigma < 0.5):
        raise ValueError(f"sigma must lie in (0, 0.5), got {sigma}")
    if sigma < MIN_CELLS * grid.spacing:
        required = next_power_of_two(math.ceil(MIN_CELLS * TWO_PI / sigma))
        raise UnresolvedScaleError(
            f"sigma={sigma} needs >= {MIN_CELLS} cells, grid n={grid.n} is too coarse "
            f"(need n >= {required})",
            required,
        )
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
    return ScalarField.from_values(grid, values)


# --- steep bumps -------------------------------------------------------------


@dataclass(frozen=True)
class BumpSpec:
    """Even bump pair: radial profile of given height and support diameter.

    The realized field consists of one zero-mean radial bump (positive core,
    negative ring) at ``center`` plus its mirror image at ``-center`` so the
    pair is even; its sup is ``height`` and its gradient scales like
    height / support_diameter.
    """

    center: tuple
    support_diameter: float
    height: float

    def __post_init__(self):
        if self.support_diameter <= 0.0 or self.height <= 0.0:
            raise ValueError("bump height and support must be positive")
        if self.support_diameter >= self.height * 1e6:
            raise ValueError("degenerate bump aspect")

    @property
    def faithful_regime(self):
        """Whether the scales sit in the asymptotic regime 0 < h1 < h2 < 1e-4."""
        return self.support_diameter < self.height < 1e-4


def _check_bump_placement(center, ladder):
    """Placement gate for bump centers against the active ladder.

    Faithful ladders demand strict seed-box membership (which no resolvable
    grid-scale center can satisfy: the box is sub-float by construction).
    Relaxed ladders check the contraction wedge {y > sqrt(x), x > inner,
    y < outer} instead, the zone where the stretching mechanism operates;
    a literal seed box is narrower than one grid cell at any desk scale.
    """
    x0, y0 = center
    if ladder.is_faithful:
        bad = seed_region_violations(x0, y0, ladder)
        if bad:
            raise ValueError(
                f"bump center {center} outside the admissible seed box: "
                + ", ".join(bad)
            )
        return
    bad = []
    if x0 <= 0.0 or y0 <= 0.0:
        bad.append("positive_coordinates")
    else:
        if not x0 > ladder.value("inner"):
            bad.append("x0_above_inner_scale")
        if not y0 < ladder.value("outer"):
            bad.append("y0_below_outer_scale")
        if not y0 > math.sqrt(x0):
            bad.append("y0_above_sqrt_x0")
    if bad:
        raise ValueError(
            f"bump center {center} outside the contraction wedge: " + ", ".join(bad)
        )


@functools.cache
def bump_profile_constants():
    """Continuum constants of the radial profile g(rho) = B(rho)(1 - a rho^2).

    B is the smooth bump exp(-rho^2 / (1 - rho^2)); ``a`` makes the 2D radial
    mean vanish.  Returns dict with a, max_abs_slope, min_value, l2 (the 2D L2
    norm of g over the unit disc).
    """
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


def _sample_bump_patch(grid, radius_cells, support_radius, height):
    """Zero-mean radial bump sampled on a square index patch around a node."""
    k = np.arange(-radius_cells, radius_cells + 1)
    dx = k * grid.spacing
    rho = np.hypot(dx[:, None], dx[None, :]) / support_radius
    inside = rho < 1.0
    B = np.zeros_like(rho)
    B[inside] = np.exp(-(rho[inside] ** 2) / (1.0 - rho[inside] ** 2))
    s2 = np.sum(B * rho**2)
    if s2 == 0.0:
        raise InvalidFieldError("bump support contains no interior grid point")
    ring = np.sum(B) / s2  # discrete calibration: patch mean is exactly zero
    return height * B * (1.0 - ring * rho**2)


def make_bump(grid, spec, ladder=None):
    """Realize an even, zero-mean bump pair on the grid.

    The center is snapped to the nearest grid node (so the sup equals the
    requested height exactly) and the negative ring is calibrated on the
    sampled patch so the discrete mean vanishes to rounding.  Rejects bumps
    whose support spans fewer than MIN_CELLS cells, and, when a ladder is
    given, centers outside its admissible seed box.
    """
    if spec.support_diameter < MIN_CELLS * grid.spacing * (1.0 - 1e-12):
        required = next_power_of_two(
            math.ceil(MIN_CELLS * TWO_PI / spec.support_diameter)
        )
        raise UnresolvedScaleError(
            f"support {spec.support_diameter:.4g} spans fewer than {MIN_CELLS} "
            f"cells at n={grid.n} (need n >= {required})",
            required,
        )
    if ladder is not None:
        _check_bump_placement(spec.center, ladder)
    n = grid.n
    ic = int(round(spec.center[0] / grid.spacing)) % n
    jc = int(round(spec.center[1] / grid.spacing)) % n
    R = spec.support_diameter / 2.0
    radius_cells = int(math.ceil(R / grid.spacing))
    if 2 * radius_cells + 1 > n:
        raise UnresolvedScaleError("bump support exceeds the domain", 2 * n)
    patch = _sample_bump_patch(grid, radius_cells, R, spec.height)
    values = np.zeros((n, n))
    k = np.arange(-radius_cells, radius_cells + 1)
    rows = (ic + k) % n
    cols = (jc + k) % n
    values[np.ix_(rows, cols)] += patch
    mrows = (-ic + k) % n
    mcols = (-jc + k) % n
    overlap = np.isin(rows, mrows).any() and np.isin(cols, mcols).any()
    if overlap and not (ic == (-ic) % n and jc == (-jc) % n):
        # mirrored copies must not interfere; centers too close to the origin
        sep = min(
            np.abs(((2 * ic) % n + n // 2) % n - n // 2),
            np.abs(((2 * jc) % n + n // 2) % n - n // 2),
        )
        if sep <= 2 * radius_cells:
            raise ValueError("bump pair overlaps its mirror image; move the center")
    values[np.ix_(mrows, mcols)] += patch[::-1, ::-1]
    return ScalarField.from_values(grid, values)


def compose_initial_data(grid, ladder, spec, mollifier_width):
    """Mollified cross plus bump pair: the smooth data driving the growth runs.

    ``mollifier_width`` is the realized smoothing width for this grid; the
    ladder's own (log-space) mollifier entry stays symbolic since a faithful
    value has no float representation.
    """
    cross = mollified_cross(grid, mollifier_width)
    bump = make_bump(grid, spec, ladder=ladder)
    theta = ScalarField.from_values(grid, cross.values + bump.values)
    sup = theta.linf_norm()
    if sup >= 2.0:
        raise InvalidFieldError(
            f"composed data must have sup norm < 2, got {sup:.4g}; lower the bump"
        )
    theta.require_zero_mean(what="composed initial data")
    return theta

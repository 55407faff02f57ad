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
    PointEvenField,
    ScalarField,
    UnresolvedScaleError,
    next_power_of_two,
)
from .model import WedgeRegion

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


# --- mollifier tail columns --------------------------------------------------

TAIL_RES = 1024  # the tail measure's node grid is (TAIL_RES + 1)^2 on [0, 1]^2


@functools.lru_cache(maxsize=8)
def _tail_columns(cols):
    """Columns ``cols`` of the tail measure Q(p, q) of the radial bump exp(-1/(1-r^2)).

    Q(p, q) integrates the (normalized) bump over {a > p, b > q} for
    p, q >= 0 on a 1025^2 node grid; normalization uses Q(0, 0) = 1/4 so
    the discrete measure carries exactly unit total mass.  ``cols`` is a
    sorted tuple of column indices; returns Q[:, cols], 1025 rows.

    One pass streams blocks of rows from the far edge.  Each row's suffix
    trapezoid along axis 1 is formed whole, but only the requested columns,
    and column 0 for the normalization, are carried through the suffix
    trapezoid along axis 0.  Each value comes from the same operations in the
    same order as a whole-table build, so the bits depend neither on the block
    size nor on which columns are asked for.
    """
    keep = np.array(sorted({0, *cols}))  # column 0 first
    res, block = TAIL_RES, 32  # block divides res
    axis = np.linspace(0.0, 1.0, res + 1)
    a2 = axis * axis
    h = 1.0 / res
    # one set of block buffers for the pass: fresh ones would be fresh pages
    work = np.empty((3, block, res + 1))
    mask = np.empty((block, res + 1), bool)

    def column_tails(lo, hi, out):
        """Columns ``keep`` of rows lo..hi-1 of the suffix trapezoid along axis 1, into out."""
        r2, w, term = work[:, : hi - lo]
        inside = mask[: hi - lo]
        np.add.outer(a2[lo:hi], a2, out=r2)
        np.less(r2, 1.0, out=inside)
        # exp(-1 / (1 - r2)) inside the unit disc, 0 outside
        w.fill(0.0)
        np.subtract(1.0, r2, out=r2, where=inside)
        np.divide(-1.0, r2, out=r2, where=inside)
        np.exp(r2, out=w, where=inside)
        # ((w[k+1] + w[k]) * 0.5) * h summed from the far edge
        tail = term[:, :res]
        np.add(w[:, :0:-1], w[:, -2::-1], out=tail)
        tail *= 0.5
        tail *= h
        np.cumsum(tail, axis=1, out=tail)
        term[:, res] = 0.0
        # column j < res sits at res - 1 - j; column res reads the zero at -1
        np.take(term, res - 1 - keep, axis=1, out=out)

    q = np.zeros((res + 1, keep.size))
    col = np.empty((block + 1, keep.size))  # column tails of rows lo..lo + block
    column_tails(res, res + 1, col[block:])  # the first carried row, res
    sums = np.empty_like(col)
    for lo in range(res - block, -1, -block):
        column_tails(lo, lo + block, col[:block])
        # the same suffix trapezoid along axis 0, its cumsum carried on from
        # q[lo + block]; the last column row pairs with the carried one below
        sums[0] = q[lo + block]
        steps = sums[1:]
        np.add(col[:0:-1], col[-2::-1], out=steps)
        steps *= 0.5
        steps *= h
        np.cumsum(sums, axis=0, out=q[lo : lo + block + 1][::-1])
        col[block] = col[0]
    q /= 4.0 * q[0, 0]
    out = q[:, np.searchsorted(keep, cols)]
    out.flags.writeable = False
    return out


def _tail_cell(p):
    """Lower node index and fraction of |p|, clipped to [0, 1], on the tail grid."""
    p = np.clip(np.abs(p), 0.0, 1.0) * TAIL_RES
    i0 = np.minimum(p.astype(int), TAIL_RES - 1)
    return i0, p - i0


def _corner_columns(ap):
    """The tail columns a cross with band offsets ``ap`` reads, as a sorted tuple.

    Columns 0 and 1 serve the 1D wave (q = 0); each offset's cell j0 and
    j0 + 1 serve the corner.
    """
    j0, _ = _tail_cell(ap)
    j0 = j0.tolist()
    return tuple(sorted({0, 1, *j0, *(j + 1 for j in j0)}))


def _interp_tail(p, q, cols):
    """Bilinear interpolation of Q at |p|, |q| (clipped to [0, 1]).

    ``cols`` must hold every cell column j0 of q and its successor j0 + 1.
    """
    table = _tail_columns(cols)
    i0, fp = _tail_cell(p)
    j0, fq = _tail_cell(q)
    c0 = np.searchsorted(cols, j0)  # j0 + 1 is the next requested column
    return (
        table[i0, c0] * (1 - fp) * (1 - fq)
        + table[i0 + 1, c0] * fp * (1 - fq)
        + table[i0, c0 + 1] * (1 - fp) * fq
        + table[i0 + 1, c0 + 1] * fp * fq
    )


def mollifier_slope_at_jump():
    """Slope of the 1D mollified wave at the arm, per unit 1/sigma.

    d/dp [1 - 4 Q(p, 0)] at p = 0 equals 4 * marginal density at 0, here
    4 (Q(0, 0) - Q(1/TAIL_RES, 0)) * TAIL_RES on the tail grid.  It is held as
    the value that formula gives on ``_tail_columns((0,))``, which the tests
    derive bit for bit, so no process streams the table for one constant.
    """
    return 1.903458297987413


def _require_cells(grid, what, width):
    """Refuse a ``width`` spanning fewer than MIN_CELLS grid cells (a rounding short is not)."""
    if width < MIN_CELLS * grid.spacing * (1.0 - 1e-12):
        cells = MIN_CELLS * TWO_PI / width
        if cells == math.inf:  # no float cell count, so no grid size resolves it
            raise ValueError(f"{what} {width:.4g} is too small for any grid to resolve")
        required = next_power_of_two(math.ceil(cells))
        raise UnresolvedScaleError(
            f"{what} {width:.4g} spans fewer than {MIN_CELLS} cells at n={grid.n} "
            f"(need n >= {required})",
            required,
        )


def mollified_cross(grid, sigma):
    """Convolution of the singular cross with a radial unit-mass bump of width sigma.

    Requires 0 < sigma < 0.5 and at least MIN_CELLS grid cells across sigma.
    Equals the singular cross exactly at grid points farther than sigma from
    the arms; odd across each axis and even under simultaneous negation,
    hence zero mean.  Within sigma of one arm it is the 1D mollified wave
    +-(1 - 4 Q(|p|, 0)); within sigma of two, the corner profile.
    """
    if not (0.0 < sigma < 0.5):
        raise ValueError(f"sigma must lie in (0, 0.5), got {sigma}")
    _require_cells(grid, "sigma", sigma)
    n = grid.n
    offset, orientation = _signed_arm_offsets(n)
    p = offset * grid.spacing / sigma  # signed offset in mollifier units
    idx = np.nonzero(np.abs(p) < 1.0)[0]  # the arm band, the arm nodes included
    pb, ori = p[idx], orientation[idx]
    ap = np.abs(pb)
    cols = _corner_columns(ap)
    tail = _interp_tail(ap, np.zeros_like(ap), cols)  # Q(|p|, 0)
    sign = np.sign(pb)
    profile_1d = _square_wave(n)
    profile_1d[idx] = ori * (sign * (1.0 - 4.0 * tail))
    values = np.outer(profile_1d, profile_1d)
    corner = (
        1.0
        - 4.0 * tail[:, None]
        - 4.0 * tail[None, :]
        + 4.0 * _interp_tail(ap[:, None], ap[None, :], cols)
    )
    values[np.ix_(idx, idx)] = (ori[:, None] * ori[None, :]) * (
        sign[:, None] * sign[None, :] * corner
    )
    return ScalarField.from_values(grid, values)


# --- steep bumps -------------------------------------------------------------


@dataclass(frozen=True)
class BumpSpec:
    """Even bump pair: radial profile of given height and support diameter.

    The realized field is one zero-mean radial bump (positive core, negative
    ring) at ``center`` plus its mirror image at ``-center``, unless that is
    the same node, so it is even; its sup is ``height`` and its gradient
    scales like height / support_diameter.
    """

    center: tuple
    support_diameter: float
    height: float

    def __post_init__(self):
        for name, value in (("support", self.support_diameter), ("height", self.height)):
            if not 0.0 < value < math.inf:  # also NaN
                raise ValueError(f"bump {name} must be finite and positive, got {value}")
        if self.support_diameter >= self.height * 1e6:
            raise ValueError("degenerate bump aspect")


def _check_bump_placement(center, ladder):
    """Placement gate for bump centers against the active ladder.

    Faithful ladders demand strict seed-box membership (which no resolvable
    grid-scale center can satisfy: the box is sub-float by construction).
    Relaxed ladders check the contraction wedge {y > sqrt(x), x > inner,
    y < outer} instead, the zone where the stretching mechanism operates;
    a literal seed box is narrower than one grid cell at any desk scale.
    """
    faithful = ladder.is_faithful
    exponent = ladder.seed_exponent if faithful else 2.0
    region = WedgeRegion.from_log10(ladder.log10_inner, ladder.log10_outer, exponent)
    bad = region.violations(*center)
    if bad:
        where = "the admissible seed box" if faithful else "the contraction wedge"
        raise ValueError(f"bump center {center} outside {where}: " + ", ".join(bad))


def bump_profile_constants():
    """Continuum constants of the radial profile g(rho) = B(rho)(1 - a rho^2).

    B is the smooth bump exp(-rho^2 / (1 - rho^2)); ``a`` makes the 2D radial
    mean vanish.  Returns dict with a, max_abs_slope, min_value, l2 (the 2D L2
    norm of g over the unit disc).  The values are those of trapezoid
    quadrature on 200,001 points of [0, 1], which the tests repeat bit for bit.
    """
    return {
        "a": 3.826854673277291,
        "max_abs_slope": 2.9254504811138027,
        "min_value": -0.3362115965708956,
        "l2": 0.5787999585210242,
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
    given, centers it does not admit (see :func:`_check_bump_placement`).
    """
    _require_cells(grid, "support", spec.support_diameter)
    if ladder is not None:
        _check_bump_placement(spec.center, ladder)
    n = grid.n
    ic = int(round(spec.center[0] / grid.spacing)) % n
    jc = int(round(spec.center[1] / grid.spacing)) % n
    R = spec.support_diameter / 2.0
    radius_cells = int(math.ceil(R / grid.spacing))
    if 2 * radius_cells + 1 > n:
        raise UnresolvedScaleError("bump support exceeds the domain", 2 * n)
    # cells from the center to its mirror on the farther axis: the two
    # patches overlap when it is at most 2 radii, and coincide when it is 0
    gap = max(abs((2 * c + n // 2) % n - n // 2) for c in (ic, jc))
    if 0 < gap <= 2 * radius_cells:
        raise ValueError("bump pair overlaps its mirror image; move the center")
    patch = _sample_bump_patch(grid, radius_cells, R, spec.height)
    values = np.zeros((n, n))
    k = np.arange(-radius_cells, radius_cells + 1)
    values[np.ix_((ic + k) % n, (jc + k) % n)] += patch
    if gap > 0:  # a center that is its own mirror is already even
        values[np.ix_((-ic + k) % n, (-jc + k) % n)] += patch[::-1, ::-1]
    return ScalarField.from_values(grid, values)


def compose_initial_data(grid, ladder, spec, mollifier_width):
    """Mollified cross plus bump pair: the smooth data driving the growth runs.

    ``mollifier_width`` is the realized smoothing width for this grid; the
    ladder's own (log-space) mollifier entry stays symbolic since a faithful
    value has no float representation.

    Both parts are even under z -> -z, so the result is a
    :class:`PointEvenField` held as the real part of the composed values'
    rfft2 (their imaginary part is rounding), which a run steps with no copy.
    """
    cross = mollified_cross(grid, mollifier_width)
    bump = make_bump(grid, spec, ladder=ladder)
    theta = ScalarField.from_values(grid, cross.values + bump.values)
    del cross, bump  # two n x n arrays the checks and the transform do not read
    sup = theta.linf_norm()
    if sup >= 2.0:
        raise InvalidFieldError(
            f"composed data must have sup norm < 2, got {sup:.4g}; lower the bump"
        )
    theta.require_zero_mean(what="composed initial data")
    return PointEvenField(grid, np.ascontiguousarray(theta.spectrum.real))

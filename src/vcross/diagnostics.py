"""Growth-law measurements: material lines, rate fits, envelopes, field bounds.

Everything here is a pure function of series, polylines or fields.  Envelope
constants are always fitted, never assumed; the acceptance suite asserts the
stability of fitted constants under refinement instead of absolute values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import TWO_PI
from .initial_data import cross_arm_distance
from .series import DiagnosticSeries, RateFit, linear_fit
from .solver import grad_sup_norm, hessian_sup_of_inverse_laplacian, velocity_from_vorticity

EPS = np.finfo(float).eps


# --- grid interpolation ------------------------------------------------------


def periodic_bilinear(arr, px, py, grid):
    """Bilinear interpolation of grid values ``arr`` at torus points (px, py).

    Cell coordinates within 4 (|k| + n) ulps of an integer k snap onto it, so
    a node, or a node shifted by multiples of 2 pi, returns its grid value
    exactly: x_i / spacing can land one ulp off i, and x_i + 2 pi carries a
    rounding of up to n ulps in cell units.
    """
    n = grid.n
    cells = []
    for p in (px, py):
        g = p / grid.spacing
        k = np.rint(g)
        cells.append(np.where(np.abs(g - k) <= 4.0 * EPS * (np.abs(k) + n), k, g))
    gx, gy = cells
    i0 = np.floor(gx).astype(int)
    j0 = np.floor(gy).astype(int)
    fx = gx - i0
    fy = gy - j0
    i0 %= n
    j0 %= n
    i1 = (i0 + 1) % n
    j1 = (j0 + 1) % n
    return (
        arr[i0, j0] * (1 - fx) * (1 - fy)
        + arr[i1, j0] * fx * (1 - fy)
        + arr[i0, j1] * (1 - fx) * fy
        + arr[i1, j1] * fx * fy
    )


# --- polyline geometry -------------------------------------------------------


def polyline_length(pts):
    return float(np.sum(np.linalg.norm(np.diff(np.asarray(pts, float), axis=0), axis=1)))


def polygon_area(pts):
    """Shoelace area (absolute) of a closed polygon given without repeat vertex."""
    p = np.asarray(pts, dtype=float)
    x, y = p[:, 0], p[:, 1]
    return float(0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _point_segment_distance(points, a, b):
    """Distances from many points to one segment [a, b]."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.linalg.norm(points - a, axis=1)
    s = np.clip(((points - a) @ ab) / denom, 0.0, 1.0)
    proj = a[None, :] + s[:, None] * ab[None, :]
    return np.linalg.norm(points - proj, axis=1)


def polyline_min_distance(poly_a, poly_b):
    """Exact minimum vertex-to-segment distance from a polyline to a closed one."""
    pa = np.asarray(poly_a, dtype=float)
    pb = np.asarray(poly_b, dtype=float)
    if pa.shape[0] < 1 or pb.shape[0] < 2:
        raise ValueError("degenerate polylines")
    segs_b = list(zip(pb[:-1], pb[1:])) + [(pb[-1], pb[0])]
    best = math.inf
    for a, b in segs_b:
        best = min(best, float(np.min(_point_segment_distance(pa, a, b))))
    segs_a = list(zip(pa[:-1], pa[1:])) if pa.shape[0] > 1 else []
    for a, b in segs_a:
        best = min(best, float(np.min(_point_segment_distance(pb, a, b))))
    return best


@dataclass(frozen=True)
class StretchRecord:
    length: float
    thickness: float

    @property
    def area_product(self):
        return self.length * self.thickness


def stretch_and_thickness(segment_image, circle_image):
    """Arclength of the stretched segment and its distance to the circle image.

    Under an area-preserving flow length * thickness is bounded by the initial
    disc area, which is how stretching forces thinning.
    """
    L = polyline_length(segment_image)
    if L == 0.0:
        raise ValueError("degenerate segment image")
    d = polyline_min_distance(segment_image, circle_image)
    return StretchRecord(L, d)


# --- rate fits and envelopes -------------------------------------------------


def fit_double_exponential(series, window=None, kind=None):
    """Fit the doubly-logarithmic rate of a decaying or growing series.

    Decay fits require all values in (0, 1) and regress ln ln(1/y) on t;
    growth fits require values > 1 and regress ln ln(g).  The slope estimates
    the inner exponential rate (1.0 for pure y = beta**exp(t) dynamics).
    """
    if window is not None:
        series = series.window(*window)
    if len(series) < 5:
        raise ValueError("need at least 5 samples in the fit window")
    vals = series.values
    if kind is None:
        kind = "decay" if np.all(vals < 1.0) else "growth"
    if kind == "decay":
        bad = np.nonzero((vals <= 0.0) | (vals >= 1.0))[0]
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"decay fit needs values in (0, 1); sample {i} at t="
                f"{series.t[i]:.6g} is {vals[i]:.6g}"
            )
        z = np.log(-np.log(vals))
    elif kind == "growth":
        bad = np.nonzero(vals <= 1.0)[0]
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"growth fit needs values > 1; sample {i} at t="
                f"{series.t[i]:.6g} is {vals[i]:.6g}"
            )
        z = np.log(np.log(vals))
    else:
        raise ValueError(f"unknown fit kind {kind!r}")
    return linear_fit(series.t, z)


@dataclass(frozen=True)
class EnvelopeFit:
    fitted_C: float


def _envelope_log(kind, C, t, base):
    """log of the envelope value at time t for the given constant."""
    if kind == "lipschitz":
        g0 = base["grad0"]
        return C * (1.0 + max(0.0, math.log(max(g0, 1e-300)))) * np.exp(C * t)
    if kind == "exponential":
        g0 = base["grad0"]
        sup = base["theta_sup"]
        return math.log(max(g0, 1e-300)) + C * sup * t
    raise ValueError(f"unknown envelope kind {kind!r}")


def fit_growth_envelope(series, kind, base_norms):
    """Smallest constant C whose envelope dominates every sample.

    ``kind`` is "lipschitz" or "exponential".  Both envelope families are
    monotone in C, so the fit is a bisection on the predicate "envelope >=
    sample everywhere"; the fitted constant is the diagnostic.
    """
    if np.any(series.values <= 0.0):
        raise ValueError("envelope fits need positive series")
    log_vals = np.log(series.values)
    t = series.t

    def dominates(C):
        return bool(np.all(_envelope_log(kind, C, t, base_norms) >= log_vals - 1e-12))

    if dominates(0.0):
        return EnvelopeFit(0.0)
    hi = 1.0
    while not dominates(hi):
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("no envelope constant below 1e6 dominates the series")
    lo = 0.0
    while hi - lo > 1e-9 * max(1.0, hi):
        midC = 0.5 * (lo + hi)
        if dominates(midC):
            hi = midC
        else:
            lo = midC
    return EnvelopeFit(hi)


# --- field bound probes -------------------------------------------------------


@dataclass(frozen=True)
class PerturbationBoundsReport:
    radii: np.ndarray
    sup_ratio: np.ndarray  # sup_{|z| = r} |F1| / r per radius
    hessian_sup: float
    origin_value: float
    field_max: float


def perturbation_field_bounds(p, radii, arm_width=None):
    """Induced velocity bounds for a cross-supported vorticity anomaly.

    F1, the gradient of the inverse Laplacian of p, is the velocity p induces
    turned by a right angle, so |F1| = |u|.  Reports sup |F1| / r over 720
    points on each circle around the stagnation point, the Hessian sup, and
    |F1(0)| (forced to zero by even symmetry).  If ``arm_width`` is given the
    support of p must stay within that distance of the arms.
    """
    radii = np.asarray(radii, dtype=float)
    bad = radii[~(np.isfinite(radii) & (radii > 0.0))]
    if bad.size:
        raise ValueError(f"probe radii must be finite and positive, got {bad.tolist()}")
    p.require_zero_mean(what="anomaly field")
    g = p.grid
    if arm_width is not None:
        dist = cross_arm_distance(g)
        live = np.abs(p.values) > 1e-12 * max(1.0, p.linf_norm())
        leak = dist[live].max() if live.any() else 0.0
        if leak > arm_width + g.spacing:
            raise ValueError(
                f"anomaly support leaks {leak:.4g} from the arms, width is {arm_width:.4g}"
            )
    vel = velocity_from_vorticity(p)
    f1x, f1y = vel.v.values, vel.u.values  # F1 = (v, -u); the sign drops out
    mag = np.hypot(f1x, f1y)
    field_max = float(np.max(mag))
    origin_value = float(mag[0, 0])

    angles = np.linspace(0.0, TWO_PI, 720, endpoint=False)
    sup_ratio = np.empty_like(radii)
    for i, r in enumerate(radii):
        px = (r * np.cos(angles)) % TWO_PI
        py = (r * np.sin(angles)) % TWO_PI
        fx = periodic_bilinear(f1x, px, py, g)
        fy = periodic_bilinear(f1y, px, py, g)
        sup_ratio[i] = np.max(np.hypot(fx, fy)) / r
    return PerturbationBoundsReport(
        radii=radii,
        sup_ratio=sup_ratio,
        hessian_sup=hessian_sup_of_inverse_laplacian(p),
        origin_value=origin_value,
        field_max=field_max,
    )


@dataclass(frozen=True)
class HessianScalingResult:
    fit: RateFit
    l2_norms: np.ndarray
    grad_sups: np.ndarray
    hessian_sups: np.ndarray


def bump_scales(field):
    """(L2 norm, gradient sup, inverse-Laplacian Hessian sup) of one bump."""
    return field.l2_norm(), grad_sup_norm(field), hessian_sup_of_inverse_laplacian(field)


def fit_hessian_scaling(scales):
    """Regress log Hessian sup against log L2 norm over ``bump_scales`` rows.

    The family should vary the L2 norm at controlled gradient sup; the slope
    estimates the square-root exponent of the optimized two-scale bound.
    """
    if len(scales) < 2:
        raise ValueError("need at least two bumps to fit a slope")
    omegas, Ms, Hs = (np.asarray(column) for column in zip(*scales))
    return HessianScalingResult(linear_fit(np.log(omegas), np.log(Hs)), omegas, Ms, Hs)


# --- growth-ratio probe --------------------------------------------------------


@dataclass(frozen=True)
class GrowthRow:
    grad0: float
    max_grad: float

    @property
    def ratio(self):
        return self.max_grad / self.grad0


@dataclass
class GrowthProbe:
    rows: list

    def ratios(self):
        return np.asarray([row.ratio for row in self.rows])

    def nondecreasing(self):
        return ratios_nondecreasing(self.ratios())


def ratios_nondecreasing(ratios):
    """Whether each growth ratio is at least the one before it, with no slack."""
    return bool(np.all(np.diff(ratios) >= 0.0))


def growth_ratio_probe(grad_series):
    """Per-run max-over-time gradient amplification, one row per series in order.

    The initial sample of each series is the normalization.
    """
    rows = []
    for series in grad_series:
        g0 = float(series.values[0])
        if g0 <= 0.0:
            raise ValueError("initial gradient must be positive")
        rows.append(GrowthRow(g0, float(np.max(series.values))))
    return GrowthProbe(rows)


def ratio_series(series):
    """Gradient series normalized by its initial sample."""
    return DiagnosticSeries(
        series.name + "_ratio", series.t, series.values / series.values[0]
    )


def relative_drift(values):
    """|v[-1] - v[0]| / |v[0]| of an invariant's series, the denominator floored at 1e-300."""
    return float(abs(values[-1] - values[0]) / max(abs(values[0]), 1e-300))

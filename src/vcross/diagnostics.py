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
from .model import rk4_steps
from .series import DiagnosticSeries, RateFit, linear_fit
from .solver import grad_sup_norm, hessian_sup_of_inverse_laplacian, velocity_from_vorticity

EPS = np.finfo(float).eps


# --- velocity sources for polyline advection --------------------------------


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


class ModelFlow:
    """Velocity source backed by a cross-field variant."""

    def __init__(self, variant):
        self.variant = variant

    def __call__(self, t, pts):
        return np.column_stack(self.variant.velocity(pts[:, 0], pts[:, 1]))


class SnapshotFlow:
    """Time-indexed solver velocity snapshots, bilinear in space, linear in t.

    ``snapshots`` is a list of (t, u_values, v_values) on one grid; positions
    wrap periodically.
    """

    def __init__(self, grid, snapshots):
        if not snapshots:
            raise ValueError("need at least one velocity snapshot")
        self.grid = grid
        self.times = np.asarray([s[0] for s in snapshots])
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("snapshot times must be strictly increasing")
        self.us = [s[1] for s in snapshots]
        self.vs = [s[2] for s in snapshots]

    def __call__(self, t, pts):
        times = self.times
        if t <= times[0]:
            k0 = k1 = 0
            w = 0.0
        elif t >= times[-1]:
            k0 = k1 = len(times) - 1
            w = 0.0
        else:
            k1 = int(np.searchsorted(times, t))
            k0 = k1 - 1
            w = (t - times[k0]) / (times[k1] - times[k0])
        px, py, g = pts[:, 0], pts[:, 1], self.grid
        u = (1 - w) * periodic_bilinear(self.us[k0], px, py, g)
        v = (1 - w) * periodic_bilinear(self.vs[k0], px, py, g)
        if w > 0.0:
            u += w * periodic_bilinear(self.us[k1], px, py, g)
            v += w * periodic_bilinear(self.vs[k1], px, py, g)
        return np.column_stack([u, v])


@dataclass
class AdvectionResult:
    points: np.ndarray
    exit_times: np.ndarray = None  # per-vertex first exit from the region


def advect_polyline(
    velocity_source, polyline, T, dt=1e-3, region=None, refine_threshold=None
):
    """Advect every vertex under the velocity source with ``model.rk4_steps``.

    ``velocity_source(t, pts)`` returns the (N, 2) velocities: a ModelFlow,
    a SnapshotFlow or any such callable.  Vertex count is preserved unless
    ``refine_threshold`` is set, in which case source vertices are inserted
    (parametric midpoints), in up to ten rounds, until no two adjacent images
    are farther apart than the threshold.  With a region, each vertex
    records its first exit time.
    """
    pts = np.asarray(polyline, dtype=float).copy()
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("polyline must be an (N, 2) array")

    def rhs(state, t):
        return (velocity_source(t, state[0]),)

    def advect(points):
        p, exit_times = points, np.full(points.shape[0], np.nan)
        for t, (p,) in rk4_steps(rhs, (points,), T, dt):
            if region is not None:
                # ln of 0 is -inf and of a negative is NaN: both read as outside
                with np.errstate(divide="ignore", invalid="ignore"):
                    outside = ~region.contains_log(np.log(p[:, 0]), np.log(p[:, 1]))
                fresh = outside & np.isnan(exit_times)
                exit_times[fresh] = t
        return p, exit_times

    image, exits = advect(pts)
    if refine_threshold is not None:
        for _ in range(10):
            gaps = np.linalg.norm(np.diff(image, axis=0), axis=1)
            bad = np.nonzero(gaps > refine_threshold)[0]
            if bad.size == 0:
                break
            mids = 0.5 * (pts[bad] + pts[bad + 1])
            pts = np.insert(pts, bad + 1, mids, axis=0)
            image, exits = advect(pts)
    return AdvectionResult(image, exits if region is not None else None)


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


def polyline_min_distance(poly_a, poly_b, closed_b=False):
    """Exact minimum vertex-to-segment distance between two polylines."""
    pa = np.asarray(poly_a, dtype=float)
    pb = np.asarray(poly_b, dtype=float)
    if pa.shape[0] < 1 or pb.shape[0] < 2:
        raise ValueError("degenerate polylines")
    segs_b = list(zip(pb[:-1], pb[1:]))
    if closed_b:
        segs_b.append((pb[-1], pb[0]))
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
    d = polyline_min_distance(segment_image, circle_image, closed_b=True)
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
    kind: str
    fitted_C: float
    holds: bool = True


def _envelope_log(kind, C, t, base):
    """log of the envelope value at time t for the given constant."""
    if kind == "lipschitz":
        g0 = base["grad0"]
        return C * (1.0 + max(0.0, math.log(max(g0, 1e-300)))) * np.exp(C * t)
    if kind == "h2":
        j0 = base["h2_0"]
        sup = base["theta_sup"]
        inner = (1.0 + 2.0 * max(0.0, math.log(max(j0, 1e-300)))) * np.exp(
            C * sup * t
        ) - 1.0
        return 0.5 * inner
    if kind == "exponential":
        g0 = base["grad0"]
        sup = base["theta_sup"]
        return math.log(max(g0, 1e-300)) + C * sup * t
    raise ValueError(f"unknown envelope kind {kind!r}")


def fit_growth_envelope(series, kind, base_norms):
    """Smallest constant C whose envelope dominates every sample.

    The envelope families are monotone in C, so the fit is a bisection on the
    predicate "envelope >= sample everywhere"; ``holds`` is true by
    construction and the fitted constant is the diagnostic.
    """
    if np.any(series.values <= 0.0):
        raise ValueError("envelope fits need positive series")
    log_vals = np.log(series.values)
    t = series.t

    def dominates(C):
        return bool(np.all(_envelope_log(kind, C, t, base_norms) >= log_vals - 1e-12))

    if dominates(0.0):
        return EnvelopeFit(kind, 0.0)
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
    return EnvelopeFit(kind, hi)


# --- field bound probes -------------------------------------------------------


@dataclass(frozen=True)
class PerturbationBoundsReport:
    radii: np.ndarray
    sup_ratio: np.ndarray  # sup_{|z| = r} |F1| / r per radius
    hessian_sup: float
    origin_value: float
    field_max: float


def perturbation_field_bounds(p, x_min, radii, arm_width=None):
    """Induced velocity bounds for a cross-supported vorticity anomaly.

    F1, the gradient of the inverse Laplacian of p, is the velocity p induces
    turned by a right angle, so |F1| = |u|.  Reports sup |F1| / r over 720
    points on each circle around the stagnation point, the Hessian sup, and
    |F1(0)| (forced to zero by even symmetry).  If ``arm_width`` is given the
    support of p must stay within that distance of the arms; x_min is unread.
    """
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

    radii = np.asarray(radii, dtype=float)
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


def bump_hessian_scaling(bump_fields):
    """``fit_hessian_scaling`` over a family of bump fields."""
    return fit_hessian_scaling([bump_scales(b) for b in bump_fields])


# --- growth-ratio probe --------------------------------------------------------


@dataclass(frozen=True)
class GrowthRow:
    label: float
    grad0: float
    max_grad: float
    t_at_max: float

    @property
    def ratio(self):
        return self.max_grad / self.grad0


@dataclass
class GrowthProbe:
    rows: list

    def ratios(self):
        return np.asarray([row.ratio for row in self.rows])

    def nondecreasing(self):
        return bool(np.all(np.diff(self.ratios()) >= 0.0))


def growth_ratio_probe(runs):
    """Per-run max-over-time gradient amplification, tabulated by family label.

    ``runs`` is a list of (label, grad_series) pairs; the initial sample of
    each series is the normalization.
    """
    rows = []
    for label, series in runs:
        g0 = float(series.values[0])
        if g0 <= 0.0:
            raise ValueError("initial gradient must be positive")
        i = int(np.argmax(series.values))
        rows.append(
            GrowthRow(float(label), g0, float(series.values[i]), float(series.t[i]))
        )
    return GrowthProbe(rows)


def ratio_series(series):
    """Gradient series normalized by its initial sample."""
    return DiagnosticSeries(
        series.name + "_ratio", series.t, series.values / series.values[0]
    )

"""The cross flow near its stagnation point and the perturbed tracer system.

Two variants of the velocity field are provided.  The exact variant uses the
closed-form antiderivative

    int_0^x ln(y^2 + s^2) ds = x ln(x^2 + y^2) - 2x + 2y arctan(x/y)

for both components; it is divergence-free analytically and is the default.
The leading variant keeps only (-x ln y, y ln y); it has constant divergence
and exists as an analytic oracle (its trajectories, Jacobians and enclosed
areas all have elementary closed forms).

Trajectories integrate in logarithmic coordinates, so the double-exponential
contraction toward the axis never goes stiff or underflows.  Each variant is
one formula from (ln x, ln y), for arrays and again for plain floats, giving
the rates (u/x, v/y) and the partials that drive the flow-map Jacobian, so
both hold for starts far below float range.  A drift enters the same way,
through :meth:`FlowPerturbation.terms`: exact log-form terms when the
perturbation carries them (the demo drift does), and otherwise its values at
the linear point with central-difference partials, which need x and y in
float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ladder import LN10, LadderError
from .pcg64 import PCG64Stream
from .series import DiagnosticSeries, write_table

AXIS_GUARD = 1e-12
HALF_PI = math.pi / 2.0


class NearAxisError(ValueError):
    """Evaluation requested on or beyond the logarithmic singularity."""


@dataclass(frozen=True)
class CrossFieldVariant:
    """Velocity field of the cross near the origin: exact or leading form.

    The exact form is (u, v) = (-psi_y, psi_x) with the stream function
    psi = 1/2 int_0^x int_0^y ln(s^2 + t^2) dt ds, whose Laplacian is
    arctan(y/x) + arctan(x/y) = pi/2 in the open first quadrant: it is the
    flow of a cross of height pi/2.  So the solver's velocity of the unit
    cross sign(x) sign(y) is 2/pi times it near the origin, plus a linear
    strain s (x, -y) from the torus, s near 0.336, that is smooth there.
    Model time T is solver time t = (pi/2) T.
    """

    kind: str = "exact"
    c1 = 0.5  # exact-variant prefactor of ln(x^2 + y^2)
    c2 = 1.0  # leading-variant rate

    def __post_init__(self):
        if self.kind not in ("exact", "leading"):
            raise ValueError(f"unknown variant kind {self.kind!r}")

    def rates_and_partials(self, lx, ly):
        """(u/x, v/y, u_x, u_y, v_x, v_y) from log coordinates, vectorized.

        Everything comes from ln x - ln y, so points far below float range
        work; beyond aspect ratio e^30 the arctangents take asymptotic forms.
        """
        lx = np.asarray(lx, dtype=float)
        ly = np.asarray(ly, dtype=float)
        ldiff = lx - ly
        if self.kind == "leading":
            c = self.c2
            zero = np.zeros_like(ldiff)
            return -c * ly, c * ly, -c * ly, -c * np.exp(ldiff), zero, c * (ly + 1.0)
        # ln(x^2 + y^2) = 2 max(lx, ly) + log1p(exp(-2 |lx - ly|))
        ad = np.abs(ldiff)
        lr2 = 2.0 * np.maximum(lx, ly) + np.log1p(np.exp(-2.0 * ad))
        # a = arctan(x/y), b = arctan(y/x), yx = (y/x) a, xy = (x/y) b
        far = ad > 30.0
        if not far.any():  # the usual case, without the masked copies below
            s = np.exp(ldiff)
            a, b = np.arctan(s), np.arctan(1.0 / s)
            yx, xy = a / s, s * b
        else:
            a, b, yx, xy = (np.empty_like(ldiff) for _ in range(4))
            mid = ~far
            lo = far & (ldiff < 0.0)  # x much smaller than y
            hi = far & (ldiff > 0.0)
            s = np.exp(ldiff[mid])
            a[mid], b[mid] = np.arctan(s), np.arctan(1.0 / s)
            yx[mid], xy[mid] = a[mid] / s, s * b[mid]
            s = np.exp(ldiff[lo])
            a[lo], b[lo], yx[lo], xy[lo] = s, HALF_PI - s, 1.0, HALF_PI * s
            s = np.exp(-ldiff[hi])
            a[hi], b[hi], yx[hi], xy[hi] = HALF_PI - s, s, HALF_PI * s, 1.0
        c = self.c1
        return (
            -c * (lr2 - 2.0 + 2.0 * yx),
            c * (lr2 - 2.0 + 2.0 * xy),
            -c * lr2,
            -2.0 * c * a,
            2.0 * c * b,
            c * lr2,
        )

    def rates_and_partials_scalar(self, lx, ly):
        """:meth:`rates_and_partials` on plain floats, for the scalar integrators."""
        ldiff = lx - ly
        if self.kind == "leading":
            c = self.c2
            # past float range u_y is -inf, which the Jacobian guard reports
            x_over_y = math.exp(ldiff) if ldiff < 709.0 else math.inf
            return -c * ly, c * ly, -c * ly, -c * x_over_y, 0.0, c * (ly + 1.0)
        ad = ldiff if ldiff >= 0.0 else -ldiff
        lr2 = 2.0 * (lx if lx > ly else ly) + math.log1p(math.exp(-2.0 * ad))
        if ldiff < -30.0:
            s = math.exp(ldiff)
            a, b, yx, xy = s, HALF_PI - s, 1.0, HALF_PI * s
        elif ldiff > 30.0:
            s = math.exp(-ldiff)
            a, b, yx, xy = HALF_PI - s, s, HALF_PI * s, 1.0
        else:
            s = math.exp(ldiff)
            a, b = math.atan(s), math.atan(1.0 / s)
            yx, xy = a / s, s * b
        c = self.c1
        return (
            -c * (lr2 - 2.0 + 2.0 * yx),
            c * (lr2 - 2.0 + 2.0 * xy),
            -c * lr2,
            -2.0 * c * a,
            2.0 * c * b,
            c * lr2,
        )

    def velocity(self, x, y):
        """(u, v) at points of the open first quadrant, vectorized."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(x < AXIS_GUARD) or np.any(y < AXIS_GUARD):
            raise NearAxisError("evaluation within the axis guard band")
        rx, ry = self.rates_and_partials(np.log(x), np.log(y))[:2]
        return x * rx, y * ry


EXACT = CrossFieldVariant("exact")
LEADING = CrossFieldVariant("leading")


@dataclass(frozen=True, kw_only=True)
class WedgeRegion:
    """Region {x > x_min} cap {x < y**exponent} cap {y < y_max}.

    At exponent 2 it is the contraction wedge {y > sqrt(x)}; at a ladder's
    seed exponent E it is the admissible seed box {inner < x0 < y0**E,
    y0 < outer}.  Bounds are held as natural logs so the inner scale may sit
    far below float range (the faithful parameter regime); construct with
    :meth:`from_linear` or :meth:`from_log10`.
    """

    log_x_min: float
    log_y_max: float
    exponent: float = 2.0

    @classmethod
    def from_linear(cls, x_min, y_max):
        if not (x_min > 0.0 and y_max > 0.0):  # also NaN
            raise ValueError(f"region scales must be positive, got {x_min}, {y_max}")
        return cls(log_x_min=math.log(x_min), log_y_max=math.log(y_max))

    @classmethod
    def from_log10(cls, log10_x_min, log10_y_max, exponent=2.0):
        return cls(log_x_min=log10_x_min * LN10, log_y_max=log10_y_max * LN10, exponent=exponent)

    @property
    def x_min(self):
        return math.exp(self.log_x_min)

    @property
    def y_max(self):
        return math.exp(self.log_y_max)

    def _bounds_held(self, lx, ly):
        """(x > x_min, x < y**exponent, y < y_max) from log coordinates; elementwise for arrays."""
        return lx > self.log_x_min, lx < self.exponent * ly, ly < self.log_y_max

    def contains_log(self, lx, ly):
        """Membership from log coordinates; elementwise for arrays."""
        above, power, below = self._bounds_held(lx, ly)
        return above & power & below

    def violations(self, x, y):
        """Names of the bounds the point (x, y) fails, decided in logs; empty if inside."""
        if x <= 0.0 or y <= 0.0:
            return ["positive_coordinates"]
        held = self._bounds_held(math.log(x), math.log(y))
        names = ("x0_above_inner_scale", "x0_below_y0_power", "y0_below_outer_scale")
        return [name for name, ok in zip(names, held) if not ok]

    def sample(self, count, rng):
        """Random interior points: x uniform in range, then y above x**(1/exponent)."""
        hi_x = min(self.y_max**self.exponent, 1.0)
        if hi_x <= self.x_min:
            raise ValueError("empty region")
        pts = np.empty((count, 2))
        for i in range(count):
            x = rng.uniform(self.x_min, hi_x)
            pts[i] = (x, rng.uniform(x ** (1.0 / self.exponent), self.y_max))
        return pts

    def sample_log_uniform(self, count, rng):
        """Points drawn uniformly in log10, kept off the bounds by decade margins.

        log10 y lies 0.005 to 0.15 below log10 y_max; log10 x lies 0.1 above
        log10 x_min and 0.05 below exponent * log10 y.
        """
        lo, top, E = self.log_x_min / LN10 + 0.1, self.log_y_max / LN10, self.exponent
        # the x bound E ly - 0.05 is monotone in ly, so its larger end decides emptiness
        if max(E * (top - 0.15), E * (top - 0.005)) - 0.05 <= lo:
            raise LadderError(["seed_box_effectively_empty"])
        points = []
        for _ in range(1000 * count):
            if len(points) == count:
                break
            ly = rng.uniform(top - 0.15, top - 0.005)
            hi = E * ly - 0.05
            if hi > lo:
                points.append((10.0 ** rng.uniform(lo, hi), 10.0**ly))
        if len(points) < count:
            raise LadderError(["seed_box_effectively_empty"])
        return points


@dataclass(frozen=True)
class FlowPerturbation:
    """Smooth admissible drift (nu1, nu2)(x, y, t) with size scale upsilon.

    The integrators read the drift through :meth:`terms`, in log coordinates.
    ``exact_terms(lx, ly, t)``, when given, supplies those terms in closed
    form and holds below float range; otherwise they come from ``nu1`` and
    ``nu2`` at the linear point, with central-difference partials.
    """

    nu1: object = None
    nu2: object = None
    upsilon: float = 0.0
    exact_terms: object = None

    def eval(self, x, y, t):
        n1 = self.nu1(x, y, t) if self.nu1 is not None else np.zeros_like(np.asarray(x, float))
        n2 = self.nu2(x, y, t) if self.nu2 is not None else np.zeros_like(np.asarray(x, float))
        return n1, n2

    @property
    def is_zero(self):
        return self.nu1 is None and self.nu2 is None and self.exact_terms is None

    def terms(self, lx, ly, t):
        """(nu1/x, nu2/y, d nu1/dx, d nu1/dy, d nu2/dx, d nu2/dy) at (e^lx, e^ly).

        Floats or arrays.  Without ``exact_terms`` the drift is evaluated at
        x = e^lx and y = e^ly, and NearAxisError is raised if either
        underflows to 0.
        """
        if self.exact_terms is not None:
            return self.exact_terms(lx, ly, t)
        exp = math.exp if isinstance(lx, float) else np.exp
        x, y = exp(lx), exp(ly)
        for name, log_v, v in (("x", lx, x), ("y", ly, y)):
            if np.any(v == 0.0):
                raise NearAxisError(
                    f"the drift needs linear x and y, and exp(ln {name}) = "
                    f"exp({float(np.min(log_v)):.6g}) underflowed to 0"
                )
        n1, n2 = self.eval(x, y, t)
        (n1x, n1y), (n2x, n2y) = self.grad_fd(x, y, t)
        return n1 / x, n2 / y, n1x, n1y, n2x, n2y

    def grad_fd(self, x, y, t):
        """Central-difference gradients of both components."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = 1e-6 * np.maximum(np.hypot(x, y), 1e-9)
        out = []
        for f in (self.nu1, self.nu2):
            if f is None:
                out.append((np.zeros_like(x), np.zeros_like(x)))
                continue
            gx = (f(x + d, y, t) - f(x - d, y, t)) / (2.0 * d)
            gy = (f(x, y + d, t) - f(x, y - d, t)) / (2.0 * d)
            out.append((gx, gy))
        return out


ZERO_PERTURBATION = FlowPerturbation()


@dataclass
class TrajectoryPath:
    """Sampled trajectory, its flow-map Jacobian and first wedge exit time, if any."""

    t: np.ndarray
    log_x: np.ndarray
    log_y: np.ndarray
    variant: CrossFieldVariant
    perturbation: FlowPerturbation
    exit_time: float
    jac: np.ndarray  # (N, 2, 2)

    @property
    def x(self):
        return np.exp(self.log_x)

    @property
    def y(self):
        return np.exp(self.log_y)

    @property
    def det_jac(self):
        return (
            self.jac[:, 0, 0] * self.jac[:, 1, 1]
            - self.jac[:, 0, 1] * self.jac[:, 1, 0]
        )

    def write_csv(self, path):
        """Columns t,x,y,xa,ya,xb,yb,detJ through ``series.write_table``."""
        cols = ["t", "x", "y", "xa", "ya", "xb", "yb", "detJ"]
        jac = self.jac
        tail = [jac[:, 0, 0], jac[:, 1, 0], jac[:, 0, 1], jac[:, 1, 1], self.det_jac]
        write_table(path, cols, np.column_stack([self.t, self.x, self.y] + tail))


def _check_start(p0, region, p0_is_log):
    if p0_is_log:
        lx, ly = float(p0[0]), float(p0[1])
    else:
        x0, y0 = float(p0[0]), float(p0[1])
        if x0 < AXIS_GUARD or y0 < AXIS_GUARD:
            raise NearAxisError(f"start {p0} lies in the axis guard band")
        lx, ly = math.log(x0), math.log(y0)
    if region is not None and not region.contains_log(lx, ly):
        raise ValueError(f"start {p0} is outside the wedge region")
    return lx, ly


def rk4_steps(rhs, state, T, dt):
    """Classical RK4 from t = 0 to T in fixed steps of dt; yields (t, state).

    ``state`` is a tuple whose entries are floats or arrays, and
    ``rhs(state, t)`` returns a tuple of the same shape.  The last step is
    T - t, so the final t is T exactly.  Consumers stop early by leaving the
    loop.
    """
    if not dt > 0.0:  # also NaN
        raise ValueError(f"dt must be positive, got {dt}")
    if not math.isfinite(T):
        raise ValueError(f"T must be finite, got {T}")
    n_steps = max(1, int(math.ceil(T / dt - 1e-12)))
    t = 0.0
    for i in range(1, n_steps + 1):
        h = dt if i < n_steps else T - t
        if h <= 0.0:
            return
        k1 = rhs(state, t)
        k2 = rhs(tuple(s + 0.5 * h * k for s, k in zip(state, k1)), t + 0.5 * h)
        k3 = rhs(tuple(s + 0.5 * h * k for s, k in zip(state, k2)), t + 0.5 * h)
        k4 = rhs(tuple(s + h * k for s, k in zip(state, k3)), t + h)
        state = tuple(
            s + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)
        )
        t += h
        yield t, state


def _check_jacobian(jac_entries):
    if not np.all(np.abs(jac_entries) <= 1e250):  # NaN fails too
        raise OverflowError(
            "flow-map Jacobian left float range; shorten T or relax the data"
        )


def integrate_variational(
    p0,
    T,
    perturbation=ZERO_PERTURBATION,
    variant=EXACT,
    region=None,
    dt=1e-3,
    p0_is_log=False,
):
    """RK4 path of (x, y) and its full 2x2 flow-map Jacobian.

    Integration runs in log coordinates through :func:`rk4_steps`; with
    ``p0_is_log`` the start is given as (ln x0, ln y0), which admits the
    faithful regime's sub-float scales.  If a region is supplied, the first
    time the point leaves it is recorded and integration continues to T.

    The Jacobian obeys J' = A J with A the analytic partials of the variant
    plus the perturbation's partials from :meth:`FlowPerturbation.terms`
    (exact when it carries log-form terms, central differences otherwise);
    J(0) = I, so the first column is (x_a, y_a), the derivative with respect
    to the initial horizontal coordinate.  For the divergence-free exact
    variant det J stays at 1, which the caller can use as a free consistency
    check.

    This is the single-start fast path on plain floats; a family of starts
    goes through :func:`integrate_variational_batch` in one vectorised loop.
    """
    lx, ly = _check_start(p0, region, p0_is_log)
    state = (lx, ly, 1.0, 0.0, 0.0, 1.0)  # lnx, lny, J11, J12, J21, J22
    drift_free = perturbation.is_zero

    def rhs(s, t_):
        lx_, ly_, j11, j12, j21, j22 = s
        rx, ry, ux, uy, vx, vy = variant.rates_and_partials_scalar(lx_, ly_)
        if not drift_free:
            d1, d2, n1x, n1y, n2x, n2y = perturbation.terms(lx_, ly_, t_)
            rx += float(d1)
            ry += float(d2)
            ux += float(n1x)
            uy += float(n1y)
            vx += float(n2x)
            vy += float(n2y)
        return (
            rx,
            ry,
            ux * j11 + uy * j21,
            ux * j12 + uy * j22,
            vx * j11 + vy * j21,
            vx * j12 + vy * j22,
        )

    ts = [0.0]
    states = [state]
    exit_time = None
    for t, state in rk4_steps(rhs, state, T, dt):
        ts.append(t)
        states.append(state)
        if exit_time is None and region is not None and not region.contains_log(
            state[0], state[1]
        ):
            exit_time = t
        _check_jacobian(state[2:])
    arr = np.asarray(states)
    jac = arr[:, 2:].reshape(-1, 2, 2)
    return TrajectoryPath(
        np.asarray(ts),
        arr[:, 0],
        arr[:, 1],
        variant,
        perturbation,
        exit_time,
        jac=jac,
    )


def integrate_variational_batch(
    starts,
    T,
    perturbation=ZERO_PERTURBATION,
    variant=EXACT,
    region=None,
    dt=1e-3,
):
    """:func:`integrate_variational` for every start at once; one path per start.

    :func:`rk4_steps` advances a (6, count) state -- ln x, ln y, J11, J12,
    J21, J22 -- as a 1-tuple, with each right-hand side evaluated once per
    stage for all starts.  The scalar path's guards hold per start: every
    start is checked against the axis band and the region, each path records
    its own first exit time, and a Jacobian entry above 1e250 or NaN in any
    path raises OverflowError.
    """
    logs = [_check_start(p0, region, False) for p0 in starts]
    count = len(logs)
    state = np.zeros((6, count))
    state[:2] = np.asarray(logs, dtype=float).reshape(count, 2).T
    state[2] = state[5] = 1.0
    drift_free = perturbation.is_zero

    def rhs(s, t_):
        lx_, ly_, j11, j12, j21, j22 = s[0]
        rx, ry, ux, uy, vx, vy = variant.rates_and_partials(lx_, ly_)
        if not drift_free:
            d1, d2, n1x, n1y, n2x, n2y = perturbation.terms(lx_, ly_, t_)
            rx = rx + d1
            ry = ry + d2
            ux = ux + n1x
            uy = uy + n1y
            vx = vx + n2x
            vy = vy + n2y
        return (
            np.array(
                (
                    rx,
                    ry,
                    ux * j11 + uy * j21,
                    ux * j12 + uy * j22,
                    vx * j11 + vy * j21,
                    vx * j12 + vy * j22,
                )
            ),
        )

    ts = [0.0]
    history = [state]
    exit_times = [None] * count
    # the 1e250/NaN guard reports an overflow; numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t, (state,) in rk4_steps(rhs, (state,), T, dt):
            ts.append(t)
            history.append(state)
            if region is not None:
                for i in np.flatnonzero(~region.contains_log(state[0], state[1])):
                    if exit_times[i] is None:
                        exit_times[i] = t
            _check_jacobian(state[2:])
    per_start = np.ascontiguousarray(np.transpose(history, (2, 0, 1)))
    t_arr = np.asarray(ts)
    return [
        TrajectoryPath(
            t_arr,
            arr[:, 0],
            arr[:, 1],
            variant,
            perturbation,
            exit_times[i],
            jac=arr[:, 2:].reshape(-1, 2, 2),
        )
        for i, arr in enumerate(per_start)
    ]


def contraction_floor(T, y0, envelope_constant):
    """Natural log e^T (ln y0 - C) of the lower envelope exp(e^T (ln y0 - C)).

    The log never underflows, however deep the contraction.
    """
    if not (0.0 < y0 < 1.0):
        raise ValueError("y0 must lie in (0, 1)")
    return math.exp(T) * (math.log(y0) - envelope_constant)


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    value_margin: float  # min over samples of bound/|nu| (>= 1 passes)
    grad_margin: float
    value_witness: tuple = None


def check_perturbation_admissible(perturbation, region, t_max=1.0, seed=0):
    """Check |nu| < 1e-4 u r and |grad nu| < 1e-4 u at 200 points of the region.

    Gradients use central differences.  Returns the worst margins and the
    point of the worst value ratio; a zero perturbation passes with infinite
    margin, and any other needs a finite upsilon > 0.
    """
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    if perturbation.is_zero:
        return AdmissibilityReport(True, math.inf, math.inf)
    if not 0.0 < perturbation.upsilon < math.inf:  # a bound <= 0 would pass any drift
        raise ValueError(f"upsilon must be finite and positive, got {perturbation.upsilon}")
    rng = PCG64Stream(seed)
    pts = region.sample(200, rng)
    ts = rng.uniform(0.0, t_max, size=len(pts))
    x, y = pts[:, 0], pts[:, 1]
    r = np.hypot(x, y)
    ubound = 1e-4 * perturbation.upsilon
    n1, n2 = perturbation.eval(x, y, ts)
    value_ratio = np.maximum(np.abs(n1), np.abs(n2)) / (ubound * r)
    grads = perturbation.grad_fd(x, y, ts)
    gmag = np.maximum(
        np.hypot(grads[0][0], grads[0][1]), np.hypot(grads[1][0], grads[1][1])
    )
    iv = int(np.argmax(value_ratio))
    vmax = float(value_ratio[iv])
    gmax = float(np.max(gmag / ubound))

    def margin(ratio):
        return math.inf if ratio == 0.0 else 1.0 / ratio

    return AdmissibilityReport(
        passed=(vmax < 1.0 and gmax < 1.0),
        value_margin=margin(vmax),
        grad_margin=margin(gmax),
        value_witness=(float(x[iv]), float(y[iv]), float(ts[iv])),
    )


@dataclass(frozen=True)
class BoundFit:
    """Smallest envelope constant making the drift bounds hold along a path."""

    fitted_C: float
    required: DiagnosticSeries


def fit_leading_order_bound(path):
    """Fit the constant C in the two-sided leading-order drift bounds.

    Along the path, x(-ln y - C) - u y < x' < x(-ln y + C) + u y and
    -y(|ln y| + C) < y' < -y(|ln y| - C); the smallest C making every sample
    pass is returned together with the per-sample requirement.  For a leading
    variant path with zero perturbation the fit is zero to rounding.
    """
    lx, ly, t = path.log_x, path.log_y, path.t
    if path.exit_time is not None:
        keep = t <= path.exit_time + 1e-15  # the bounds only apply inside the wedge
        lx, ly, t = lx[keep], ly[keep], t[keep]
    rate_x, rate_y = path.variant.rates_and_partials(lx, ly)[:2]  # x'/x, y'/y
    if not path.perturbation.is_zero:
        dx, dy = path.perturbation.terms(lx, ly, t)[:2]
        rate_x = rate_x + dx
        rate_y = rate_y + dy
    # bounds divided through by x (resp. y), in log-stable form:
    # |x'/x + ln y| <= C + u y/x  and  |y'/y + |ln y|| <= C
    y_over_x = np.exp(np.minimum(ly - lx, 700.0))
    need_x = np.abs(rate_x + ly) - path.perturbation.upsilon * y_over_x
    need_y = np.abs(rate_y - ly)  # ln y < 0 in the wedge, |ln y| = -ln y
    need = np.maximum(np.maximum(need_x, 0.0), need_y)
    series = DiagnosticSeries("required_envelope_C", t, need)
    return BoundFit(float(np.max(need)), series)

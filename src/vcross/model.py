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
both hold for starts far below float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import DiagnosticSeries, write_table

AXIS_GUARD = 1e-12
HALF_PI = math.pi / 2.0


class NearAxisError(ValueError):
    """Evaluation requested on or beyond the logarithmic singularity."""


@dataclass(frozen=True)
class CrossFieldVariant:
    """Velocity field of the cross near the origin: exact or leading form."""

    kind: str = "exact"
    c1: float = 0.5
    c2: float = 1.0

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
        lr2 = 2.0 * np.maximum(lx, ly) + np.log1p(np.exp(-2.0 * np.abs(ldiff)))
        # a = arctan(x/y), b = arctan(y/x), yx = (y/x) a, xy = (x/y) b
        a, b, yx, xy = (np.empty_like(ldiff) for _ in range(4))
        lo = ldiff < -30.0  # x much smaller than y
        hi = ldiff > 30.0
        mid = ~(lo | hi)
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

    def jacobian(self, x, y):
        """Analytic partials ((u_x, u_y), (v_x, v_y)) at linear points, vectorized."""
        _, _, ux, uy, vx, vy = self.rates_and_partials(np.log(x), np.log(y))
        return (ux, uy), (vx, vy)

    def log_rates_scalar(self, lx, ly):
        """(u/x, v/y) from log coordinates on plain floats."""
        return self.rates_and_partials_scalar(lx, ly)[:2]


EXACT = CrossFieldVariant("exact")
LEADING = CrossFieldVariant("leading")


@dataclass(frozen=True)
class WedgeRegion:
    """Validity region {y > sqrt(x)} cap {y < y_max} cap {x > x_min}.

    Bounds are held as natural logs so the inner scale may sit far below
    float range (the faithful parameter regime); construct from linear values
    or via :meth:`from_log10`.
    """

    log_x_min: float
    log_y_max: float

    def __init__(self, x_min=None, y_max=None, *, log_x_min=None, log_y_max=None):
        if log_x_min is None:
            if x_min is None or x_min <= 0.0:
                raise ValueError("region scales must be positive")
            log_x_min = math.log(x_min)
        if log_y_max is None:
            if y_max is None or y_max <= 0.0:
                raise ValueError("region scales must be positive")
            log_y_max = math.log(y_max)
        object.__setattr__(self, "log_x_min", float(log_x_min))
        object.__setattr__(self, "log_y_max", float(log_y_max))

    @classmethod
    def from_log10(cls, log10_x_min, log10_y_max):
        return cls(
            log_x_min=log10_x_min * math.log(10.0),
            log_y_max=log10_y_max * math.log(10.0),
        )

    @property
    def x_min(self):
        return math.exp(self.log_x_min)

    @property
    def y_max(self):
        return math.exp(self.log_y_max)

    def contains(self, x, y):
        if x <= 0.0 or y <= 0.0:
            return False
        return self.contains_log(math.log(x), math.log(y))

    def contains_log(self, lx, ly):
        """Membership from log coordinates; elementwise for arrays."""
        return (lx > self.log_x_min) & (ly < self.log_y_max) & (ly > 0.5 * lx)

    def sample(self, count, rng):
        """Random interior points: x uniform in range, then y above sqrt(x)."""
        hi_x = min(self.y_max**2, 1.0)
        if hi_x <= self.x_min:
            raise ValueError("empty region")
        pts = np.empty((count, 2))
        for i in range(count):
            x = rng.uniform(self.x_min, hi_x)
            lo_y = math.sqrt(x)
            pts[i] = (x, rng.uniform(lo_y, self.y_max))
        return pts


@dataclass(frozen=True)
class FlowPerturbation:
    """Smooth admissible drift (nu1, nu2)(x, y, t) with size scale upsilon."""

    nu1: object = None
    nu2: object = None
    upsilon: float = 0.0

    def eval(self, x, y, t):
        n1 = self.nu1(x, y, t) if self.nu1 is not None else np.zeros_like(np.asarray(x, float))
        n2 = self.nu2(x, y, t) if self.nu2 is not None else np.zeros_like(np.asarray(x, float))
        return n1, n2

    @property
    def is_zero(self):
        return self.nu1 is None and self.nu2 is None

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
    """Sampled trajectory with the first exit time from the wedge, if any."""

    t: np.ndarray
    log_x: np.ndarray
    log_y: np.ndarray
    variant: CrossFieldVariant
    perturbation: FlowPerturbation
    region: object = None
    exit_time: float = None
    jac: np.ndarray = None  # (N, 2, 2) when variational data was requested

    @property
    def x(self):
        return np.exp(self.log_x)

    @property
    def y(self):
        return np.exp(self.log_y)

    @property
    def det_jac(self):
        if self.jac is None:
            return None
        return (
            self.jac[:, 0, 0] * self.jac[:, 1, 1]
            - self.jac[:, 0, 1] * self.jac[:, 1, 0]
        )

    def write_csv(self, path):
        """Columns t,x,y,xa,ya,xb,yb,detJ through ``series.write_table``."""
        cols = ["t", "x", "y", "xa", "ya", "xb", "yb", "detJ"]
        if self.jac is not None:
            jac = self.jac
            tail = [jac[:, 0, 0], jac[:, 1, 0], jac[:, 0, 1], jac[:, 1, 1], self.det_jac]
        else:
            tail = [np.full(self.t.size, v) for v in (1.0, 0.0, 0.0, 1.0, 1.0)]
        write_table(path, cols, np.column_stack([self.t, self.x, self.y] + tail))


def _drift_log_rates(pert, lx, ly, t):
    """(nu1/x, nu2/y) evaluated through the log coordinates."""
    if pert.is_zero:
        return 0.0, 0.0
    x = np.exp(lx)
    y = np.exp(ly)
    n1, n2 = pert.eval(x, y, t)
    return n1 / x, n2 / y


def _linear_point(lx, ly):
    """(e^lx, e^ly) for a drift evaluation; NearAxisError if either is 0.0."""
    x, y = math.exp(lx), math.exp(ly)
    for name, log_v, v in (("x", lx, x), ("y", ly, y)):
        if v == 0.0:
            raise NearAxisError(
                f"the drift needs linear x and y, and exp(ln {name}) = "
                f"exp({log_v:.6g}) underflowed to 0"
            )
    return x, y


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
    if dt <= 0.0:
        raise ValueError("dt must be positive")
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


def integrate_trajectory(
    p0,
    T,
    perturbation=ZERO_PERTURBATION,
    variant=EXACT,
    region=None,
    dt=1e-3,
    p0_is_log=False,
):
    """RK4 path of (x, y) under the chosen variant plus perturbation.

    Integration runs in log coordinates through :func:`rk4_steps`; with
    ``p0_is_log`` the start is given as (ln x0, ln y0), which admits the
    faithful regime's sub-float scales.  If a region is supplied, the first
    time the point leaves it is recorded; integration continues to T
    regardless, stopping early only if log x would overflow float range.
    """
    lx, ly = _check_start(p0, region, p0_is_log)
    drift_free = perturbation.is_zero

    def rates(s, t_):
        rx, ry = variant.rates_and_partials_scalar(*s)[:2]
        if not drift_free:
            x, y = _linear_point(*s)
            n1, n2 = perturbation.eval(x, y, t_)
            rx += float(n1) / x
            ry += float(n2) / y
        return rx, ry

    ts = [0.0]
    lxs = [lx]
    lys = [ly]
    exit_time = None
    for t, (lx, ly) in rk4_steps(rates, (lx, ly), T, dt):
        ts.append(t)
        lxs.append(lx)
        lys.append(ly)
        if exit_time is None and region is not None and not region.contains_log(lx, ly):
            exit_time = t
        if lx > 700.0 or ly < -700.0:
            break
    return TrajectoryPath(
        np.asarray(ts),
        np.asarray(lxs),
        np.asarray(lys),
        variant,
        perturbation,
        region,
        exit_time,
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
    """Co-integrate the position and the full 2x2 flow-map Jacobian.

    The Jacobian obeys J' = A J with A the analytic partials of the variant
    plus central-difference partials of the perturbation; J(0) = I, so the
    first column is (x_a, y_a), the derivative with respect to the initial
    horizontal coordinate.  For the divergence-free exact variant det J stays
    at 1, which the caller can use as a free consistency check.

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
            x, y = _linear_point(lx_, ly_)
            n1, n2 = perturbation.eval(x, y, t_)
            rx += float(n1) / x
            ry += float(n2) / y
            (n1x, n1y), (n2x, n2y) = perturbation.grad_fd(x, y, t_)
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
        region,
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
            x, y = np.exp(lx_), np.exp(ly_)
            n1, n2 = perturbation.eval(x, y, t_)
            rx = rx + n1 / x
            ry = ry + n2 / y
            (n1x, n1y), (n2x, n2y) = perturbation.grad_fd(x, y, t_)
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
            region,
            exit_times[i],
            jac=arr[:, 2:].reshape(-1, 2, 2),
        )
        for i, arr in enumerate(per_start)
    ]


def contraction_floor(T, y0, envelope_constant, as_log=False):
    """Lower envelope exp(e^T (ln y0 - C)) for the contracted coordinate.

    With ``as_log`` the natural logarithm e^T (ln y0 - C) is returned, which
    never underflows however deep the contraction.
    """
    if not (0.0 < y0 < 1.0):
        raise ValueError("y0 must lie in (0, 1)")
    log_val = math.exp(T) * (math.log(y0) - envelope_constant)
    if as_log:
        return log_val
    return math.exp(log_val) if log_val > -745.0 else 0.0


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    value_margin: float  # min over samples of bound/|nu| (>= 1 passes)
    grad_margin: float
    value_witness: tuple = None
    grad_witness: tuple = None
    samples: int = 0


def check_perturbation_admissible(perturbation, region, samples=200, t_max=1.0, seed=0):
    """Sample the region and check |nu| < 1e-4 u r and |grad nu| < 1e-4 u.

    Gradients use central differences.  Returns worst margins and witness
    points; a zero perturbation passes with infinite margin.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    if perturbation.is_zero:
        return AdmissibilityReport(True, math.inf, math.inf, samples=samples)
    rng = np.random.default_rng(seed)
    pts = region.sample(samples, rng)
    ts = rng.uniform(0.0, t_max, size=samples)
    x, y = pts[:, 0], pts[:, 1]
    r = np.hypot(x, y)
    ubound = 1e-4 * perturbation.upsilon
    n1, n2 = perturbation.eval(x, y, ts)
    value_ratio = np.maximum(np.abs(n1), np.abs(n2)) / (ubound * r)
    grads = perturbation.grad_fd(x, y, ts)
    gmag = np.maximum(
        np.hypot(grads[0][0], grads[0][1]), np.hypot(grads[1][0], grads[1][1])
    )
    grad_ratio = gmag / ubound
    iv = int(np.argmax(value_ratio))
    ig = int(np.argmax(grad_ratio))
    vmax = float(value_ratio[iv])
    gmax = float(grad_ratio[ig])

    def margin(ratio):
        return math.inf if ratio == 0.0 else 1.0 / ratio

    return AdmissibilityReport(
        passed=(vmax < 1.0 and gmax < 1.0),
        value_margin=margin(vmax),
        grad_margin=margin(gmax),
        value_witness=(float(x[iv]), float(y[iv]), float(ts[iv])),
        grad_witness=(float(x[ig]), float(y[ig]), float(ts[ig])),
        samples=samples,
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
    rx, ry = path.variant.rates_and_partials(lx, ly)[:2]
    dx, dy = _drift_log_rates(path.perturbation, lx, ly, t)
    rate_x = rx + dx  # x'/x
    rate_y = ry + dy  # y'/y
    # bounds divided through by x (resp. y), in log-stable form:
    # |x'/x + ln y| <= C + u y/x  and  |y'/y + |ln y|| <= C
    y_over_x = np.exp(np.minimum(ly - lx, 700.0))
    need_x = np.abs(rate_x + ly) - path.perturbation.upsilon * y_over_x
    need_y = np.abs(rate_y - ly)  # ln y < 0 in the wedge, |ln y| = -ln y
    need = np.maximum(np.maximum(need_x, 0.0), need_y)
    series = DiagnosticSeries("required_envelope_C", t, need)
    return BoundFit(float(np.max(need)), series)

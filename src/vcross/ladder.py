"""Resolution of the construction's parameter ladder in log space.

The chain horizon -> outer scale -> inner scale -> {drift bound, cross width,
mollifier width} involves quantities like eps2**(8*exp(2*T)) that underflow
any float format for honest inputs, so every value is stored and every
inequality checked as a base-10 logarithm.  Faithful mode keeps the full
exponents and never materializes the numbers; relaxed mode caps the exponents
so values stay above 1e-8 and is flagged as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LN10 = math.log(10.0)
RELAXED_FLOOR_LOG10 = -8.0
SLACK_LOG10 = 1.0  # "much less than" realized as <= with a factor-10 margin

# the growth-factor row calibrates how much amplification the chain claims;
# it does not gate the chain's internal validity, so it is report-only
ADVISORY_CONSTRAINTS = ("outer_vs_growth_factor",)


class LadderError(ValueError):
    """Raised for contradictory overrides; lists the violated inequalities."""

    def __init__(self, violated):
        self.violated = list(violated)
        super().__init__("ladder constraints violated: " + ", ".join(self.violated))


class LadderUnderflowError(OverflowError):
    """A faithful-mode value was asked for as a float it cannot be."""


@dataclass(frozen=True)
class ConstraintStatus:
    name: str
    log10_lhs: float
    log10_rhs: float
    satisfied: bool

    @property
    def slack_log10(self):
        return self.log10_rhs - self.log10_lhs


@dataclass(frozen=True)
class ParameterLadder:
    """All scales as log10 values plus the horizon and growth factor.

    ``seed_exponent`` is the power E of the admissible initial box
    {inner < x0 < y0**E, y0 < outer}, a ``model.WedgeRegion`` at exponent E:
    the full 8*exp(2T) in faithful mode, a confinement-preserving cap in
    relaxed mode, and at least 2 when overridden.
    """

    horizon: float
    growth_factor: float
    mode: str
    log10_outer: float
    log10_inner: float
    log10_drift: float
    log10_cross_width: float
    log10_mollifier: float
    seed_exponent: float

    _FIELDS = {
        "outer": "log10_outer",
        "inner": "log10_inner",
        "drift": "log10_drift",
        "cross_width": "log10_cross_width",
        "mollifier": "log10_mollifier",
    }

    def log10_value(self, name):
        return getattr(self, self._FIELDS[name])

    def value(self, name):
        """Materialize a scale as a float; faithful-mode scales never are."""
        lg = self.log10_value(name)
        if self.mode == "faithful" or lg < -300.0:
            raise LadderUnderflowError(
                f"{name} = 10**{lg:.4g} is not materialized in {self.mode} mode; "
                "use log10_value or a relaxed ladder"
            )
        return 10.0**lg

    @property
    def is_faithful(self):
        return self.mode == "faithful"

    def constraint_report(self):
        """Evaluate every ladder inequality in log space."""
        T = self.horizon
        l2, l1 = self.log10_outer, self.log10_inner
        lu, lt = self.log10_drift, self.log10_cross_width
        ls = self.log10_mollifier
        full_exponent = 8.0 * math.exp(2.0 * T)
        abs_ln_outer = abs(l2) * LN10
        abs_ln_tau = abs(lt) * LN10
        rows = [
            ("inner_below_outer_power", l1, full_exponent * l2),
            ("drift_monotonicity", lu, l1 + math.log10(abs_ln_outer) - l2),
            ("drift_confinement", lu, 10.0 * l1),
            ("drift_vs_horizon", lu, -math.log10(T + 1.0) - SLACK_LOG10),
            (
                "cross_width_bound",
                -2.0 * l1 + lt + math.log10(abs_ln_tau),
                10.0 * l1,
            ),
            ("mollifier_below_inner", ls, l1 - SLACK_LOG10),
            (
                "outer_vs_growth_factor",
                l2,
                -2.0 * math.log10(self.growth_factor) - SLACK_LOG10,
            ),
        ]
        return [
            ConstraintStatus(name, lhs, rhs, lhs < rhs + 1e-12) for name, lhs, rhs in rows
        ]

    def violated_constraints(self, enforced_only=False):
        return [
            c.name
            for c in self.constraint_report()
            if not c.satisfied
            and not (enforced_only and c.name in ADVISORY_CONSTRAINTS)
        ]

    def serialize(self):
        """Flat key = value text; scale entries are log10 values."""
        lines = [
            f"mode = {self.mode}",
            f"horizon = {self.horizon!r}",
            f"growth_factor = {self.growth_factor!r}",
            f"seed_exponent = {self.seed_exponent!r}",
        ]
        for name, attr in self._FIELDS.items():
            lines.append(f"log10_{name} = {getattr(self, attr)!r}")
        return "\n".join(lines) + "\n"


def _solve_cross_width(l1):
    """Largest log10 tau with tau |ln tau| <= inner**12 and 10x slack."""
    lt = 12.0 * l1 - SLACK_LOG10
    for _ in range(4):
        lt = 12.0 * l1 - SLACK_LOG10 - math.log10(max(1.0, LN10 * abs(lt)))
    return lt


def relaxed_seed_exponent(T, log10_outer):
    """Cap on the seed-box exponent that still confines trajectories to T.

    Derived from the contraction law ln y(t) = 1 + (ln y0 - 1) e^t and the
    horizontal stretch it implies; two extra factors of ten of margin.
    """
    eT = math.exp(T)
    abs_ln_outer = abs(log10_outer) * LN10
    cap = (3.0 * eT - 1.0) + (3.0 * eT - 2.0 - T) / max(abs_ln_outer, 1e-6) + 2.0
    return min(8.0 * math.exp(2.0 * T), cap)


def resolve_ladder(horizon, growth_factor=10.0, mode="faithful", overrides=None):
    """Resolve every scale of the ladder for the given horizon and factor.

    Faithful mode returns log-space values satisfying every inequality with a
    recorded factor-10 slack; the numbers themselves are far below float range
    and are never materialized.  Relaxed mode returns float-safe values (all
    >= 1e-8) with the same ordering and a capped seed exponent, and its
    constraint report shows which full-regime inequalities the caps give up.

    ``overrides`` maps scale names (outer, inner, drift, cross_width,
    mollifier) to log10 values; contradictory overrides raise
    :class:`LadderError` naming the violated inequalities.
    """
    if not 0.0 < horizon < math.inf:  # also NaN
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if not 1.0 < growth_factor < math.inf:
        raise ValueError(f"growth factor must be finite and exceed 1, got {growth_factor}")
    if mode not in ("faithful", "relaxed"):
        raise ValueError(f"unknown ladder mode {mode!r}")
    overrides = dict(overrides or {})
    for name, value in overrides.items():
        if not math.isfinite(value):
            raise ValueError(f"ladder override {name} must be finite, got {value}")
    if overrides.get("outer", 0.0) > 0.0:  # the wedge lies inside the unit square
        lg = overrides["outer"]
        raise ValueError(f"ladder override outer must be at most 1, got 10**{lg:.6g}")
    T = horizon
    # seed-box exponent may be pinned by callers that know their regime is
    # confined more tightly than the conservative default cap
    exponent_override = overrides.pop("seed_exponent", None)

    if mode == "faithful":
        l2 = overrides.pop(
            "outer", min(-1.0, -2.0 * math.log10(growth_factor) - SLACK_LOG10)
        )
        exponent = 8.0 * math.exp(2.0 * T)
        l1 = overrides.pop("inner", exponent * l2 - SLACK_LOG10)
        abs_ln_outer = abs(l2) * LN10
        lu = overrides.pop(
            "drift",
            min(
                10.0 * l1 - SLACK_LOG10,
                l1 + math.log10(abs_ln_outer) - l2 - SLACK_LOG10,
                -math.log10(T + 1.0) - 2.0 * SLACK_LOG10,
            ),
        )
        lt = overrides.pop("cross_width", _solve_cross_width(l1))
        ls = overrides.pop("mollifier", l1 - 2.0 * SLACK_LOG10)
    else:
        l2 = overrides.pop("outer", math.log10(0.5))
        l1 = overrides.pop("inner", -7.0)
        lu = overrides.pop("drift", math.log10(3e-8))
        lt = overrides.pop("cross_width", math.log10(3e-8))
        ls = overrides.pop("mollifier", RELAXED_FLOOR_LOG10)
        exponent = relaxed_seed_exponent(T, l2)
        floor = RELAXED_FLOOR_LOG10 - 1e-12
        if min(l1, lu, lt, ls) < floor or l2 < floor:
            raise LadderError(["relaxed_floor"])
        if not (l1 < l2 and lu < l1 and lt < l1 and ls < l1):
            raise LadderError(["relaxed_ordering"])

    if overrides:
        raise ValueError(f"unknown ladder overrides: {sorted(overrides)}")
    if exponent_override is not None:
        if exponent_override < 2.0:  # for y0 < 1 only E >= 2 keeps x0 < y0**E in y > sqrt(x)
            raise ValueError(
                f"ladder override seed_exponent must be at least 2, got {exponent_override}: "
                "a seed box {x0 < y0**E} with E < 2 leaves the wedge {y > sqrt(x)}"
            )
        exponent = min(float(exponent_override), 8.0 * math.exp(2.0 * T))

    ladder = ParameterLadder(
        horizon=T,
        growth_factor=growth_factor,
        mode=mode,
        log10_outer=l2,
        log10_inner=l1,
        log10_drift=lu,
        log10_cross_width=lt,
        log10_mollifier=ls,
        seed_exponent=exponent,
    )
    if mode == "faithful":
        violated = ladder.violated_constraints(enforced_only=True)
        if violated:
            raise LadderError(violated)
    return ladder


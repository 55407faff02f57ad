"""Log-space parameter-ladder algebra: construction, constraints, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcross.ladder import (
    LadderError,
    LadderUnderflowError,
    ParameterLadder,
    relaxed_seed_exponent,
    resolve_ladder,
)
from vcross.model import WedgeRegion

ENFORCED = (
    "inner_below_outer_power",
    "drift_monotonicity",
    "drift_confinement",
    "drift_vs_horizon",
    "cross_width_bound",
    "mollifier_below_inner",
)


class TestFaithful:
    @pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
    def test_all_constraints_with_tenfold_slack(self, T):
        ladder = resolve_ladder(T, 10.0, "faithful")
        report = {c.name: c for c in ladder.constraint_report()}
        for name in ENFORCED:
            assert report[name].satisfied, name
            assert report[name].slack_log10 >= 1.0 - 1e-9, name

    def test_exponent_at_horizon_one(self):
        # 8 e^2 = 59.11...; with outer scale 0.1 the inner scale must sit below
        # that power of ten
        ladder = resolve_ladder(1.0, 2.0, "faithful", overrides={"outer": -1.0})
        assert 8.0 * math.exp(2.0) == pytest.approx(59.112, abs=0.001)
        assert ladder.log10_inner < -59.112
        assert ladder.seed_exponent == pytest.approx(8.0 * math.exp(2.0), rel=1e-12)

    def test_drift_below_tenth_power_of_inner(self):
        ladder = resolve_ladder(1.0, 10.0, "faithful")
        assert ladder.log10_drift <= 10.0 * ladder.log10_inner

    def test_values_never_materialize(self):
        ladder = resolve_ladder(1.0, 10.0, "faithful")
        with pytest.raises(LadderUnderflowError):
            ladder.value("inner")
        # the log representation is always available
        assert ladder.log10_value("inner") < -50.0

    def test_contradictory_override_names_inequality(self):
        with pytest.raises(LadderError) as err:
            resolve_ladder(1.0, 10.0, "faithful", overrides={"drift": -1.0})
        assert "drift_confinement" in err.value.violated

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown ladder overrides"):
            resolve_ladder(1.0, 10.0, "faithful", overrides={"nope": -1.0})

    @settings(max_examples=40, deadline=None)
    @given(
        T=st.floats(0.3, 3.0),
        lam=st.floats(1.5, 1e4),
    )
    def test_property_resolution_always_consistent(self, T, lam):
        ladder = resolve_ladder(T, lam, "faithful")
        report = {c.name: c for c in ladder.constraint_report()}
        for name in ENFORCED + ("outer_vs_growth_factor",):
            assert report[name].satisfied


class TestRelaxed:
    def test_floats_above_floor_with_ordering(self):
        ladder = resolve_ladder(1.0, 10.0, "relaxed")
        for name in ("outer", "inner", "drift", "cross_width", "mollifier"):
            assert ladder.value(name) >= 1e-8
        assert ladder.value("inner") < ladder.value("outer")
        for name in ("drift", "cross_width", "mollifier"):
            assert ladder.value(name) < ladder.value("inner")

    def test_reports_which_chain_constraints_are_given_up(self):
        ladder = resolve_ladder(1.0, 10.0, "relaxed")
        assert "drift_confinement" in ladder.violated_constraints()

    def test_seed_exponent_capped(self):
        ladder = resolve_ladder(1.0, 10.0, "relaxed")
        assert ladder.seed_exponent < 8.0 * math.exp(2.0)
        assert ladder.seed_exponent == pytest.approx(
            relaxed_seed_exponent(1.0, ladder.log10_outer)
        )

    def test_seed_exponent_override(self):
        ladder = resolve_ladder(1.0, 10.0, "relaxed", overrides={"seed_exponent": 5.0})
        assert ladder.seed_exponent == 5.0

    def test_floor_violation_rejected(self):
        with pytest.raises(LadderError):
            resolve_ladder(1.0, 10.0, "relaxed", overrides={"mollifier": -9.5})


class TestSerialization:
    def test_roundtrip(self):
        # every field is written, each float by its repr, so nothing is lost
        ladder = resolve_ladder(1.5, 25.0, "faithful")
        fields = dict(line.split(" = ") for line in ladder.serialize().splitlines())
        mode = fields.pop("mode")
        back = ParameterLadder(mode=mode, **{key: float(v) for key, v in fields.items()})
        assert back == ladder

    def test_log_space_keys(self):
        text = resolve_ladder(1.0, 10.0, "relaxed").serialize()
        assert "log10_inner" in text
        assert "mode = relaxed" in text


def seed_box(ladder):
    return WedgeRegion.from_log10(ladder.log10_inner, ladder.log10_outer, ladder.seed_exponent)


def log10_box_rule(x0, y0, ladder):
    """The seed-box test as it was once decided, in log10: the oracle."""
    lx, ly = math.log10(x0), math.log10(y0)
    held = (
        lx > ladder.log10_inner,
        lx < ladder.seed_exponent * ly,
        ly < ladder.log10_outer,
    )
    names = ("x0_above_inner_scale", "x0_below_y0_power", "y0_below_outer_scale")
    return [name for name, ok in zip(names, held) if not ok]


class TestSeedRegion:
    @pytest.mark.parametrize(
        "mode, lx_range, ly_range",
        [("relaxed", (-8.0, -4.0), (-0.6, 0.0)), ("faithful", (-180.0, -176.0), (-3.1, -2.95))],
    )
    def test_box_agrees_with_the_log10_rule(self, mode, lx_range, ly_range):
        ladder = resolve_ladder(1.0, 10.0, mode)
        box = seed_box(ladder)
        rng = np.random.default_rng(25)
        E = ladder.seed_exponent
        named = set()
        inside = checked = 0
        for lx, ly in rng.uniform(*zip(lx_range, ly_range), size=(2000, 2)):
            sides = ((lx, ladder.log10_inner), (lx, E * ly), (ly, ladder.log10_outer))
            if any(abs(a - b) <= 1e-12 * max(abs(a), abs(b)) for a, b in sides):
                continue  # within rounding of a bound, where log bases may disagree
            x0, y0 = 10.0**lx, 10.0**ly
            bad = box.violations(x0, y0)
            assert bad == log10_box_rule(x0, y0, ladder), (x0, y0)
            named.update(bad)
            inside += not bad
            checked += 1
        assert len(named) == 3 and 0 < inside < checked

    @pytest.mark.parametrize("mode", ["relaxed", "faithful"])
    def test_log_uniform_starts_lie_in_the_box_and_the_wedge(self, mode):
        ladder = resolve_ladder(1.0, 10.0, mode)
        box = seed_box(ladder)
        wedge = WedgeRegion.from_log10(ladder.log10_inner, ladder.log10_outer)
        for x0, y0 in box.sample_log_uniform(200, np.random.default_rng(7)):
            assert box.violations(x0, y0) == []
            assert wedge.violations(x0, y0) == []

    def test_boundaries_excluded(self):
        ladder = resolve_ladder(1.0, 10.0, "relaxed")
        outer = ladder.value("outer")
        inner = ladder.value("inner")
        assert seed_box(ladder).violations(inner, outer / 2.0)  # x0 == inner
        assert seed_box(ladder).violations(2 * inner, outer)  # y0 == outer
        assert "x0_above_inner_scale" in seed_box(ladder).violations(inner, outer / 2.0)
        assert "y0_below_outer_scale" in seed_box(ladder).violations(2 * inner, outer)

    def test_interior_point_accepted(self):
        ladder = resolve_ladder(1.0, 10.0, "relaxed")
        y0 = 0.45
        x0 = 10.0 ** (0.5 * (ladder.log10_inner + ladder.seed_exponent * math.log10(y0)))
        assert not seed_box(ladder).violations(x0, y0)
        assert seed_box(ladder).violations(x0, y0) == []

    def test_faithful_box_is_subfloat(self):
        # every representable float is outside the faithful seed box
        ladder = resolve_ladder(1.0, 10.0, "faithful")
        assert seed_box(ladder).violations(1e-300, 1e-4)

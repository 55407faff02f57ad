"""Member runner: pool sizing, order and failures, and the growth family through it."""

import concurrent.futures
import math
import os
import re
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import vcross.experiments
from vcross.experiments import (
    default_growth_family,
    distinct_growth_family,
    growth_experiment,
    run_growth_member,
    run_members,
)
from vcross.fields import Grid, PointEvenField, ScalarField, UnresolvedScaleError
from vcross.initial_data import BumpSpec, make_bump, mollified_cross
from vcross.solver import SimState, run

MIB = 2**20


class InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs calls inline."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return InlinePool.sizes


def test_pool_size_capped_at_member_count(inline_pool):
    assert run_members(abs, [-1.0, 2.0], 64) == [(1.0, None), (2.0, None)]
    assert run_members(abs, [1.0, -2.0, 3.0, -4.0, 5.0], 3)[3] == (4.0, None)
    assert run_members(abs, [-7.0], 64) == [(7.0, None)]  # one member: no pool
    assert run_members(abs, [], 64) == []
    assert inline_pool == [2, 3]


@pytest.mark.parametrize("workers", [1, 2])
def test_outcomes_in_payload_order_with_failures_kept(workers):
    outcomes = run_members(math.sqrt, [4.0, -1.0, 9.0], workers)
    assert [value for value, _ in outcomes] == [2.0, None, 3.0]
    assert [type(exc) for _, exc in outcomes] == [type(None), ValueError, type(None)]
    assert str(outcomes[1][1]) == "math domain error"


def test_growth_family_matches_serial_members():
    records, _ = growth_experiment(n=256, requested=(50.0, 100.0), T=0.05)
    members = default_growth_family(Grid(256), (50.0, 100.0))
    assert [rec.member for rec in records] == members
    for rec, member in zip(records, members):
        ref = run_growth_member(256, member, T=0.05)
        assert rec.grad0 == ref.grad0
        assert rec.state.time == ref.state.time
        assert np.array_equal(rec.state.theta.values, ref.state.theta.values)
        assert sorted(rec.series) == sorted(ref.series)
        for name, series in ref.series.items():
            assert np.array_equal(rec.series[name].t, series.t)
            assert np.array_equal(rec.series[name].values, series.values)


def test_member_from_compact_data_matches_a_run_from_its_values():
    # c07's steepness-200 member at n = 256; only the t = 0 samples, taken on
    # the half grid from the compact data, may move, at rounding level
    grid = Grid(256)
    member = default_growth_family(grid)[-1]
    compact = run_growth_member(256, member, T=0.125)
    spec = BumpSpec(member.center, member.support, member.height)
    values = mollified_cross(grid, member.sigma).values + make_bump(grid, spec).values
    ref = run(SimState(ScalarField.from_values(grid, values)), 0.125, sample_every=0.0625)
    assert sorted(compact.series) == sorted(ref.series)
    for name, series in ref.series.items():
        got = compact.series[name].values
        assert len(got) == 3 and np.array_equal(got[1:], series.values[1:]), name
        assert abs(got[0] - series.values[0]) <= 1e-14 * abs(series.values[0]), name
    assert np.array_equal(compact.state.theta.values, ref.state.theta.values)


def test_grad0_is_the_runs_own_first_sample(monkeypatch):
    # grad_sup is evaluated once at t = 0, by the run, not again for grad0
    fields, gradient = [], PointEvenField.gradient_arrays

    def spy(field):
        fields.append(field)
        return gradient(field)

    monkeypatch.setattr(PointEvenField, "gradient_arrays", spy)
    member = default_growth_family(Grid(256))[-1]
    record = run_growth_member(256, member, T=0.0625)
    assert sum(field is fields[0] for field in fields) == 1
    assert record.grad0 == record.series["grad_sup"].values[0]
    # a zero-length run takes no sample, and grad0 is evaluated on its own
    assert run_growth_member(256, member, T=0.0).grad0 == record.grad0


def test_growth_member_holds_each_array_once():
    # c07's steepness-200 member at n = 512, traced after a warm-up run (FFT
    # plans, Parseval symbols).  With the composed values, the grid's full
    # mode arrays and the last sample held, the peak was 18.9 MiB and 4.2 MiB
    # stayed; what stays now is the final real half-spectrum, 1.0 MiB.
    member = default_growth_family(Grid(512))[-1]
    run_growth_member(512, member, T=0.0625)
    tracemalloc.start()
    try:
        record = run_growth_member(512, member, T=0.0625)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record.state.time == 0.0625
    assert peak <= 15.5 * MIB
    assert held <= 1.5 * MIB


def test_growth_member_peak_holds_one_live_state():
    # the same member to T = 0.25 (5 samples), traced after a warm-up run.  At
    # the peak: the kernel's 5.58 MiB and the RK4 state and its successor (2.01
    # MiB).  With the last sample's spectrum and the start field's rows held
    # through the steps, it was 13.90.
    member = default_growth_family(Grid(512))[-1]
    run_growth_member(512, member, T=0.25)
    tracemalloc.start()
    try:
        record = run_growth_member(512, member, T=0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(record.series["grad_sup"]) == 5
    assert peak <= 12.5 * MIB


@pytest.fixture(scope="module")
def member_peak_mib():
    """Traced peak of the member to T = 0.25 after a warm-up run, in MiB."""
    member = default_growth_family(Grid(512))[-1]
    run_growth_member(512, member, T=0.25)
    tracemalloc.start()
    try:
        run_growth_member(512, member, T=0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / MIB


def test_growth_member_peak_holds_no_start_state(member_peak_mib):
    # 7.86 MiB: the kernel's 5.58 (buffers 4.69: two spectral 2.02, two
    # physical 2.01, the stage 0.67; compact multipliers 0.89), the RK4 state
    # and its successor 2.01, and 0.27 of numpy ufunc buffers that the RHS's
    # products over strided bands and reversed rows allocate in passing.  No
    # caller keeps the start state, so its spectrum is gone after the first
    # step.  With a third physical buffer and the odd symbols' lower rows the
    # peak was 9.25.
    assert member_peak_mib <= 8.3


def test_readme_quotes_the_measured_member_peak(member_peak_mib):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quoted = re.search(r"peaks at ([0-9.]+) MiB\s+traced", readme)
    assert quoted is not None
    assert abs(float(quoted.group(1)) - member_peak_mib) <= 0.1


def test_growth_family_reraises_member_exception():
    # steepness 1 asks for sigma = 1.77, outside (0, 0.5)
    member = default_growth_family(Grid(128), (1.0,))[0]
    with pytest.raises(ValueError) as direct:
        run_growth_member(128, member, T=0.05)
    with pytest.raises(ValueError) as family:
        growth_experiment(n=128, requested=(1.0, 50.0), T=0.05)
    assert str(family.value) == str(direct.value) == "sigma must lie in (0, 0.5), got 1.76777"


def test_growth_family_pool_fits_the_affinity_mask(monkeypatch):
    # one CPU in this process's mask on a two-CPU host: one worker, not two
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    asked = []

    class Stop(Exception):
        pass

    def spy(fn, payloads, workers):
        asked.append((len(payloads), workers))
        raise Stop

    monkeypatch.setattr(vcross.experiments, "run_members", spy)
    with pytest.raises(Stop):
        growth_experiment(n=128, requested=(1.0, 50.0), T=0.05)
    assert asked == [(2, 1)]


@pytest.mark.parametrize(
    "n, requested, names, required",
    [
        (256, (50.0, 100.0, 200.0, 400.0), "100, 200, 400", 512),
        (128, (100.0, 1.0, 50.0), "100, 50", 256),
    ],
)
def test_a_collapsed_family_is_refused_with_the_grid_that_separates_it(
    n, requested, names, required
):
    # the mollifier width is floored at 8 cells, so steep requests realize one member
    assert len({m.sigma for m in default_growth_family(Grid(n), requested)}) < len(requested)
    with pytest.raises(UnresolvedScaleError) as err:
        distinct_growth_family(Grid(n), requested)
    assert err.value.required_n == required
    assert str(err.value).startswith(f"steepness requests {names} realize one member at n={n}: ")
    assert str(err.value).endswith(f"(need n >= {required})")
    separated = distinct_growth_family(Grid(required), requested)
    assert separated == default_growth_family(Grid(required), requested)
    assert len({m.sigma for m in separated}) == len(requested)


def test_a_single_floored_member_stays_legal():
    floored = default_growth_family(Grid(128), (400.0,))
    assert floored[0].sigma == 8 * Grid(128).spacing
    assert distinct_growth_family(Grid(128), (400.0,)) == floored


@pytest.mark.parametrize(
    "requested",
    [
        (50.0, 100.0, 50.0),
        (100.0, math.nextafter(100.0, 200.0)),
        (50.0, 0.0),
        (-1.0,),
        (math.nan,),
    ],
    ids=["repeat", "one-ulp-apart", "zero", "negative", "nan"],
)
def test_requests_no_grid_separates_are_refused_without_a_search(requested):
    # 100 and its next float realize the same unfloored width: no n separates them
    with pytest.raises(ValueError) as err:
        distinct_growth_family(Grid(16), requested)
    assert not isinstance(err.value, UnresolvedScaleError)
    assert str(err.value).startswith("steepness requests must be positive and distinct, got ")


def test_growth_experiment_refuses_a_collapsed_family_before_any_member_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(vcross.experiments, "run_members", lambda *a: ran.append(a))
    with pytest.raises(UnresolvedScaleError) as err:
        growth_experiment(n=128, requested=(50.0, 100.0), T=0.05)
    assert err.value.required_n == 256 and ran == []

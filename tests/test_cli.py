"""Batch-driver tests: configs, manifests, determinism, sweeps, reports."""

import contextlib
import io
import math
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vcross.cli
from conftest import read_csv_columns
from vcross.cli import main
from vcross.config import ConfigError, parse_config_text
from vcross.experiments import smooth_random_field
from vcross.fields import Grid
from vcross.manifest import read_manifest
from vcross.model import LEADING, integrate_variational
from vcross.solver import SimState, save_state

SIM_CFG = """
[grid]
n = 64
[time]
t_end = {t_end}
cfl = 0.4
sample_every = 0.25
[solver]
alpha = 1.0
[init]
kind = shear
amplitude = 1.0
[ladder]
mode = relaxed
horizon = 1.0
[checks]
energy_drift = 1e-10
enstrophy_drift = 1e-10
[output]
dir = {out}
"""

MODEL_CFG = """
[model]
variant = leading
[trajectory]
x0 = {x0}
y0 = 0.1
T = {T}
dt = 1e-4
[ladder]
mode = relaxed
horizon = {T}
seed_exponent = 5.0
[output]
dir = {out}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_sections_and_values(self):
        cfg = parse_config_text("[a]\nx = 1.5\ny = 2\n[b]\nz = hello\n")
        assert cfg.get_float("a", "x") == 1.5
        assert cfg.get_int("a", "y") == 2
        assert cfg.get_str("b", "z") == "hello"
        assert cfg.get_float("a", "missing", 7.0) == 7.0

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigError, match=":3:"):
            parse_config_text("[a]\nx = 1\nbroken line\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config_text("x = 1\n")

    def test_type_errors_name_key(self):
        cfg = parse_config_text("[a]\nx = abc\n")
        with pytest.raises(ConfigError, match=r"\[a\] x"):
            cfg.get_float("a", "x")

    def test_missing_required(self):
        cfg = parse_config_text("[a]\nx = 1\n")
        with pytest.raises(ConfigError, match="missing"):
            cfg.get_float("a", "y")


class TestSimulate:
    def test_readme_example_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert "\nt_end = 1.0\n" in block and "\ndir = out/sim\n" in block
        block = block.replace("\nt_end = 1.0\n", "\nt_end = 0.05\n")
        block = block.replace("\ndir = out/sim\n", f"\ndir = {tmp_path / 'sim'}\n")
        cfg = write(tmp_path, "sim.cfg", block)
        assert main(["simulate", "--config", cfg]) == 0

    def test_zero_horizon_writes_initial_snapshot_only_run(self, tmp_path):
        out = tmp_path / "run0"
        cfg = write(tmp_path, "sim.cfg", SIM_CFG.format(t_end=0.0, out=out))
        assert main(["simulate", "--config", cfg]) == 0
        series = read_csv_columns(out / "series.csv")
        assert not any(column.size for column in series.values())  # no-op run: no rows
        assert (out / "initial.vcrs").exists()
        assert not (out / "final.vcrs").exists()  # initial snapshot only
        _, _, blocks = read_manifest(out / "manifest.txt")
        assert "kernel = none" in blocks["notes"]
        assert "rhs_evals = 0" in blocks["notes"]

    @pytest.mark.parametrize("every", ["0", "-0.01"])
    def test_non_positive_sample_every_exits_usage(self, tmp_path, capsys, every):
        out = tmp_path / "bad"
        text = SIM_CFG.format(t_end=0.1, out=out)
        text = text.replace("sample_every = 0.25", f"sample_every = {every}")
        assert main(["simulate", "--config", write(tmp_path, "bad.cfg", text)]) == 2
        err = capsys.readouterr().err
        assert f"error: sample_every must be positive, got {float(every)}" in err

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    @pytest.mark.parametrize("key", ["energy_drift", "enstrophy_drift", "parity"])
    def test_bad_check_tolerance_exits_usage_before_the_run(
        self, tmp_path, capsys, key, value
    ):
        out = tmp_path / "tol"
        text = SIM_CFG.format(t_end=0.5, out=out)
        text = text.replace("[output]", f"{key} = {value}\n[output]")  # the last one counts
        assert main(["simulate", "--config", write(tmp_path, "tol.cfg", text)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [checks] {key} must be finite and >= 0, got {float(value)}\n"
        assert not out.exists()  # refused before any stepping or output

    def test_energy_drift_at_alpha_other_than_one_exits_usage_before_the_run(
        self, tmp_path, capsys
    ):
        # 1/2 |u|^2 drifts by 1.5e-2 on this run, so the check could never pass
        out = tmp_path / "a15"
        text = SIM_CFG.format(t_end=2.0, out=out)
        text = text.replace("n = 64", "n = 128").replace("alpha = 1.0", "alpha = 1.5")
        text = text.replace("kind = shear\namplitude = 1.0", "kind = random\nseed = 1\namplitude = 2")
        text = text.replace("energy_drift = 1e-10", "energy_drift = 1e-6")
        assert main(["simulate", "--config", write(tmp_path, "a15.cfg", text)]) == 2
        err = capsys.readouterr().err
        assert "[checks] energy_drift" in err and "conserved only at alpha = 1" in err
        assert not out.exists()

    def test_shear_run_constant_gradient_and_checks(self, tmp_path):
        out = tmp_path / "run1"
        cfg = write(tmp_path, "sim.cfg", SIM_CFG.format(t_end=1.0, out=out))
        assert main(["simulate", "--config", cfg]) == 0
        series = read_csv_columns(out / "series.csv")
        assert np.max(np.abs(series["grad_sup"] - 1.0)) <= 1e-10
        checks = (out / "checks.csv").read_text().splitlines()
        assert checks[0] == "name,value,tolerance,passed"
        assert all(row.endswith(",1") for row in checks[1:])

    def test_manifest_lists_every_output(self, tmp_path):
        out = tmp_path / "run2"
        cfg = write(tmp_path, "sim.cfg", SIM_CFG.format(t_end=0.5, out=out))
        assert main(["simulate", "--config", cfg]) == 0
        _, outputs, blocks = read_manifest(out / "manifest.txt")
        produced = sorted(p for p in os.listdir(out) if p != "manifest.txt")
        assert sorted(outputs) == produced
        assert "ladder" in blocks and "config" in blocks
        header, _, _ = read_manifest(out / "manifest.txt")
        for phase in ("init", "run", "write", "total"):
            assert float(header[f"timing_{phase}_s"]) >= 0.0
        peak = [l for l in blocks["notes"] if l.startswith("peak_rss_mb = ")]
        assert len(peak) == 1 and float(peak[0].split()[-1]) >= 0.0

    @pytest.mark.parametrize("line, note", [("cfl = 0.4\n", "cfl = 0.4"), ("", "cfl = 0.5")])
    def test_manifest_notes_the_cfl_that_ran(self, tmp_path, line, note):
        out = tmp_path / "cfl"
        text = SIM_CFG.format(t_end=0.25, out=out).replace("cfl = 0.4\n", line)
        assert main(["simulate", "--config", write(tmp_path, "cfl.cfg", text)]) == 0
        _, _, blocks = read_manifest(out / "manifest.txt")
        assert note in blocks["notes"]

    def test_cross_bump_manifest_echoes_ladder(self, tmp_path):
        out = tmp_path / "run3"
        cfg_text = """
[grid]
n = 128
[time]
t_end = 0.05
sample_every = 0.05
[init]
kind = cross+bump
sigma = 0.4
[bump]
center_x = 0.12
center_y = 0.42
support = 0.4
height = 0.3
[ladder]
mode = relaxed
horizon = 1.0
outer = 0.7
[output]
dir = {out}
""".format(out=out)
        cfg = write(tmp_path, "cb.cfg", cfg_text)
        assert main(["simulate", "--config", cfg]) == 0
        _, outputs, blocks = read_manifest(out / "manifest.txt")
        assert any("log10_inner" in line for line in blocks["ladder"])
        assert "series.csv" in outputs
        # cross+bump data is point-even, so the half-size kernel steps it
        assert "kernel = point-even" in blocks["notes"]
        steps = next(l for l in blocks["notes"] if l.startswith("steps = "))
        assert f"rhs_evals = {4 * int(steps.split()[-1])}" in blocks["notes"]

    def test_deterministic_outputs(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = write(tmp_path, f"{name}.cfg", SIM_CFG.format(t_end=0.5, out=out))
            assert main(["simulate", "--config", cfg]) == 0
            outs.append(out)
        for fname in ("series.csv", "final.vcrs", "checks.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        cfg = write(tmp_path, "bad.cfg", "[grid]\nn = not-a-number\n")
        assert main(["simulate", "--config", cfg]) == 2

    INIT_CFG = """
[grid]
n = 128
[time]
t_end = 0.05
sample_every = 0.05
[init]
{init}
[ladder]
mode = relaxed
horizon = 1.0
outer = 0.7
[output]
dir = {out}
"""
    INIT_BLOCKS = {
        "shear": "kind = shear\namplitude = 1.0",
        "random": "kind = random\nseed = 3\namplitude = 2.0",
        "cross": "kind = cross\nsigma = 0.4",
        "cross+bump": "kind = cross+bump\nsigma = 0.4\n[bump]\ncenter_x = 0.12\n"
        "center_y = 0.42\nsupport = 0.4\nheight = 0.3",
        "snapshot": "kind = snapshot\npath = {snapshot}",
    }

    def _snapshot_config(self, tmp_path, snapshot):
        init = self.INIT_BLOCKS["snapshot"].format(snapshot=snapshot)
        text = self.INIT_CFG.format(init=init, out=tmp_path / "out")
        return write(tmp_path, "snap.cfg", text)

    @pytest.mark.parametrize("kind", sorted(INIT_BLOCKS))
    def test_every_init_kind_runs_through_main(self, tmp_path, kind, capsys):
        snapshot = tmp_path / "seed.vcrs"
        save_state(snapshot, SimState(smooth_random_field(Grid(128), seed=1)))
        init = self.INIT_BLOCKS[kind].format(snapshot=snapshot)
        out = tmp_path / "out"
        cfg = write(tmp_path, "init.cfg", self.INIT_CFG.format(init=init, out=out))
        assert main(["simulate", "--config", cfg]) == 0, capsys.readouterr().err
        assert len(read_csv_columns(out / "series.csv")["grad_sup"]) == 2

    @pytest.mark.parametrize("keep", [10, 40 + 8 * 64 * 64 - 100])
    def test_truncated_snapshot_refused_by_name(self, tmp_path, keep, capsys):
        snapshot = tmp_path / "cut.vcrs"
        save_state(snapshot, SimState(smooth_random_field(Grid(64))))
        snapshot.write_bytes(snapshot.read_bytes()[:keep])
        cfg = self._snapshot_config(tmp_path, snapshot)
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        promised, held = (40, 10) if keep == 10 else (8 * 64 * 64, 8 * 64 * 64 - 100)
        assert "truncated snapshot" in err and "cut.vcrs" in err
        assert f"{promised} bytes" in err and f"holds {held}" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "version, nx, ny, message",
        [
            (2, 16, 16, "unsupported snapshot version 2"),
            (1, 16, 32, "grid must be square, got 16x32"),
        ],
    )
    def test_bad_snapshot_header_refused(self, tmp_path, version, nx, ny, message, capsys):
        snapshot = tmp_path / "bad.vcrs"
        header = struct.pack("<4sIQQdd", b"VCRS", version, nx, ny, 0.0, 1.0)
        snapshot.write_bytes(header + bytes(8 * nx * ny))
        assert main(["simulate", "--config", self._snapshot_config(tmp_path, snapshot)]) == 2
        err = capsys.readouterr().err
        assert message in err and "bad.vcrs" in err

    @pytest.mark.parametrize("source", ["config", "snapshot"])
    def test_nan_exponent_exits_usage(self, tmp_path, source, capsys):
        if source == "config":
            text = SIM_CFG.format(t_end=0.1, out=tmp_path / "out")
            cfg = write(tmp_path, "nan.cfg", text.replace("alpha = 1.0", "alpha = nan"))
        else:
            snapshot = tmp_path / "nan.vcrs"
            header = struct.pack("<4sIQQdd", b"VCRS", 1, 16, 16, 0.0, math.nan)
            snapshot.write_bytes(header + bytes(8 * 16 * 16))
            cfg = self._snapshot_config(tmp_path, snapshot)
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == "error: inversion exponent must be >= 1, got nan\n"

    @pytest.mark.parametrize("source", ["config", "snapshot"])
    def test_infinite_exponent_exits_usage(self, tmp_path, source, capsys):
        # at alpha = inf only the |k| = 1 modes would move
        if source == "config":
            text = SIM_CFG.format(t_end=0.1, out=tmp_path / "out")
            cfg = write(tmp_path, "inf.cfg", text.replace("alpha = 1.0", "alpha = inf"))
        else:
            snapshot = tmp_path / "inf.vcrs"
            header = struct.pack("<4sIQQdd", b"VCRS", 1, 16, 16, 0.0, math.inf)
            snapshot.write_bytes(header + bytes(8 * 16 * 16))
            cfg = self._snapshot_config(tmp_path, snapshot)
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == "error: inversion exponent must be finite, got inf\n"

    @pytest.mark.parametrize(
        "key, value", [("support", "nan"), ("support", "0"), ("height", "inf")]
    )
    def test_bad_bump_size_exits_usage_and_is_named(self, tmp_path, key, value, capsys):
        init = self.INIT_BLOCKS["cross+bump"]
        default = {"support": "support = 0.4", "height": "height = 0.3"}[key]
        init = init.replace(default, f"{key} = {value}")
        text = self.INIT_CFG.format(init=init, out=tmp_path / "out")
        assert main(["simulate", "--config", write(tmp_path, "b.cfg", text)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: bump {key} must be finite and positive, got {float(value)}\n"

    def test_log10_ladder_override_reaches_the_run(self, tmp_path):
        init = self.INIT_BLOCKS["cross+bump"]
        text = self.INIT_CFG.format(init=init, out=tmp_path / "out")
        text = text.replace("outer = 0.7", "log10_outer = -0.25")
        assert main(["simulate", "--config", write(tmp_path, "l.cfg", text)]) == 0
        _, _, blocks = read_manifest(tmp_path / "out" / "manifest.txt")
        assert "log10_outer = -0.25" in [line.strip() for line in blocks["ladder"]]


class TestModel:
    def test_single_point_matches_closed_form(self, tmp_path):
        out = tmp_path / "m1"
        T = math.log(2.0)
        cfg = write(tmp_path, "m.cfg", MODEL_CFG.format(x0=1e-6, T=T, out=out))
        assert main(["model", "--config", cfg]) == 0
        rows = (out / "path_000.csv").read_text().splitlines()
        final = [float(c) for c in rows[-1].split(",")]
        assert final[1] == pytest.approx(1e-5, rel=1e-8)  # x
        assert final[2] == pytest.approx(0.01, rel=1e-8)  # y
        assert final[3] == pytest.approx(10.0, rel=1e-8)  # xa

    def test_each_start_set_goes_through_one_batch_call(self, tmp_path, monkeypatch):
        calls = []
        batch = vcross.cli.integrate_variational_batch

        def counted(starts, *args, **kwargs):
            calls.append(len(starts))
            return batch(starts, *args, **kwargs)

        monkeypatch.setattr(vcross.cli, "integrate_variational_batch", counted)
        out = tmp_path / "m1"
        T = 0.3
        cfg = write(tmp_path, "m.cfg", MODEL_CFG.format(x0=1e-6, T=T, out=out))
        assert main(["model", "--config", cfg]) == 0
        assert calls == [1]
        ref = integrate_variational((1e-6, 0.1), T, variant=LEADING, dt=1e-4)
        table = np.loadtxt(out / "path_000.csv", delimiter=",", skiprows=1)
        assert table.shape == (ref.t.size, 8)
        np.testing.assert_allclose(table[:, 1], ref.x, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(table[:, 2], ref.y, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(table[:, 3], ref.jac[:, 0, 0], rtol=1e-12, atol=0.0)
        family = MODEL_CFG.format(x0=1e-6, T=T, out=tmp_path / "m2")
        family = family.replace("x0 = 1e-06\ny0 = 0.1", "count = 5")
        cfg = write(tmp_path, "mf.cfg", family)
        assert main(["model", "--config", cfg]) == 0
        assert calls == [1, 5]
        assert len(list((tmp_path / "m2").glob("path_*.csv"))) == 5

    @pytest.mark.parametrize("count", [0, -3])
    def test_non_positive_count_refused(self, tmp_path, capsys, count):
        out = tmp_path / "mc"
        text = MODEL_CFG.format(x0=1e-6, T=0.3, out=out)
        text = text.replace("x0 = 1e-06\ny0 = 0.1", f"count = {count}")
        assert main(["model", "--config", write(tmp_path, "mc.cfg", text)]) == 2
        err = capsys.readouterr().err
        assert f"[trajectory] count must be positive, got {count}" in err
        assert not (out / "summary.csv").exists()

    def test_negative_horizon_refused(self, tmp_path, capsys):
        out = tmp_path / "mt"
        text = MODEL_CFG.format(x0=1e-6, T=-1, out=out).replace("horizon = -1", "horizon = 1")
        assert main(["model", "--config", write(tmp_path, "mt.cfg", text)]) == 2
        assert capsys.readouterr().err == "error: [trajectory] T must be non-negative, got -1.0\n"
        assert not list(out.glob("path_*.csv"))

    @pytest.mark.parametrize(
        "perturbation, drift",
        [("", "none"), ("[perturbation]\nkind = demo\nupsilon = 1e-3\n", "exact")],
    )
    def test_manifest_notes_rhs_evals_and_drift(self, tmp_path, perturbation, drift):
        out = tmp_path / "mn"
        text = MODEL_CFG.format(x0=1e-6, T=0.3, out=out) + perturbation
        assert main(["model", "--config", write(tmp_path, "mn.cfg", text)]) == 0
        notes = read_manifest(out / "manifest.txt")[2]["notes"]
        assert "rhs_evals = 12000" in notes  # four stages per step, T / dt = 3000 steps
        assert f"drift = {drift}" in notes

    def test_point_outside_seed_box_refused(self, tmp_path):
        out = tmp_path / "m2"
        cfg = write(
            tmp_path, "m.cfg", MODEL_CFG.format(x0=1e-3, T=math.log(2.0), out=out)
        )
        assert main(["model", "--config", cfg]) == 2

    def test_sampled_family_writes_paths_and_summary(self, tmp_path):
        out = tmp_path / "mfam"
        cfg_text = """
[model]
variant = exact
[trajectory]
count = 3
T = 0.5
dt = 2e-3
[ladder]
mode = relaxed
horizon = 1.0
[output]
dir = {out}
""".format(out=out)
        cfg = write(tmp_path, "mf.cfg", cfg_text)
        assert main(["model", "--config", cfg, "--seed", "4"]) == 0
        rows = (out / "summary.csv").read_text().splitlines()
        assert len(rows) == 4  # header + three sampled starts
        for k in range(3):
            assert (out / f"path_{k:03d}.csv").exists()
        # same seed reproduces the sample set byte for byte
        out2 = tmp_path / "mfam2"
        cfg2 = write(tmp_path, "mf2.cfg", cfg_text.replace(str(out), str(out2)))
        assert main(["model", "--config", cfg2, "--seed", "4"]) == 0
        assert (out / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_inadmissible_perturbation_refused(self, tmp_path):
        out = tmp_path / "m3"
        cfg_text = MODEL_CFG.format(x0=1e-6, T=math.log(2.0), out=out) + (
            "[perturbation]\nkind = demo\nupsilon = 1e-4\nscale = 10.0\n"
        )
        cfg = write(tmp_path, "m.cfg", cfg_text)
        assert main(["model", "--config", cfg]) == 2

    @pytest.mark.parametrize("upsilon", ["-1", "0", "nan"])
    def test_non_positive_upsilon_refused(self, tmp_path, upsilon, capsys):
        # a bound 1e-4 upsilon <= 0 makes every ratio negative, so any drift
        # would pass the admissibility check
        out = tmp_path / "mu"
        cfg_text = MODEL_CFG.format(x0=1e-6, T=0.3, out=out) + (
            f"[perturbation]\nkind = demo\nupsilon = {upsilon}\nscale = 3\n"
        )
        assert main(["model", "--config", write(tmp_path, "mu.cfg", cfg_text)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: upsilon must be finite and positive, got {float(upsilon)}\n"
        assert not (out / "summary.csv").exists()

    FAITHFUL_DEMO = """
[ladder]
mode = faithful
horizon = 1
[perturbation]
kind = demo
{upsilon}
[trajectory]
T = 0.001
count = 1
"""

    def test_given_upsilon_is_read_on_a_faithful_ladder(self, tmp_path, capsys):
        # the faithful drift 10**-1784 is no float; a given upsilon replaces it
        text = self.FAITHFUL_DEMO.format(upsilon="upsilon = 1e-3")
        cfg = write(tmp_path, "f.cfg", text)
        code = main(["model", "--config", cfg, "--out", str(tmp_path / "f")])
        err = capsys.readouterr().err
        assert code != vcross.cli.EXIT_BLOWUP
        assert "not materialized" not in err
        cfg = write(tmp_path, "g.cfg", self.FAITHFUL_DEMO.format(upsilon=""))
        assert main(["model", "--config", cfg, "--out", str(tmp_path / "g")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [perturbation] upsilon must be given: drift = 10**")

    def test_empty_seed_box_refused_before_any_draw(self, tmp_path, monkeypatch, capsys):
        # x0 < y0**E - 0.05 stays below inner + 0.1 over the whole y0 range
        draws, default_rng = [], np.random.default_rng

        class Spy:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def uniform(self, low, high):
                draws.append((low, high))
                return self.rng.uniform(low, high)

        monkeypatch.setattr(np.random, "default_rng", Spy)
        text = self.FAITHFUL_DEMO.format(upsilon="").replace("faithful", "relaxed")
        text = text.replace("[perturbation]\nkind = demo\n", "outer = 0.01\n")
        cfg = write(tmp_path, "e.cfg", text.replace("count = 1", "count = 1000"))
        assert main(["model", "--config", cfg, "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert err == "error: ladder constraints violated: seed_box_effectively_empty\n"
        assert draws == []

    def test_variant_constants_are_not_config_keys(self, tmp_path):
        summaries = []
        for name, extra in (("plain", ""), ("keys", "c1 = nan\nc2 = nan\n")):
            out = tmp_path / name
            text = MODEL_CFG.format(x0=1e-6, T=0.3, out=out)
            text = text.replace("variant = leading\n", "variant = leading\n" + extra)
            assert main(["model", "--config", write(tmp_path, f"{name}.cfg", text)]) == 0
            summaries.append((out / "summary.csv").read_bytes())
        assert summaries[0] == summaries[1]


class TestSweep:
    TAU_CFG = """
[sweep]
axis = tau
values = {values}
[base]
n = 256
[output]
dir = {out}
"""

    def _serial_and_pooled(self, tmp_path, cfg_text):
        """aggregate.csv bytes of a serial and a two-process run of one config."""
        outs = []
        for name, threads in (("ser", "1"), ("par", "2")):
            out = tmp_path / name
            cfg = write(tmp_path, f"{name}.cfg", cfg_text.format(out=out))
            assert main(["sweep", "--config", cfg, "--threads", threads]) == 0
            outs.append((out / "aggregate.csv").read_bytes())
        return outs

    def test_empty_values_refused(self, tmp_path, capsys):
        out = tmp_path / "empty"
        text = self.TAU_CFG.format(values="", out=out).replace("n = 256", "n = 64")
        assert main(["sweep", "--config", write(tmp_path, "e.cfg", text)]) == 2
        assert "[sweep] values must list at least one value" in capsys.readouterr().err
        assert not (out / "aggregate.csv").exists()

    def test_tau_sweep_writes_every_column(self, tmp_path):
        out = tmp_path / "tau"
        text = self.TAU_CFG.format(values="0.04 0.02", out=out)
        assert main(["sweep", "--config", write(tmp_path, "t.cfg", text)]) == 0
        rows = (out / "aggregate.csv").read_text().splitlines()
        assert rows[0].split(",") == [
            "value", "hessian_sup", "origin_ratio", "sup_ratio_r0.05",
            "sup_ratio_r0.1", "sup_ratio_r0.2", "tau_log_tau",
        ]
        assert len(rows) == 3
        assert all(math.isfinite(float(c)) for r in rows[1:] for c in r.split(","))

    def test_tau_sweep_records_a_zero_width_member_as_error(self, tmp_path, capsys):
        ser, par = self._serial_and_pooled(tmp_path, self.TAU_CFG.replace("{values}", "0.04 0"))
        assert ser == par
        rows = ser.decode().splitlines()
        error = rows[0].split(",").index("error")
        assert [r.split(",")[error] for r in rows[1:]] == ["nan", "1"]
        _, _, blocks = read_manifest(tmp_path / "ser" / "manifest.txt")
        assert "member 0.0 failed: arm anomaly width must be positive, got 0.0" in blocks["notes"]
        assert capsys.readouterr().err == ""

    def test_alpha_sweep_pooled_matches_serial(self, tmp_path):
        cfg_text = """
[sweep]
axis = alpha
values = 1 1.5
[base]
n = 64
T = 0.1
[output]
dir = {out}
"""
        ser, par = self._serial_and_pooled(tmp_path, cfg_text)
        assert ser == par
        assert len(ser.decode().splitlines()) == 3

    def test_single_member_matches_direct_run(self, tmp_path):
        out = tmp_path / "s1"
        cfg_text = """
[sweep]
axis = steepness
values = 50
[base]
n = 128
T = 0.25
[output]
dir = {out}
""".format(out=out)
        cfg = write(tmp_path, "s.cfg", cfg_text)
        assert main(["sweep", "--config", cfg]) == 0
        rows = (out / "aggregate.csv").read_text().splitlines()
        import vcross as vc
        from vcross.experiments import default_growth_family, run_growth_member

        member = default_growth_family(vc.Grid(128), requested=[50.0])[0]
        rec = run_growth_member(128, member, T=0.25)
        g = rec.series["grad_sup"].values
        direct = float(np.max(g) / g[0])
        cells = rows[1].split(",")
        assert float(cells[1]) == pytest.approx(rec.grad0, rel=1e-12)
        assert float(cells[2]) == pytest.approx(direct, rel=1e-12)

    def test_refinement_sweep(self, tmp_path):
        out = tmp_path / "s2"
        cfg_text = """
[sweep]
axis = n
values = 128 256
[base]
sigma = 0.9
T = 0.2
[output]
dir = {out}
""".format(out=out)
        # out-of-range sigma: members fail individually, sweep still aggregates
        cfg = write(tmp_path, "s.cfg", cfg_text.replace("sigma = 0.9", "sigma = 0.85"))
        assert main(["sweep", "--config", cfg]) == 0
        _, _, blocks = read_manifest(out / "manifest.txt")
        assert any("failed" in line for line in blocks.get("notes", []))
        cfg_text = cfg_text.replace("sigma = 0.9", "sigma = 0.49")
        cfg = write(tmp_path, "s.cfg", cfg_text)
        rc = main(["sweep", "--config", cfg])
        assert rc == 0
        rows = (out / "aggregate.csv").read_text().splitlines()
        header = rows[0].split(",")
        drift_col = header.index("enstrophy_drift")
        drifts = [float(r.split(",")[drift_col]) for r in rows[1:]]
        assert all(d <= 1e-6 for d in drifts)

    def test_parallel_sweep_matches_serial(self, tmp_path):
        cfg_text = """
[sweep]
axis = n
values = 128 256
[base]
sigma = 0.49
T = 0.2
[output]
dir = {out}
"""
        outs = []
        for name, threads in (("ser", "1"), ("par", "2")):
            out = tmp_path / name
            cfg = write(tmp_path, f"{name}.cfg", cfg_text.format(out=out))
            assert main(["sweep", "--config", cfg, "--threads", threads]) == 0
            outs.append((out / "aggregate.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_pooled_manifest_notes_children_peak_rss(self, tmp_path):
        for name, threads in (("ser", "1"), ("par", "2")):
            out = tmp_path / name
            text = self.TAU_CFG.format(values="0.04 0.08", out=out).replace("n = 256", "n = 64")
            cfg = write(tmp_path, f"{name}.cfg", text)
            assert main(["sweep", "--config", cfg, "--threads", threads]) == 0
            notes = read_manifest(out / "manifest.txt")[2]["notes"]
            children = [l for l in notes if l.startswith("peak_rss_children_mb = ")]
            if threads == "1":
                assert children == []
            else:
                assert len(children) == 1 and float(children[0].split()[-1]) > 0.0

    def test_non_integer_grid_size_is_an_error_row(self, tmp_path):
        # int(128.9) would run n = 128 a second time under the label 128.9
        out = tmp_path / "ni"
        cfg_text = """
[sweep]
axis = n
values = 128.9 inf
[base]
sigma = 0.4
T = 0.05
[output]
dir = {out}
""".format(out=out)
        assert main(["sweep", "--config", write(tmp_path, "ni.cfg", cfg_text)]) == 0
        rows = (out / "aggregate.csv").read_text().splitlines()
        assert rows[0] == "value,error"
        table = [[float(c) for c in r.split(",")] for r in rows[1:]]
        assert table == [[128.9, 1.0], [math.inf, 1.0]]
        notes = read_manifest(out / "manifest.txt")[2]["notes"]
        assert "member 128.9 failed: grid size must be an integer, got 128.9" in notes
        assert "member inf failed: grid size must be an integer, got inf" in notes

    def test_pooled_member_failure_stays_its_own(self, tmp_path):
        # n = 64 cannot resolve sigma = 0.4; its error must cross the pool
        # without taking the n = 128 member down with it
        cfg_text = """
[sweep]
axis = n
values = 64 128
[base]
sigma = 0.4
T = 0.05
[output]
dir = {out}
"""
        outs = []
        for name, threads in (("ser", "1"), ("par", "2")):
            out = tmp_path / name
            cfg = write(tmp_path, f"{name}.cfg", cfg_text.format(out=out))
            assert main(["sweep", "--config", cfg, "--threads", threads]) == 0
            outs.append((out / "aggregate.csv").read_bytes())
            rows = outs[-1].decode().splitlines()
            error = rows[0].split(",").index("error")
            assert [r.split(",")[error] for r in rows[1:]] == ["1", "nan"]
        assert outs[0] == outs[1]

    def test_omega_sweep_appends_fit(self, tmp_path):
        out = tmp_path / "s3"
        cfg_text = """
[sweep]
axis = omega
values = 1 2 3
[base]
n = 256
support = 0.6
aspect = 0.8
[output]
dir = {out}
""".format(out=out)
        cfg = write(tmp_path, "s.cfg", cfg_text)
        assert main(["sweep", "--config", cfg]) == 0
        _, _, blocks = read_manifest(out / "manifest.txt")
        notes = "\n".join(blocks.get("notes", []))
        assert "hessian_slope" in notes
        slope = float(notes.split("hessian_slope =")[1].split()[0])
        assert 0.3 <= slope <= 0.7

    OMEGA_CFG = """
[sweep]
axis = omega
values = {values}
[base]
n = 128
support = 0.6
[output]
dir = {out}
"""

    def test_omega_unresolved_members_become_error_rows(self, tmp_path, capsys):
        # supports 0.6 / 2^(k/2) fall below 8 cells at n = 128 from k = 2 on
        outs = {}
        for name, values in (("all", "1 2 3 4 5 6 7 8 9"), ("ok", "1 2")):
            out = tmp_path / name
            text = self.OMEGA_CFG.format(values=values, out=out)
            assert main(["sweep", "--config", write(tmp_path, f"{name}.cfg", text)]) == 0
            outs[name] = out
        assert capsys.readouterr().err == ""
        rows = [r.split(",") for r in (outs["all"] / "aggregate.csv").read_text().splitlines()]
        assert len(rows) == 10
        error = rows[0].index("error")
        assert [r[error] for r in rows[1:]] == ["nan"] * 2 + ["1"] * 7
        assert all(c == "nan" for r in rows[3:] for i, c in enumerate(r) if i not in (0, error))
        kept = [",".join(c for i, c in enumerate(r) if i != error) for r in rows[:3]]
        assert kept == (outs["ok"] / "aggregate.csv").read_text().splitlines()
        _, _, blocks = read_manifest(outs["all"] / "manifest.txt")
        _, _, ok_blocks = read_manifest(outs["ok"] / "manifest.txt")
        assert "member 3.0 failed: support 0.3 spans fewer than 8 cells at n=128 " \
            "(need n >= 256)" in blocks["notes"]
        assert sum(line.startswith("member ") for line in blocks["notes"]) == 7
        slope = [line for line in blocks["notes"] if line.startswith("hessian_slope")]
        assert slope == [line for line in ok_blocks["notes"] if line.startswith("hessian_slope")]

    def test_omega_sweep_pooled_matches_serial(self, tmp_path):
        # k = 2 (support 0.3) is unresolved at n = 128 and fails inside the pool
        ser, par = self._serial_and_pooled(tmp_path, self.OMEGA_CFG.replace("{values}", "1 2 3"))
        assert ser == par
        rows = ser.decode().splitlines()
        error = rows[0].split(",").index("error")
        assert [r.split(",")[error] for r in rows[1:]] == ["nan", "nan", "1"]
        # the memory notes describe the processes, which differ by design
        notes = [
            [
                line
                for line in read_manifest(tmp_path / name / "manifest.txt")[2]["notes"]
                if not line.startswith("peak_rss")
            ]
            for name in ("ser", "par")
        ]
        assert notes[0] == notes[1]
        assert notes[0][0].startswith("member 3.0 failed: support 0.3 spans fewer than 8 cells")
        assert notes[0][1].startswith("hessian_slope = ")

    def test_omega_single_resolved_member_notes_no_fit(self, tmp_path):
        out = tmp_path / "one"
        text = self.OMEGA_CFG.format(values="1 2 3", out=out).replace("0.6", "0.42")
        assert main(["sweep", "--config", write(tmp_path, "one.cfg", text)]) == 0
        rows = (out / "aggregate.csv").read_text().splitlines()
        assert len(rows) == 4
        _, _, blocks = read_manifest(out / "manifest.txt")
        assert "hessian_slope not fitted: resolved members = 1 < 2" in blocks["notes"]

    def test_steepness_monotone_note_skips_failed_members(self, tmp_path):
        # steepness 1 asks for sigma = 1.77, outside (0, 0.5): that member fails
        out = tmp_path / "gap"
        text = """
[sweep]
axis = steepness
values = 100 1 50
[base]
n = 256
T = 0.05
[output]
dir = {out}
""".format(out=out)
        assert main(["sweep", "--config", write(tmp_path, "gap.cfg", text)]) == 0
        rows = [r.split(",") for r in (out / "aggregate.csv").read_text().splitlines()]
        error, ratio = rows[0].index("error"), rows[0].index("max_ratio")
        assert [r[error] for r in rows[1:]] == ["nan", "1", "nan"]
        assert rows[2][ratio] == "nan"
        assert float(rows[1][ratio]) <= float(rows[3][ratio])
        _, _, blocks = read_manifest(out / "manifest.txt")
        assert "ratio_monotone = 1 (failed members skipped: 1)" in blocks["notes"]


class TestReport:
    def _run_sim(self, tmp_path, name, t_end=0.5, tol="1e-10"):
        out = tmp_path / name
        text = SIM_CFG.format(t_end=t_end, out=out).replace("1e-10", tol)
        cfg = write(tmp_path, f"{name}.cfg", text)
        main(["simulate", "--config", cfg])
        return out

    def test_passing_suite_exit_zero(self, tmp_path, capsys):
        out = self._run_sim(tmp_path, "ok")
        rc = main(["report", str(out / "manifest.txt"), "--out", str(tmp_path / "rep")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "PASS" in text and "0 failed" in text

    def test_failed_check_exit_one_and_named(self, tmp_path, capsys):
        out = self._run_sim(tmp_path, "fail", tol="1e-30")
        rc = main(["report", str(out / "manifest.txt"), "--out", str(tmp_path)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_zero_checks_distinct_from_pass(self, tmp_path):
        out = tmp_path / "nochecks"
        text = SIM_CFG.format(t_end=0.25, out=out)
        text = text[: text.index("[checks]")] + "[output]\ndir = {}\n".format(out)
        cfg = write(tmp_path, "nc.cfg", text)
        assert main(["simulate", "--config", cfg]) == 0
        assert main(["report", str(out / "manifest.txt"), "--out", str(tmp_path)]) == 1

    def test_missing_manifest_named(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "nope.txt")])
        assert rc == 2
        assert "nope.txt" in capsys.readouterr().err


class TestExitCodes:
    OVERFLOW_CFG = """
[model]
variant = leading
[ladder]
mode = relaxed
horizon = 1
[trajectory]
T = 40
dt = 1e-2
count = 2
[output]
dir = {out}
"""

    def test_model_jacobian_overflow_exits_blowup(self, tmp_path, capsys):
        cfg = write(tmp_path, "o.cfg", self.OVERFLOW_CFG.format(out=tmp_path / "o"))
        with np.errstate(all="ignore"):
            code = main(["model", "--config", cfg, "--seed", "1"])
        err = capsys.readouterr().err
        assert code == vcross.cli.EXIT_BLOWUP == 3
        assert "numerical blow-up:" in err and "left float range" in err
        assert "Traceback" not in err

    def test_model_overflow_reported_once_without_numpy_warnings(self, tmp_path, capsys):
        cfg = write(tmp_path, "o.cfg", self.OVERFLOW_CFG.format(out=tmp_path / "o"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["model", "--config", cfg, "--seed", "1"])
        err = capsys.readouterr().err.splitlines()
        assert code == vcross.cli.EXIT_BLOWUP
        assert len(err) == 1 and err[0].startswith("numerical blow-up:")

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("simulate", "[grid]\nn = 64\n[init]\nkind = vortex\n", "[init] kind 'vortex'"),
            ("model", "[perturbation]\nkind = wobble\n", "[perturbation] kind 'wobble'"),
            ("sweep", "[sweep]\naxis = bogus\nvalues = 1\n", "sweep axis 'bogus'"),
        ],
    )
    def test_unknown_kind_exits_usage_and_is_named(self, tmp_path, command, text, message, capsys):
        cfg = write(tmp_path, "k.cfg", text)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: unknown {message}\n"

    @pytest.mark.parametrize(
        "command, setting, message",
        [
            ("simulate", "t_end = inf", "t_end must be finite, got inf"),
            ("simulate", "t_end = nan", "t_end must be finite, got nan"),
            ("model", "T = inf", "T must be finite, got inf"),
            ("model", "T = nan", "T must be finite, got nan"),
            ("model", "dt = nan", "dt must be positive, got nan"),
        ],
    )
    def test_non_finite_time_exits_usage_and_is_named(
        self, tmp_path, command, setting, message, capsys
    ):
        out = tmp_path / "o"
        if command == "simulate":
            text = SIM_CFG.format(t_end=0.5, out=out)
        else:
            text = MODEL_CFG.format(x0=1e-6, T=0.3, out=out)
        key = setting.split()[0]
        default = {"t_end": "t_end = 0.5", "T": "T = 0.3", "dt": "dt = 1e-4"}[key]
        assert text.count(default) == 1
        cfg = write(tmp_path, "t.cfg", text.replace(default, setting))
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("horizon = nan", "horizon must be finite and positive, got nan"),
            ("horizon = inf", "horizon must be finite and positive, got inf"),
            ("growth_factor = nan", "growth factor must be finite and exceed 1, got nan"),
            ("seed_exponent = nan", "ladder override seed_exponent must be finite, got nan"),
            ("inner = inf", "ladder override inner must be finite, got inf"),
        ],
        ids=["horizon-nan", "horizon-inf", "growth-nan", "exponent-nan", "inner-inf"],
    )
    def test_non_finite_ladder_input_exits_usage_and_is_named(
        self, tmp_path, setting, message, capsys
    ):
        out = tmp_path / "o"
        text = MODEL_CFG.format(x0=1e-6, T=0.3, out=out)
        key = setting.split()[0]
        default = {"horizon": "horizon = 0.3", "seed_exponent": "seed_exponent = 5.0"}
        old = default.get(key, "mode = relaxed")
        new = setting if key in default else f"mode = relaxed\n{setting}"
        assert text.count(old) == 1
        cfg = write(tmp_path, "l.cfg", text.replace(old, new))
        assert main(["model", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists() or not list(out.iterdir())

    LADDER_CFG = """
[ladder]
mode = {mode}
horizon = 1
{setting}
[trajectory]
T = 0.001
count = 1
"""
    OUTER = "ladder override outer must be at most 1, got 10**"

    @pytest.mark.parametrize(
        "mode, setting, message",
        [
            ("relaxed", "inner = 0", "[ladder] inner must be positive, got 0.0"),
            ("relaxed", "drift = -1e-9", "[ladder] drift must be positive, got -1e-09"),
            ("relaxed", "mollifier = nan", "[ladder] mollifier must be positive, got nan"),
            ("relaxed", "outer = 2", OUTER + "0.30103"),
            ("relaxed", "outer = 1e10", OUTER + "10"),
            ("relaxed", "outer = 1e308", OUTER + "308"),
            ("faithful", "log10_outer = 0.5", OUTER + "0.5"),
            ("relaxed", "outer = 1", None),
        ],
    )
    def test_ladder_scale_out_of_range_exits_usage_and_is_named(
        self, tmp_path, mode, setting, message, capsys
    ):
        cfg = write(tmp_path, "l.cfg", self.LADDER_CFG.format(mode=mode, setting=setting))
        code = main(["model", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        if message is None:  # the unit outer scale is the wedge's own bound
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (2, f"error: {message}\n")

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["outer", "inner", "drift", "cross_width", "mollifier"]),
        value=st.floats()
        | st.floats(1e-9, 1.0)
        | st.sampled_from([0.0, -0.0, 1.0, 2.0, 1e10, 1e308, 5e-324, -1.0]),
    )
    @example(name="outer", value=1e308)
    def test_any_ladder_scale_exits_with_a_named_cause(self, name, value):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "l.cfg")
            with open(cfg, "w") as fh:
                fh.write(self.LADDER_CFG.format(mode="relaxed", setting=f"{name} = {value!r}"))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["model", "--config", cfg, "--out", os.path.join(tmp, "o")])
        err = err.getvalue()
        assert code in (0, 2), err
        assert "Traceback" not in err and "internal error" not in err
        if not 0.0 < value < math.inf or (name == "outer" and value > 1.0):
            assert name in err

    def test_out_under_a_regular_file_exits_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "plain.txt"
        blocker.write_text("not a directory")
        cfg = write(tmp_path, "s.cfg", SIM_CFG.format(t_end=0.0, out=tmp_path / "s"))
        code = main(["simulate", "--config", cfg, "--out", str(blocker / "sub")])
        err = capsys.readouterr().err
        assert code == vcross.cli.EXIT_USAGE == 2
        assert err.startswith("i/o error:") and "plain.txt" in err

    def test_unexpected_exception_exits_internal(self, tmp_path, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("planted fault")

        monkeypatch.setattr(vcross.cli, "cmd_simulate", broken)
        cfg = write(tmp_path, "s.cfg", SIM_CFG.format(t_end=0.0, out=tmp_path / "s"))
        assert main(["simulate", "--config", cfg]) == vcross.cli.EXIT_INTERNAL == 4
        err = capsys.readouterr().err
        assert err.strip() == "internal error: RuntimeError: planted fault"


@pytest.mark.parametrize(
    "command, phases",
    [("model", ("init", "integrate", "write", "total")), ("sweep", ("members", "write", "total"))],
)
def test_manifest_records_phase_timings_and_peak_rss(tmp_path, command, phases):
    out = tmp_path / command
    if command == "model":
        text = MODEL_CFG.format(x0=1e-6, T=0.3, out=out)
    else:
        text = TestSweep.TAU_CFG.format(values="0.04", out=out).replace("n = 256", "n = 64")
    assert main([command, "--config", write(tmp_path, "c.cfg", text)]) == 0
    header, _, blocks = read_manifest(out / "manifest.txt")
    assert [k for k in header if k.startswith("timing_")] == [f"timing_{p}_s" for p in phases]
    assert all(float(header[f"timing_{p}_s"]) >= 0.0 for p in phases)
    peak = [l for l in blocks["notes"] if l.startswith("peak_rss_mb = ")]
    assert len(peak) == 1 and float(peak[0].split()[-1]) > 0.0


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, vcross.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"

"""Batch-driver tests: configs, manifests, determinism, sweeps, reports."""

import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vcross.cli
from vcross.cli import main
from vcross.config import ConfigError, parse_config_text
from vcross.experiments import smooth_random_field
from vcross.fields import Grid
from vcross.manifest import read_manifest
from vcross.model import LEADING, integrate_variational
from vcross.series import read_series_csv
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
        series = read_series_csv(out / "series.csv")
        assert series == {}  # no-op run: empty series
        assert (out / "initial.vcrs").exists()
        assert not (out / "final.vcrs").exists()  # initial snapshot only
        _, _, blocks = read_manifest(out / "manifest.txt")
        assert "kernel = none" in blocks["notes"]
        assert "rhs_evals = 0" in blocks["notes"]

    def test_shear_run_constant_gradient_and_checks(self, tmp_path):
        out = tmp_path / "run1"
        cfg = write(tmp_path, "sim.cfg", SIM_CFG.format(t_end=1.0, out=out))
        assert main(["simulate", "--config", cfg]) == 0
        series = read_series_csv(out / "series.csv")
        assert np.max(np.abs(series["grad_sup"].values - 1.0)) <= 1e-10
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
        assert len(read_series_csv(out / "series.csv")["grad_sup"]) == 2

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

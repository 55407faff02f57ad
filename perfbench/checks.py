"""Output checks for each workload, read from the files a run wrote.

Snapshots are decoded here from their documented layout rather than through
``vcross.load_state``, so the format is checked independently of the package.
Each check returns ``(name, passed, detail)``; a missing or unreadable file
fails the check that needed it.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import os
import struct

import numpy as np

SNAPSHOT_HEADER = struct.Struct("<4sIQQdd")  # magic, version, nx, ny, time, alpha

GROWTH_SAMPLES = 5
SIMULATE_SAMPLES = 51
MODEL_PATHS = 16
MODEL_STEPS = 1000


def read_snapshot(path):
    with open(path, "rb") as fh:
        magic, _, nx, ny, _, alpha = SNAPSHOT_HEADER.unpack(fh.read(SNAPSHOT_HEADER.size))
        if magic != b"VCRS" or nx != ny:
            raise ValueError(f"{path}: not a square VCRS snapshot")
        values = np.frombuffer(fh.read(), dtype="<f8").reshape(nx, ny)
    return values, alpha


def alpha_invariant(values, alpha):
    """Sum over k != 0 of |k|^(-2 alpha) |theta_hat|^2, conserved for every alpha.

    ``kinetic_energy`` is conserved only at alpha = 1; this quadratic form is
    the Hamiltonian of the generalized inversion and stays invariant.
    """
    n = values.shape[0]
    spec = np.fft.rfft2(values)
    kx = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    ky = np.arange(n // 2 + 1)[None, :]
    k2 = kx * kx + ky * ky
    weight = np.full(spec.shape, 2.0)  # half spectrum: conjugate columns count twice
    weight[:, 0] = 1.0
    weight[:, -1] = 1.0
    k2[0, 0] = 1.0
    weight[0, 0] = 0.0
    return float(np.sum(weight * k2 ** (-alpha) * np.abs(spec) ** 2))


def read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def column(path, name):
    header, rows = read_table(path)
    i = header.index(name)
    return [float(r[i]) for r in rows]


def _drift(values):
    return abs(values[-1] - values[0]) / max(abs(values[0]), 1e-300)


def _guard(name, fn):
    try:
        passed, detail = fn()
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return (name, False, f"{type(exc).__name__}: {exc}")
    return (name, bool(passed), detail)


def exit_checks(codes):
    return [(f"exit.{cmd}", rc == 0, f"exit code {rc}") for cmd, rc in codes.items()]


def check_growth(out, codes):
    series = os.path.join(out, "series.csv")

    def samples():
        n = len(read_table(series)[1])
        return n == GROWTH_SAMPLES, f"{n} samples"

    def drift(key):
        def fn():
            d = _drift(column(series, key))
            return d <= 1e-6, f"{key} drift {d:.3g}"

        return fn

    def mean():
        values, _ = read_snapshot(os.path.join(out, "final.vcrs"))
        m = float(np.mean(values))
        return abs(m) <= 1e-12, f"mean {m:.3g}"

    def amplification():
        g = column(series, "grad_sup")
        ratio = max(g) / g[0]
        return ratio > 1.0, f"max(grad_sup)/grad_sup0 = {ratio:.6g}"

    return exit_checks(codes) + [
        _guard("growth.samples", samples),
        _guard("growth.energy_drift", drift("energy")),
        _guard("growth.enstrophy_drift", drift("enstrophy")),
        _guard("growth.mean", mean),
        _guard("growth.amplification", amplification),
    ]


def check_simulate(out, codes):
    def checks_csv():
        _, rows = read_table(os.path.join(out, "checks.csv"))
        failed = [r[0] for r in rows if r[3] != "1"]
        return rows and not failed, f"{len(rows)} rows, failed: {failed}"

    def samples():
        n = len(read_table(os.path.join(out, "series.csv"))[1])
        return n == SIMULATE_SAMPLES, f"{n} samples"

    def invariant():
        v0, alpha = read_snapshot(os.path.join(out, "initial.vcrs"))
        v1, _ = read_snapshot(os.path.join(out, "final.vcrs"))
        a, b = alpha_invariant(v0, alpha), alpha_invariant(v1, alpha)
        d = abs(b - a) / a
        return d <= 1e-10, f"alpha={alpha:g} invariant drift {d:.3g}"

    return exit_checks(codes) + [
        _guard("simulate.checks_csv", checks_csv),
        _guard("simulate.samples", samples),
        _guard("simulate.alpha_invariant", invariant),
    ]


def check_model(out, codes):
    def paths():
        files = sorted(glob.glob(os.path.join(out, "path_*.csv")))
        steps = {len(read_table(f)[1]) - 1 for f in files}
        ok = len(files) == MODEL_PATHS and steps == {MODEL_STEPS}
        return ok, f"{len(files)} paths, steps per path {sorted(steps)}"

    def key_estimate():
        header, rows = read_table(os.path.join(out, "summary.csv"))
        xa, bound = header.index("xa_final"), header.index("key_bound")
        ratios = [float(r[xa]) / float(r[bound]) for r in rows]
        ok = len(rows) == MODEL_PATHS and all(r >= 1.0 for r in ratios)
        return ok, f"{len(rows)} rows, min xa_final/key_bound {min(ratios):.4g}"

    return exit_checks(codes) + [
        _guard("model.paths", paths),
        _guard("model.key_estimate", key_estimate),
    ]


def check_cli(out, codes):
    return (
        exit_checks(codes)
        + check_simulate(os.path.join(out, "simulate"), {})
        + check_model(os.path.join(out, "model"), {})
    )


CHECKS = {"growth": check_growth, "cli": check_cli}

# outputs that must be byte-identical between two runs with the same seed
REPRODUCIBLE = {
    "growth": ("series.csv", "final.vcrs"),
    "cli": ("simulate/series.csv", "simulate/final.vcrs", "model/path_*.csv"),
}


def fingerprint(out, workload):
    """sha256 of every output the workload must reproduce byte for byte."""
    digests = {}
    for pattern in REPRODUCIBLE[workload]:
        for path in sorted(glob.glob(os.path.join(out, pattern))):
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return digests

"""Timestamped scalar diagnostics and their CSV form.

CSV layout is fixed: header row, first column ``t``, every number rendered
with 17 significant digits so that re-running a configuration reproduces the
file byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FLOAT_FMT = ".17g"


def format_value(x):
    return format(float(x), FLOAT_FMT)


@dataclass
class DiagnosticSeries:
    """A named series of (t, value) samples with strictly increasing t."""

    name: str
    t: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.t.shape != self.values.shape:
            raise ValueError("t and values must have matching shapes")
        if self.t.size > 1 and not np.all(np.diff(self.t) > 0):
            raise ValueError(f"series {self.name!r}: t must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"series {self.name!r}: values must be finite")

    def __len__(self):
        return self.t.size

    def window(self, t_min=None, t_max=None):
        mask = np.ones(self.t.size, dtype=bool)
        if t_min is not None:
            mask &= self.t >= t_min
        if t_max is not None:
            mask &= self.t <= t_max
        return DiagnosticSeries(self.name, self.t[mask], self.values[mask])


def _cell(c):
    return format_value(c) if isinstance(c, (float, np.floating)) else str(c)


def write_table(path, header, rows):
    """Write a CSV table: a header row, then one line per row.

    Float cells render as :func:`format_value` does and other cells as
    ``str``.  A 2-D float array as ``rows`` is rendered through one row
    template, byte-identical to the per-cell form and several times faster.
    """
    if isinstance(rows, np.ndarray):
        template = ",".join(["%" + FLOAT_FMT] * len(header)) + "\n"
        lines = (template % tuple(row) for row in rows.tolist())
    else:
        lines = (",".join(map(_cell, row)) + "\n" for row in rows)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def write_series_csv(path, series_list):
    """Write series sharing one time axis as a single CSV table."""
    series_list = list(series_list)
    t = series_list[0].t if series_list else np.empty(0)
    for s in series_list[1:]:
        if s.t.shape != t.shape or not np.array_equal(s.t, t):
            raise ValueError("series do not share a time axis")
    write_table(
        path,
        ["t"] + [s.name for s in series_list],
        np.column_stack([t] + [s.values for s in series_list]),
    )


@dataclass(frozen=True)
class RateFit:
    """Least-squares line fit of a transformed series over a time window."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple = field(default=(0.0, 0.0))

    def __post_init__(self):
        if not (-1e-12 <= self.r_squared <= 1.0 + 1e-12):
            raise ValueError(f"r_squared out of range: {self.r_squared}")
        if self.window[1] < self.window[0]:
            raise ValueError("empty fit window")


def linear_fit(t, z):
    """Ordinary least squares z = slope * t + intercept with r^2."""
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    tm, zm = t.mean(), z.mean()
    dt, dz = t - tm, z - zm
    denom = np.sum(dt * dt)
    if denom == 0.0:
        raise ValueError("degenerate fit: all sample times equal")
    slope = float(np.sum(dt * dz) / denom)
    intercept = float(zm - slope * tm)
    resid = z - (slope * t + intercept)
    total = np.sum(dz * dz)
    r2 = 1.0 if total == 0.0 else 1.0 - float(np.sum(resid * resid) / total)
    window = (float(t.min()), float(t.max()))
    return RateFit(slope, intercept, max(0.0, min(1.0, r2)), window)

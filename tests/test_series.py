"""Diagnostic series containers, CSV format, and least-squares fits."""

import numpy as np
import pytest

from conftest import read_csv_columns
from vcross.series import (
    DiagnosticSeries,
    RateFit,
    format_value,
    linear_fit,
    write_series_csv,
    write_table,
)


def test_series_requires_increasing_time():
    with pytest.raises(ValueError, match="strictly increasing"):
        DiagnosticSeries("x", [0.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_series_requires_finite_values():
    with pytest.raises(ValueError, match="finite"):
        DiagnosticSeries("x", [0.0, 1.0], [1.0, np.inf])


def test_window_filters_inclusive():
    s = DiagnosticSeries("x", [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
    w = s.window(1.0, 2.0)
    assert list(w.t) == [1.0, 2.0]


def test_csv_roundtrip_and_format(tmp_path):
    t = np.array([0.0, 0.1, 0.2])
    a = DiagnosticSeries("a", t, [1.0, 1.0 / 3.0, 2.0])
    b = DiagnosticSeries("b", t, [0.5, 0.25, 0.125])
    path = tmp_path / "series.csv"
    write_series_csv(path, [a, b])
    text = path.read_text().splitlines()
    assert text[0] == "t,a,b"
    # 17-significant-digit rendering reproduces the double exactly
    assert "0.33333333333333331" in text[2]
    back = read_csv_columns(path)
    assert np.array_equal(back["a"], a.values)
    assert np.array_equal(back["t"], t)


def test_linear_fit_exact_line():
    t = np.linspace(0.0, 2.0, 17)
    fit = linear_fit(t, 3.0 * t - 1.0)
    assert fit.slope == pytest.approx(3.0, abs=1e-12)
    assert fit.intercept == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_rate_fit_validation():
    with pytest.raises(ValueError):
        RateFit(1.0, 0.0, 1.5, (0.0, 1.0))
    with pytest.raises(ValueError):
        RateFit(1.0, 0.0, 0.5, (1.0, 0.0))


EDGE_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, np.float64(1.0) / 3.0, 0.1]


def test_write_table_matches_per_cell_format_value(tmp_path):
    rows = [
        ("name", 7, *EDGE_FLOATS),
        ("other", -3, *reversed(EDGE_FLOATS)),
    ]
    header = ["label", "count"] + [f"c{i}" for i in range(len(EDGE_FLOATS))]
    expected = ",".join(header) + "\n"
    for label, count, *cells in rows:
        expected += ",".join([label, str(count)] + [format_value(c) for c in cells]) + "\n"
    path = tmp_path / "mixed.csv"
    write_table(path, header, rows)
    assert path.read_bytes() == expected.encode()
    assert "nan,inf,-inf,-0,4.9406564584124654e-324,1.0000000000000001e+300" in expected


def test_write_table_array_rows_match_per_cell_format_value(tmp_path):
    table = np.array([EDGE_FLOATS, [float(k) for k in range(len(EDGE_FLOATS))]])
    header = [f"c{i}" for i in range(table.shape[1])]
    expected = ",".join(header) + "\n" + "".join(
        ",".join(format_value(c) for c in row) + "\n" for row in table
    )
    path = tmp_path / "floats.csv"
    write_table(path, header, table)
    assert path.read_bytes() == expected.encode()


def test_write_table_without_rows_writes_header_only(tmp_path):
    write_table(tmp_path / "a.csv", ["x", "y"], [])
    write_table(tmp_path / "b.csv", ["x", "y"], np.empty((0, 2)))
    write_series_csv(tmp_path / "c.csv", [])
    assert (tmp_path / "a.csv").read_text() == "x,y\n"
    assert (tmp_path / "b.csv").read_text() == "x,y\n"
    assert (tmp_path / "c.csv").read_text() == "t\n"

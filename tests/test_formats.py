"""Round-trips and formatting guarantees for the CSV/JSON outputs."""

import numpy as np
import pytest

from blockspec.ensemble import EmpiricalSpectrum, RngSeed
from blockspec.errors import NumericalError, ValidationError
from blockspec.formats import (
    fmt,
    read_density_csv,
    read_histogram_csv,
    read_json,
    read_spectrum_csv,
    spectrum_sidecar,
    write_density_csv,
    write_histogram_csv,
    write_json,
    write_spectrum_csv,
)
from blockspec.spectral import SpectralDensity


def test_fmt_round_trips():
    for x in (0.1, 1 / 3, 1e-300, -2.5e17, np.pi, np.float64(1.2571353875620264)):
        assert float(fmt(x)) == float(x)
    assert fmt(0.1) == "0.1"


def test_spectrum_round_trip(tmp_path):
    values = np.sort(np.random.default_rng(0).standard_normal(17))
    spec = EmpiricalSpectrum(
        n=17, p=1, gamma=(2.0,), seed=RngSeed(5, 6), scaled=True, values=values
    )
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, spec)
    np.testing.assert_array_equal(read_spectrum_csv(path), values)
    text = path.read_text()
    assert text.startswith("index,value\n")
    assert "\r" not in text

    sidecar = tmp_path / "spec.json"
    write_json(sidecar, spectrum_sidecar(spec))
    payload = read_json(sidecar)
    assert payload["seed"] == {"master": 5, "stream": 6}
    assert payload["scaled"] is True
    assert payload["gamma"] == [2.0]


def test_spectrum_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n1,2\n")
    with pytest.raises(ValidationError):
        read_spectrum_csv(path)


def test_density_round_trip(tmp_path):
    grid = np.linspace(-1, 1, 101)
    density = np.clip(1.0 - grid**2, 0.0, None)
    density = density / np.trapezoid(density, grid)
    cdf = np.concatenate(
        [[0.0], np.cumsum((density[1:] + density[:-1]) / 2.0 * np.diff(grid))]
    )
    cdf /= cdf[-1]
    table = SpectralDensity(grid=grid, density=density, cdf=cdf)
    path = tmp_path / "density.csv"
    write_density_csv(path, table)
    back = read_density_csv(path)
    np.testing.assert_array_equal(back.grid, grid)
    np.testing.assert_array_equal(back.density, density)
    np.testing.assert_array_equal(back.cdf, cdf)


def test_histogram_round_trip(tmp_path):
    centers = np.array([0.5, 1.5, 2.5])
    heights = np.array([0.25, 0.5, 0.25])
    path = tmp_path / "hist.csv"
    write_histogram_csv(path, centers, heights)
    c, h = read_histogram_csv(path)
    np.testing.assert_array_equal(c, centers)
    np.testing.assert_array_equal(h, heights)


def test_atomic_write_replaces(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old")
    write_json(path, {"a": 1})
    assert read_json(path) == {"a": 1}
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert not leftovers


def test_atomic_write_error_names_target(tmp_path):
    path = tmp_path / "missing" / "out.csv"
    with pytest.raises(FileNotFoundError) as info:
        write_json(path, {"a": 1})
    assert info.value.filename == str(path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_nonfinite(tmp_path, value):
    path = tmp_path / "side.json"
    with pytest.raises(NumericalError, match="side.json"):
        write_json(path, {"ok": 1.0, "nested": [value]})
    assert list(tmp_path.iterdir()) == []

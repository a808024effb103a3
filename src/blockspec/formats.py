"""Stable on-disk formats: CSV tables, JSON sidecars and experiment reports.

CSV uses '.' decimals, no thousands separators, '\n' newlines, and shortest
round-trip float formatting (Python repr).  Files are written atomically
(temp file in the target directory, then rename) so identical inputs always
produce bit-identical outputs and partial writes never survive.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .ensemble import EmpiricalSpectrum
from .errors import NumericalError, ValidationError
from .spectral import SpectralDensity


def fmt(x: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path atomically; an OSError names path, not the temp file."""
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
        # mkstemp defaults to 0600; match what a plain open() would create
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def write_json(path: str | Path, payload: dict) -> None:
    """Write strict JSON: a NaN or infinity in the payload raises NumericalError."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"refusing to write a non-finite number to {path}: {exc}") from exc
    atomic_write_text(path, text + "\n")


def read_json(path: str | Path) -> dict:
    with open(path, "r") as fh:
        return json.load(fh)


def spectrum_sidecar(spectrum: EmpiricalSpectrum) -> dict:
    seed = spectrum.seed
    return {
        "n": spectrum.n,
        "p": spectrum.p,
        "gamma": list(spectrum.gamma),
        "seed": None if seed is None else {"master": seed.master, "stream": seed.stream},
        "scaled": spectrum.scaled,
    }


def write_spectrum_csv(path: str | Path, spectrum: EmpiricalSpectrum) -> None:
    lines = ["index,value"]
    lines += [f"{i},{fmt(v)}" for i, v in enumerate(spectrum.values, start=1)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_spectrum_csv(path: str | Path) -> np.ndarray:
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if header != "index,value":
            raise ValidationError(f"unexpected spectrum CSV header: {header!r}")
        return np.array([float(line.split(",")[1]) for line in fh if line.strip()])


def density_sidecar(density: SpectralDensity, grid_size: int) -> dict:
    lo, hi = density.support
    return {
        "p": density.p,
        "gamma": None if density.gamma is None else list(density.gamma),
        "grid_size": grid_size,
        "quad_tol": density.quad_tol,
        "support": [lo, hi],
    }


def write_density_csv(path: str | Path, density: SpectralDensity) -> None:
    lines = ["t,density,cdf"]
    lines += [
        f"{fmt(t)},{fmt(d)},{fmt(c)}"
        for t, d, c in zip(density.grid, density.density, density.cdf)
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_density_csv(path: str | Path) -> SpectralDensity:
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if header != "t,density,cdf":
            raise ValidationError(f"unexpected density CSV header: {header!r}")
        rows = [tuple(map(float, line.split(","))) for line in fh if line.strip()]
    grid, density, cdf = (np.array(col) for col in zip(*rows))
    return SpectralDensity(grid=grid, density=density, cdf=cdf)


def write_histogram_csv(path: str | Path, centers: np.ndarray, heights: np.ndarray) -> None:
    lines = ["bin_center,frequency_density"]
    lines += [f"{fmt(c)},{fmt(h)}" for c, h in zip(centers, heights)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_histogram_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if header != "bin_center,frequency_density":
            raise ValidationError(f"unexpected histogram CSV header: {header!r}")
        rows = [tuple(map(float, line.split(","))) for line in fh if line.strip()]
    centers, heights = (np.array(col) for col in zip(*rows))
    return centers, heights

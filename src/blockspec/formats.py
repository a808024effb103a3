"""Writers of the stable on-disk formats: CSV tables, JSON sidecars and
experiment reports.

CSV uses '.' decimals, no thousands separators, '\n' newlines, and shortest
round-trip float formatting (Python repr).  Files are written atomically
(temp file in the target directory, then rename) so identical inputs always
produce bit-identical outputs and partial writes never survive.

The sidecars take the weights as one `GammaWeights` w
(`sample_sidecar(n, w, seed, scaled)`, or a table's own w) and write them
as the keys "p" and "gamma".
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .ensemble import EmpiricalSpectrum, GammaWeights, RngSeed
from .errors import NumericalError
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


def sample_sidecar(n: int, w: GammaWeights, seed: RngSeed | None, scaled: bool) -> dict:
    """Provenance of a spectrum of size n, or of a histogram of one."""
    return {
        "n": n,
        "p": w.p,
        "gamma": list(w.gamma),
        "seed": None if seed is None else {"master": seed.master, "stream": seed.stream},
        "scaled": scaled,
    }


def spectrum_sidecar(spectrum: EmpiricalSpectrum) -> dict:
    return sample_sidecar(spectrum.n, spectrum.w, spectrum.seed, spectrum.scaled)


def write_spectrum_csv(path: str | Path, spectrum: EmpiricalSpectrum) -> None:
    lines = ["index,value"]
    lines += [f"{i},{fmt(v)}" for i, v in enumerate(spectrum.values, start=1)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def density_sidecar(density: SpectralDensity) -> dict:
    """The table's configuration, and `quad_err_est` for a quadrature table."""
    lo, hi = density.support
    sidecar = {
        "p": density.w.p,
        "gamma": list(density.w.gamma),
        "grid_size": len(density.grid) - 1,
        "quad_tol": density.quad_tol,
        "support": [lo, hi],
    }
    if density.quad_err_est is not None:
        sidecar["quad_err_est"] = density.quad_err_est
    return sidecar


def write_density_csv(path: str | Path, density: SpectralDensity) -> None:
    lines = ["t,density,cdf"]
    lines += [
        f"{fmt(t)},{fmt(d)},{fmt(c)}"
        for t, d, c in zip(density.grid, density.density, density.cdf)
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_histogram_csv(path: str | Path, centers: np.ndarray, heights: np.ndarray) -> None:
    lines = ["bin_center,frequency_density"]
    lines += [f"{fmt(c)},{fmt(h)}" for c, h in zip(centers, heights)]
    atomic_write_text(path, "\n".join(lines) + "\n")

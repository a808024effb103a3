"""Command-line front end: sampling, roots, densities, comparison
experiments, and figure-data reproduction with stable file formats.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .ensemble import EmpiricalSpectrum, GammaWeights, RngSeed, build_G
from .errors import NumericalError, ValidationError
from .harness import (
    ExperimentConfig,
    check_epsilon,
    empirical_spectrum,
    gap_report,
    ks_distance,
    levy_cubed_bound,
    map_trials,
    tail_bound_experiment,
)
from .linalg import eigh_banded
from .matrixpoly import recurrence_coeffs, roots
from .spectral import (
    LimitModel,
    check_density_args,
    density_grid,
    oracle_density,
)
from . import formats

# the five published example configurations: (p, gamma, n)
FIGURES = {
    "fig1": (2, (2.0, 8.0), 5000),
    "fig2": (2, (1.0, 100.0), 5000),
    "fig3": (3, (4.0, 4.0, 100.0), 5001),
    "fig4": (3, (1.0, 4.0, 25.0), 5001),
    "fig5": (3, (1.0, 100.0, 200.0), 5001),
}


def _parse_gamma(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"could not parse --gamma {text!r}: {exc}") from exc
    if not values:
        raise ValidationError("--gamma must list at least one value")
    return values


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"could not parse integer list {text!r}: {exc}") from exc


def _weights(p: int, gamma_text: str) -> GammaWeights:
    gamma = _parse_gamma(gamma_text)
    if len(gamma) != p:
        raise ValidationError(f"--gamma lists {len(gamma)} values but --p is {p}")
    return GammaWeights(p=p, gamma=gamma)


def _prepare_out(out: str | Path) -> Path:
    path = Path(out)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_with_sidecar(out: str, write, table, sidecar: dict) -> int:
    """Write a table with `write` and its JSON sidecar next to it."""
    path = _prepare_out(out)
    write(path, table)
    formats.write_json(path.with_suffix(".json"), sidecar)
    print(f"wrote {path} and {path.with_suffix('.json')}")
    return 0


def _config_dict(n: int, w: GammaWeights, **extra) -> dict:
    return {"n": n, "p": w.p, "gamma": list(w.gamma), **extra}


def _write_spectrum(args: argparse.Namespace, w: GammaWeights, seed, values) -> int:
    if args.scaled:
        values = values / math.sqrt(args.n)
    spectrum = EmpiricalSpectrum(
        n=args.n, p=w.p, gamma=w.gamma, seed=seed, scaled=args.scaled, values=values
    )
    sidecar = formats.spectrum_sidecar(spectrum)
    return _write_with_sidecar(args.out, formats.write_spectrum_csv, spectrum, sidecar)


def cmd_sample(args: argparse.Namespace) -> int:
    w = _weights(args.p, args.gamma)
    seed = RngSeed(args.seed, args.stream)
    return _write_spectrum(args, w, seed, eigh_banded(build_G(args.n, w, seed)))


def cmd_roots(args: argparse.Namespace) -> int:
    w = _weights(args.p, args.gamma)
    return _write_spectrum(args, w, None, roots(recurrence_coeffs(args.n, w), args.n // w.p))


def cmd_density(args: argparse.Namespace) -> int:
    model = LimitModel.from_gamma(_weights(args.p, args.gamma))
    density = density_grid(model, args.grid, args.quad_tol)
    sidecar = {**formats.density_sidecar(density, args.grid), "quad_err_est": density.quad_err_est}
    return _write_with_sidecar(args.out, formats.write_density_csv, density, sidecar)


def cmd_oracle(args: argparse.Namespace) -> int:
    density = oracle_density(_weights(args.p, args.gamma), args.grid, args.quad_tol)
    kind = "semicircle" if density.p == 1 else "arcsine-mixture"
    sidecar = {**formats.density_sidecar(density, args.grid), "kind": kind}
    return _write_with_sidecar(args.out, formats.write_density_csv, density, sidecar)


def cmd_compare(args: argparse.Namespace) -> int:
    w = _weights(args.p, args.gamma)
    cfg = ExperimentConfig(
        n=args.n,
        w=w,
        trials=args.trials,
        master_seed=args.seed,
        grid_size=args.grid,
        quad_tol=args.quad_tol,
    )
    model = LimitModel.from_gamma(w)
    check_density_args(cfg.grid_size, cfg.quad_tol)
    coeffs = recurrence_coeffs(cfg.n, w)

    def solve(key: str | int):
        if key == "density":
            return density_grid(model, cfg.grid_size, cfg.quad_tol)
        if key == "roots":
            return roots(coeffs, cfg.n // w.p)
        return empirical_spectrum(cfg, key, scaled=False)

    density, roots_raw, *spectra = map_trials(solve, ["density", "roots", *range(cfg.trials)])
    roots_scaled = roots_raw / math.sqrt(cfg.n)

    def trial_row(trial: int, raw: EmpiricalSpectrum) -> dict:
        scaled = EmpiricalSpectrum(
            n=cfg.n,
            p=w.p,
            gamma=w.gamma,
            seed=raw.seed,
            scaled=True,
            values=raw.values / math.sqrt(cfg.n),
        )
        levy = levy_cubed_bound(scaled, roots_scaled)
        return {
            "trial": trial,
            "max_gap": float(np.abs(raw.values - roots_raw).max()),
            "ks": ks_distance(scaled, density),
            "levy_lhs_l3": levy.lhs_l3,
            "levy_rhs_mean_sq": levy.rhs_mean_sq,
            "levy_ok": levy.satisfied,
        }

    per_trial = [trial_row(trial, raw) for trial, raw in enumerate(spectra)]
    ks_values = [row["ks"] for row in per_trial]
    violations = sum(1 for row in per_trial if not row["levy_ok"])
    report = {
        "config": _config_dict(
            cfg.n,
            w,
            trials=cfg.trials,
            master_seed=cfg.master_seed,
            grid_size=cfg.grid_size,
            quad_tol=cfg.quad_tol,
        ),
        "per_trial": per_trial,
        "summary": {
            "median": float(np.median(ks_values)),
            "p90": float(np.quantile(ks_values, 0.9)),
            "bound_checks": {
                "levy": {
                    "checked": cfg.trials,
                    "violations": violations,
                    "all_satisfied": violations == 0,
                }
            },
        },
    }
    formats.write_json(_prepare_out(args.out), report)
    print(f"wrote {args.out}")
    return 0


def cmd_gap(args: argparse.Namespace) -> int:
    w = _weights(args.p, args.gamma)
    n_list = _parse_int_list(args.n_list)
    check_epsilon(args.epsilon)
    table = []
    tail_checks = []
    for n, report in zip(n_list, gap_report(n_list, w, args.trials, args.seed)):
        table.append(
            {
                "n": n,
                "max_gaps": [float(v) for v in report.max_gaps],
                "scaled_gaps": [float(v) for v in report.scaled_gaps],
                "median_scaled": report.median_scaled,
                "p90_scaled": report.p90_scaled,
            }
        )
        tail = tail_bound_experiment(
            n, w, args.epsilon, args.trials, args.seed, max_gaps=report.max_gaps
        )
        tail_checks.append(
            {
                "n": n,
                "epsilon": tail.epsilon,
                "trials": tail.trials,
                "empirical_freq": tail.empirical_freq,
                "bound": tail.bound,
                "threshold": tail.threshold,
                "satisfied": tail.satisfied,
            }
        )
    report = {
        "config": {
            "n_list": n_list,
            "p": w.p,
            "gamma": list(w.gamma),
            "trials": args.trials,
            "master_seed": args.seed,
            "epsilon": args.epsilon,
        },
        "gap_table": table,
        "tail_checks": tail_checks,
    }
    formats.write_json(_prepare_out(args.out), report)
    print(f"wrote {args.out}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    p, gamma, n = FIGURES[args.name]
    w = GammaWeights(p=p, gamma=gamma)
    seed = RngSeed(args.seed, 0)
    model = LimitModel.from_gamma(w)
    check_density_args(args.grid, args.quad_tol)

    def solve(key: str):
        if key == "density":
            return density_grid(model, args.grid, args.quad_tol)
        return eigh_banded(build_G(n, w, seed))

    density, raw = map_trials(solve, ["density", "sample"])
    values = raw / math.sqrt(n)
    heights, edges = np.histogram(values, bins="fd", density=True)
    centers = (edges[:-1] + edges[1:]) / 2.0

    base = _prepare_out(args.out or args.name)
    hist_path = base.parent / f"{base.name}_hist.csv"
    density_path = base.parent / f"{base.name}_density.csv"
    sidecar_path = base.parent / f"{base.name}.json"
    formats.write_histogram_csv(hist_path, centers, heights)
    formats.write_density_csv(density_path, density)
    lo, hi = density.support
    formats.write_json(
        sidecar_path,
        {
            "figure": args.name,
            "n": n,
            "p": p,
            "gamma": list(gamma),
            "seed": {"master": seed.master, "stream": seed.stream},
            "scaled": True,
            "binning": {
                "rule": "freedman-diaconis",
                "bins": int(len(centers)),
                "bin_width": float(edges[1] - edges[0]),
            },
            "grid_size": args.grid,
            "quad_tol": args.quad_tol,
            "support": [lo, hi],
        },
    )
    print(f"wrote {hist_path}, {density_path} and {sidecar_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockspec",
        description=(
            "Sample random block tridiagonal matrices, compute deterministic "
            "polynomial roots and limiting spectral densities, and run "
            "comparison experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, n=False, gamma=True, seed=False):
        if n:
            sp.add_argument("--n", type=int, required=True, help="matrix size")
        if gamma:
            sp.add_argument("--p", type=int, required=True, help="block size")
            sp.add_argument("--gamma", required=True, help="comma-separated weights")
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="master seed")

    sp = sub.add_parser("sample", help="eigenvalues of one sampled matrix")
    add_common(sp, n=True, seed=True)
    sp.add_argument("--stream", type=int, default=0, help="seed stream index")
    sp.add_argument("--scaled", action="store_true", help="divide by sqrt(n)")
    sp.add_argument("--out", default="spectrum.csv")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("roots", help="deterministic polynomial roots")
    add_common(sp, n=True)
    sp.add_argument("--scaled", action="store_true", help="divide by sqrt(n)")
    sp.add_argument("--out", default="roots.csv")
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("density", help="tabulated limiting spectral density")
    add_common(sp)
    sp.add_argument("--grid", type=int, default=400, help="grid intervals")
    sp.add_argument("--quad-tol", type=float, default=1e-6)
    sp.add_argument("--out", default="density.csv")
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("oracle", help="closed-form density (p = 1 or 2)")
    sp.add_argument("--p", type=int, required=True, choices=(1, 2))
    sp.add_argument("--gamma", required=True, help="comma-separated weights")
    sp.add_argument("--grid", type=int, default=400, help="grid intervals")
    sp.add_argument("--quad-tol", type=float, default=1e-10)
    sp.add_argument("--out", default="oracle.csv")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("compare", help="KS and Levy-bound report over trials")
    add_common(sp, n=True, seed=True)
    sp.add_argument("--trials", type=int, default=5)
    sp.add_argument("--grid", type=int, default=400, help="grid intervals")
    sp.add_argument("--quad-tol", type=float, default=1e-6)
    sp.add_argument("--out", default="compare.json")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("gap", help="uniform-gap table and tail-bound check")
    sp.add_argument("--n-list", required=True, help="comma-separated sizes")
    sp.add_argument("--p", type=int, required=True, help="block size")
    sp.add_argument("--gamma", required=True, help="comma-separated weights")
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0, help="master seed")
    sp.add_argument("--epsilon", type=float, default=30.0, help="tail threshold")
    sp.add_argument("--out", default="gap.json")
    sp.set_defaults(func=cmd_gap)

    sp = sub.add_parser("figure", help="histogram + density data for a figure")
    sp.add_argument("--name", required=True, choices=sorted(FIGURES))
    sp.add_argument("--seed", type=int, default=0, help="master seed")
    sp.add_argument("--grid", type=int, default=400, help="grid intervals")
    sp.add_argument("--quad-tol", type=float, default=1e-6)
    sp.add_argument("--out", default=None, help="output base path (default: figure name)")
    sp.set_defaults(func=cmd_figure)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # an output path that cannot be created or written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Command-line front end: sampling, roots, densities, comparison
experiments, and figure-data reproduction with stable file formats.

Exit codes: 0 success, 2 validation error, 3 numerical failure, reported by
`run` alone as `numerical failure: <command> <options>: <message>`.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from .ensemble import EmpiricalSpectrum, GammaWeights, RngSeed, check_size
from .errors import NumericalError, ValidationError
from .harness import (
    approx_gap,
    check_epsilon,
    check_trials,
    empirical_spectrum,
    gap_report,
    ks_distance,
    levy_cubed_bound,
    map_trials,
    scaled_tridiagonal,
    spectrum_histogram,
    tail_bound_experiment,
)
from .matrixpoly import recurrence_coeffs, roots_of
from .spectral import check_density_args, density_grid, oracle_density
from . import formats

# the five published example configurations: (gamma, n)
FIGURES = {
    "fig1": ((2.0, 8.0), 5000),
    "fig2": ((1.0, 100.0), 5000),
    "fig3": ((4.0, 4.0, 100.0), 5001),
    "fig4": ((1.0, 4.0, 25.0), 5001),
    "fig5": ((1.0, 100.0, 200.0), 5001),
}


def _parse_list(text: str, convert, what: str) -> list:
    try:
        return [convert(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"could not parse {what} {text!r}: {exc}") from exc


def _weights(p: int, gamma_text: str) -> GammaWeights:
    gamma = _parse_list(gamma_text, float, "--gamma")
    if len(gamma) != p:
        raise ValidationError(f"--gamma lists {len(gamma)} values but --p is {p}")
    return GammaWeights(gamma)


def _write(*outputs) -> int:
    """Write each output `(path, writer, *data)` as `writer(path, *data)` in its
    created parent directory, all or nothing: if a write raises, the files already
    written are removed and it propagates.  Prints "wrote" and the paths as given."""
    written: list[Path] = []
    try:
        for path, writer, *data in outputs:
            path = Path(path)
            if path.parent != Path("."):
                path.parent.mkdir(parents=True, exist_ok=True)
            writer(path, *data)
            written.append(path)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    *rest, last = [str(path) for path, *_ in outputs]
    print(f"wrote {', '.join(rest)} and {last}" if rest else f"wrote {last}")
    return 0


def _base_path(text: str) -> str:
    """An --out, rejected while parsing when it names no file: '', '.', '..',
    '/' or any text ending in '/', which pathlib would drop."""
    if os.path.basename(text) in ("", ".", ".."):
        raise argparse.ArgumentTypeError(f"{text!r} names no file")
    return text


def _table_path(text: str) -> Path:
    """The --out of a table command, rejected while parsing when it names no
    file or when the table and its JSON sidecar (`_sidecar`) would not be two
    files."""
    path = Path(_base_path(text))
    if path.suffix.lower() == ".json":
        raise argparse.ArgumentTypeError(
            f"{text!r} leaves no separate path for the table's JSON sidecar"
        )
    return path


def _sidecar(path: Path, payload: dict) -> tuple:
    """The output that writes `payload` as the JSON sidecar of the table at `path`."""
    return path.with_suffix(".json"), formats.write_json, payload


def _write_spectrum(args: argparse.Namespace, spectrum: EmpiricalSpectrum) -> int:
    if args.scaled:
        spectrum = spectrum.to_scaled()
    return _write(
        (args.out, formats.write_spectrum_csv, spectrum),
        _sidecar(args.out, formats.spectrum_sidecar(spectrum)),
    )


def cmd_sample(args: argparse.Namespace) -> int:
    w = _weights(args.p, args.gamma)
    return _write_spectrum(args, empirical_spectrum(args.n, w, RngSeed(args.seed, args.stream)))


def cmd_roots(args: argparse.Namespace) -> int:
    w = _weights(args.p, args.gamma)
    return _write_spectrum(args, EmpiricalSpectrum(w, None, False, roots_of(args.n, w)))


def cmd_density(args: argparse.Namespace) -> int:
    density = density_grid(_weights(args.p, args.gamma), args.grid, args.quad_tol)
    return _write(
        (args.out, formats.write_density_csv, density),
        _sidecar(args.out, formats.density_sidecar(density)),
    )


def cmd_oracle(args: argparse.Namespace) -> int:
    density = oracle_density(_weights(args.p, args.gamma), args.grid, args.quad_tol)
    kind = "semicircle" if density.w.p == 1 else "arcsine-mixture"
    sidecar = {**formats.density_sidecar(density), "kind": kind}
    return _write((args.out, formats.write_density_csv, density), _sidecar(args.out, sidecar))


def cmd_compare(args: argparse.Namespace) -> int:
    w = _weights(args.p, args.gamma)
    check_size(args.n, w)
    check_trials(args.trials)
    check_density_args(w, args.grid, args.quad_tol)
    recurrence_coeffs(args.n, w)  # its A_i checks, before any solve
    seeds = [RngSeed(args.seed, trial) for trial in range(args.trials)]
    tasks = [
        partial(density_grid, w, args.grid, args.quad_tol),
        partial(roots_of, args.n, w),
        *(partial(empirical_spectrum, args.n, w, seed) for seed in seeds),
    ]
    density, roots_raw, *spectra = map_trials(tasks)
    roots_scaled = roots_raw / math.sqrt(args.n)

    def trial_row(trial: int, raw: EmpiricalSpectrum) -> dict:
        scaled = raw.to_scaled()
        levy = levy_cubed_bound(scaled, roots_scaled)
        return {
            "trial": trial,
            "max_gap": approx_gap(raw, roots_raw),
            "ks": ks_distance(scaled, density),
            "levy_lhs_l3": levy.lhs_l3,
            "levy_rhs_mean_sq": levy.rhs_mean_sq,
            "levy_ok": levy.satisfied,
        }

    per_trial = [trial_row(trial, raw) for trial, raw in enumerate(spectra)]
    ks_values = [row["ks"] for row in per_trial]
    violations = sum(1 for row in per_trial if not row["levy_ok"])
    report = {
        "config": {
            "n": args.n,
            "p": w.p,
            "gamma": list(w.gamma),
            "trials": args.trials,
            "master_seed": args.seed,
            "grid_size": args.grid,
            "quad_tol": args.quad_tol,
        },
        "per_trial": per_trial,
        "summary": {
            "median": float(np.median(ks_values)),
            "p90": float(np.quantile(ks_values, 0.9)),
            "quad_err_est": density.quad_err_est,
            "bound_checks": {
                "levy": {
                    "checked": args.trials,
                    "violations": violations,
                    "all_satisfied": violations == 0,
                }
            },
        },
    }
    return _write((args.out, formats.write_json, report))


def cmd_gap(args: argparse.Namespace) -> int:
    w = _weights(args.p, args.gamma)
    n_list = _parse_list(args.n_list, int, "integer list")
    check_epsilon(args.epsilon)
    table = []
    tail_checks = []
    for n, gaps in zip(n_list, gap_report(n_list, w, args.trials, args.seed)):
        scaled = gaps / math.sqrt(math.log(n))
        table.append(
            {
                "n": n,
                "max_gaps": gaps.tolist(),
                "scaled_gaps": scaled.tolist(),
                "median_scaled": float(np.median(scaled)),
                "p90_scaled": float(np.quantile(scaled, 0.9)),
            }
        )
        tail = tail_bound_experiment(n, w.p, args.epsilon, gaps)
        tail_checks.append({"n": n, **tail._asdict()})
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
    return _write((args.out, formats.write_json, report))


def cmd_figure(args: argparse.Namespace) -> int:
    gamma, n = FIGURES[args.name]
    w = GammaWeights(gamma)
    seed = RngSeed(args.seed, 0)
    check_density_args(w, args.grid, args.quad_tol)
    tasks = [
        partial(density_grid, w, args.grid, args.quad_tol),
        partial(scaled_tridiagonal, n, w, seed),
    ]
    density, t = map_trials(tasks)
    histogram = spectrum_histogram(t)
    edges = histogram.edges
    centers = (edges[:-1] + edges[1:]) / 2.0
    binning = {"rule": "freedman-diaconis", "bins": int(len(centers)),
               "bin_width": float(edges[1] - edges[0])}
    # p and gamma repeat in the density sidecar with equal values and keep
    # their first position
    sidecar = {
        "figure": args.name,
        **formats.sample_sidecar(n, w, seed, scaled=True),
        "binning": binning,
        **formats.density_sidecar(density),
    }
    base = Path(args.out or args.name)
    return _write(
        (base.parent / f"{base.name}_hist.csv", formats.write_histogram_csv,
         centers, histogram.density),
        (base.parent / f"{base.name}_density.csv", formats.write_density_csv, density),
        (base.parent / f"{base.name}.json", formats.write_json, sidecar),
    )


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValidationError, so that `run` reports it in
    one line like every other validation error; subparsers inherit this."""

    def error(self, message: str):
        raise ValidationError(message)


# the flags of build_parser that take no value
_SWITCHES = ("--help", "--scaled")


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Rewrite `--flag -v` as `--flag=-v` for every flag that takes a value.

    argparse reads a token such as `-1,1` that begins with one '-' but is
    not a plain negative number as an unknown flag, and then reports the
    flag before it as missing its value.  Attached, the value reaches the
    flag's own check, as it does when written `--flag=-v`.
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if (token[:1] == "-" and token[:2] != "--" and prev[:2] == "--"
                and "=" not in prev and prev not in _SWITCHES):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blockspec",
        description=(
            "Sample random block tridiagonal matrices, compute deterministic "
            "polynomial roots and limiting spectral densities, and run "
            "comparison experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *, n=False, weights=True, p_choices=None, seed=False,
                trials=None, quad_tol=None, scaled=False, out, out_type=_base_path,
                out_help=None):
        """The subparser `name` with the flags it shares with other commands."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func)
        if n:
            sp.add_argument("--n", type=int, required=True, help="matrix size")
        if weights:
            sp.add_argument("--p", type=int, required=True, choices=p_choices, help="block size")
            sp.add_argument("--gamma", required=True, help="comma-separated weights")
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="master seed")
        if trials is not None:
            sp.add_argument("--trials", type=int, default=trials)
        if quad_tol is not None:
            sp.add_argument("--grid", type=int, default=400, help="grid intervals")
            sp.add_argument("--quad-tol", type=float, default=quad_tol)
        if scaled:
            sp.add_argument("--scaled", action="store_true", help="divide by sqrt(n)")
        sp.add_argument("--out", default=out, type=out_type, help=out_help)
        return sp

    sp = command("sample", cmd_sample, "eigenvalues of one sampled matrix",
                 n=True, seed=True, scaled=True, out="spectrum.csv", out_type=_table_path)
    sp.add_argument("--stream", type=int, default=0, help="seed stream index")
    command("roots", cmd_roots, "deterministic polynomial roots",
            n=True, scaled=True, out="roots.csv", out_type=_table_path)
    command("density", cmd_density, "tabulated limiting spectral density",
            quad_tol=1e-6, out="density.csv", out_type=_table_path)
    command("oracle", cmd_oracle, "closed-form density (p = 1 or 2)",
            p_choices=(1, 2), quad_tol=1e-10, out="oracle.csv", out_type=_table_path)
    command("compare", cmd_compare, "KS and Levy-bound report over trials",
            n=True, seed=True, trials=5, quad_tol=1e-6, out="compare.json")
    sp = command("gap", cmd_gap, "uniform-gap table and tail-bound check",
                 seed=True, trials=20, out="gap.json")
    sp.add_argument("--n-list", required=True, help="comma-separated sizes")
    sp.add_argument("--epsilon", type=float, default=30.0, help="tail threshold")
    sp = command("figure", cmd_figure, "histogram + density data for a figure",
                 weights=False, seed=True, quad_tol=1e-6, out=None,
                 out_help="output base path (default: figure name)")
    sp.add_argument("--name", required=True, choices=sorted(FIGURES))

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The `build_parser` parser of this process, built on first use: it does
    not depend on argv, and parse_args reads it without changing it, so every
    later `run` reuses it."""
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(_attach_dash_values(argv))
        return args.func(args)
    except SystemExit as exc:  # --help, after printing the help text
        code = exc.code
        return int(code) if isinstance(code, int) else 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, MemoryError) as exc:  # raised only by args.func
        # the command and every option parsed but --out; a switch only when set
        options = (f"--{dest.replace('_', '-')}" + ("" if value is True else f" {value}")
                   for dest, value in vars(args).items()
                   if dest not in ("command", "func", "out") and value is not False)
        message = f"out of memory: {exc}".removesuffix(": ") if isinstance(exc, MemoryError) else exc
        print(f"numerical failure: {' '.join([args.command, *options])}: {message}",
              file=sys.stderr)
        return 3
    except OSError as exc:
        # an output path that cannot be created or written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

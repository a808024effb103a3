"""One benchmark run of a workload, in a fresh process.

Times ``import blockspec.cli``, then runs the workload's CLI commands back to
back through ``blockspec.cli.run`` (a closed loop with one client) until the
time budget is spent, and checks every file each command writes.  The
calibration kernel of ``calibrate.py`` is timed before each command.  With
tracing on, every second iteration runs under ``spans.Tracer``; the others
stay untraced, so one run gives both the per-layer numbers and the tracing
overhead.  ``run.py`` starts this with PYTHONPATH set to the absolute ``src``
directory and reads the result file it writes:

    python3 bench/workload.py --workload golden --seed 1 --seconds 10 \\
        --trace 0 --workdir .bench_work/x --result .bench_work/x.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import checks
from calibrate import kernel_s, settled_kernel_s
from spans import Tracer, process_cpu_s

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"


class Command(NamedTuple):
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


def figures(seed: int) -> list[Command]:
    """The five published configurations at their defaults (n = 5000/5001, grid 400)."""
    return [
        Command(
            ("figure", "--name", f"fig{k}", "--seed", str(seed), "--out", f"fig{k}"),
            (f"fig{k}_hist.csv", f"fig{k}_density.csv", f"fig{k}.json"),
        )
        for k in range(1, 6)
    ]


def sweep(seed: int) -> list[Command]:
    """Gap and KS/Levy sweeps over n and bandwidth, plus the p = 2 limit table
    of the gap configuration so that accuracy is measured on this workload too."""
    return [
        Command(
            ("gap", "--n-list", "1000,2000,4000", "--p", "2", "--gamma", "2,8",
             "--trials", "8", "--seed", str(seed), "--out", "gap.json"),
            ("gap.json",),
        ),
        Command(
            ("compare", "--n", "3000", "--p", "3", "--gamma", "1,4,25", "--trials", "8",
             "--grid", "100", "--seed", str(seed), "--out", "compare.json"),
            ("compare.json",),
        ),
        Command(
            ("density", "--p", "2", "--gamma", "2,8", "--grid", "100", "--out", "density.csv"),
            ("density.csv", "density.json"),
        ),
    ]


# The configurations of tests/golden/regenerate.py, copied so that the
# workload stays fixed; test_bench.py checks that the two still agree.
GOLDEN = [
    Command(("sample", "--n", "12", "--p", "2", "--gamma", "2,8", "--seed", "31",
             "--out", "sample.csv"), ("sample.csv", "sample.json")),
    Command(("roots", "--n", "12", "--p", "3", "--gamma", "1,4,25", "--scaled",
             "--out", "roots.csv"), ("roots.csv", "roots.json")),
    Command(("density", "--p", "1", "--gamma", "2", "--grid", "120",
             "--out", "density.csv"), ("density.csv", "density.json")),
    Command(("oracle", "--p", "2", "--gamma", "2,8", "--grid", "120",
             "--out", "oracle.csv"), ("oracle.csv", "oracle.json")),
    Command(("compare", "--n", "12", "--p", "2", "--gamma", "2,8", "--trials", "2",
             "--seed", "8", "--grid", "120", "--out", "compare.json"), ("compare.json",)),
    Command(("gap", "--n-list", "12,24", "--p", "2", "--gamma", "2,8", "--trials", "2",
             "--seed", "8", "--out", "gap.json"), ("gap.json",)),
    Command(("figure", "--name", "fig1", "--seed", "1", "--grid", "120",
             "--out", "fig1"), ("fig1_hist.csv", "fig1_density.csv", "fig1.json")),
]

WORKLOADS = {"figures": figures, "sweep": sweep, "golden": lambda seed: GOLDEN}


def run_commands(commands: list[Command], workdir: Path) -> tuple[float, float, float, list[str | None]]:
    """Run the commands back to back in a new workdir, with the calibration
    kernel timed before each.

    Returns (wall_s, cpu_s, mean kernel_s, per-command error or None).  Only
    the commands count toward wall_s and cpu_s; checks happen afterwards.
    """
    import blockspec.cli as cli

    workdir.mkdir(parents=True)
    wall = cpu = kernel = 0.0
    errors: list[str | None] = []
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for cmd in commands:
            kernel += kernel_s()
            wall0, cpu0 = perf_counter(), process_cpu_s()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.run(list(cmd.argv))
                errors.append(None if rc == 0 else f"exit code {rc}")
            except Exception as exc:  # a crashing command is a failed operation
                traceback.print_exc()
                errors.append(f"raised {exc!r}")
            wall += perf_counter() - wall0
            cpu += process_cpu_s() - cpu0
    finally:
        os.chdir(here)
    return wall, cpu, kernel / len(commands), errors


def _read(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except OSError:
        return None


def check_command(cmd: Command, workdir: Path, first: Path | None, golden: bool) -> list[str]:
    """Problems with the files one command wrote in workdir."""
    problems = []
    for name in cmd.outputs:
        data = _read(workdir / name)
        if data is None:
            problems.append(f"{name}: missing")
            continue
        problems += checks.check_file(workdir / name)
        if first is not None and data != _read(first / name):
            problems.append(f"{name}: bytes differ from the run's first iteration")
        if golden and data != _read(GOLDEN_DIR / name):
            problems.append(f"{name}: bytes differ from tests/golden/{name}")
    if not problems:
        problems += checks.check_report(cmd.argv[0], workdir / cmd.outputs[0])
    return problems


def worst_oracle_error(cmd: Command, workdir: Path) -> tuple[float | None, list[str]]:
    """Largest closed-form error over the command's density tables."""
    worst = None
    for name in cmd.outputs:
        if not name.endswith(".csv"):
            continue
        try:
            err = checks.oracle_error(workdir / name)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return worst, [f"{name}: no oracle error: {exc!r}"]
        if err is not None:
            worst = err if worst is None else max(worst, err)
    return worst, []


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run the workload's commands repeatedly for about `seconds` seconds.

    Another iteration starts while at least half of a median iteration fits
    in the time left, so a run ends within half an iteration of its budget,
    except to reach the minimum count: one iteration, or two (untraced, then
    traced) when tracing.
    """
    commands = WORKLOADS[workload](seed % 2**64)
    iterations: list[dict] = []
    failures: list[str] = []
    layers: list[dict] = []
    absent: set[str] = set()
    oracle_err = None
    durations: list[float] = []
    start = perf_counter()
    while len(iterations) < (2 if trace else 1) or (
        perf_counter() - start + statistics.median(durations) / 2 <= seconds
    ):
        k = len(iterations)
        began = perf_counter()
        it_dir = workdir / f"it{k}"
        tracer = Tracer() if trace and k % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        try:
            wall, cpu, kernel, errors = run_commands(commands, it_dir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        failed = 0
        for cmd, error in zip(commands, errors):
            problems = [error] if error else []
            problems += check_command(cmd, it_dir, None if k == 0 else workdir / "it0",
                                      workload == "golden")
            if k == 0:
                err, oracle_problems = worst_oracle_error(cmd, it_dir)
                problems += oracle_problems
                if err is not None:
                    oracle_err = err if oracle_err is None else max(oracle_err, err)
            failed += bool(problems)
            failures += [f"iteration {k}, {cmd.argv[0]}: {problem}" for problem in problems]
        if k > 0:
            shutil.rmtree(it_dir)
        iterations.append(
            {"wall_s": wall, "cpu_s": cpu, "kernel_s": kernel, "traced": tracer is not None,
             "failed": failed}
        )
        if tracer is not None:
            layers.append(tracer.metrics())
            absent.update(tracer.absent)
        durations.append(perf_counter() - began)
    rusage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return {
        "iterations": iterations,
        "attempted": len(commands) * len(iterations),
        "failed": sum(it["failed"] for it in iterations),
        "failures": failures,
        "oracle_err": oracle_err,
        "peak_rss_mb": sum(u.ru_maxrss for u in rusage) / 1024.0,
        "layers": {key: statistics.median_low(row[key] for row in layers) for key in layers[0]}
        if layers else {},
        "absent": sorted(absent),
    }


def environment() -> dict:
    """Library versions and the effective trial worker count."""
    import platform

    import numpy
    import scipy
    from blockspec import harness

    def blas(module) -> str:
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "blockspec_workers": harness.worker_count() if hasattr(harness, "worker_count") else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    t0 = perf_counter()
    import blockspec.cli
    import_s = perf_counter() - t0

    src = (ROOT / "src").resolve()
    if not Path(blockspec.cli.__file__).resolve().is_relative_to(src):
        print(f"blockspec imported from {blockspec.cli.__file__}, not {src}", file=sys.stderr)
        return 1
    setup = {"import_s": import_s, "kernel_s": settled_kernel_s()}
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    result["setup"] = setup
    result["env"] = environment()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

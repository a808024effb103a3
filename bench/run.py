"""Benchmark entry point for the blockspec CLI.

    python3 bench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Runs one workload (``figures``, ``sweep``, ``golden``, or ``all`` for the
three in turn) in a fresh Python process that imports blockspec from this
checkout's ``src`` by absolute path.  Set-up time is the median over several
fresh processes that only import ``blockspec.cli``.  Prints the environment
and every metric with its unit, one per line, then as the last line one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The metrics are
the ``end_to_end`` set of BENCHMARK.json with ``--trace 0`` and the
``per_layer`` set with ``--trace 1``.  Exits 1 without a JSON line when the
workload process fails, and 2 when there is no ``src/blockspec`` to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import K_REF_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 4
# every process of a run must be gone within the driver's 180 s
DEADLINE_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # the default worker count, whatever the caller's shell sets
    env.pop("BLOCKSPEC_THREADS", None)
    return env


def spawn(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run argv in its own session; kill the whole session on timeout or exit."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {timeout:.0f} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def cpu_ticks() -> list[int]:
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def loadavg() -> list[float]:
    with open("/proc/loadavg") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def machine_noise(before: list[int], after: list[int]) -> dict[str, float]:
    """iowait and steal over the run, in seconds and as a share of all CPU time."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8]) or 1
    hz = os.sysconf("SC_CLK_TCK")
    return {
        "iowait_s": delta[4] / hz,
        "steal_s": delta[7] / hz,
        "iowait_share": delta[4] / total,
        "steal_share": delta[7] / total,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float):
    """(result dict, environment dict) of one run, or None when it failed."""
    stamp = f"{workload}-{seed}-{trace}-{os.getpid()}"
    workdir, result_file = WORK / stamp, WORK / f"{stamp}.json"
    WORK.mkdir(exist_ok=True)
    load_before, ticks_before = loadavg(), cpu_ticks()

    setup = []
    for _ in range(SETUP_PROBES):
        probe = spawn([sys.executable, str(BENCH / "probe.py")], deadline - perf_counter())
        if probe.returncode != 0:
            print(probe.stderr, file=sys.stderr)
            return None
        setup.append(json.loads(probe.stdout))

    child = spawn(
        [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--workdir", str(workdir), "--result", str(result_file)],
        deadline - perf_counter(),
    )
    if child.returncode != 0 or not result_file.is_file():
        print(child.stderr[-4000:], file=sys.stderr)
        print(f"workload process failed (exit {child.returncode}); files kept in {workdir}",
              file=sys.stderr)
        return None
    result = json.loads(result_file.read_text())
    result_file.unlink()
    if result["failed"] == 0:
        shutil.rmtree(workdir, ignore_errors=True)
    else:
        print(f"failed checks; files kept in {workdir}", file=sys.stderr)
    for line in result["failures"][:20]:
        print(f"FAILED {workload}: {line}", file=sys.stderr)

    env = {
        **result["env"],
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        **machine_noise(ticks_before, cpu_ticks()),
    }
    result["setup"] = setup + [result["setup"]]
    return result, env


def at_reference_speed(samples, key: str) -> float:
    """Median of the samples' `key` seconds, each rescaled by its kernel time."""
    return statistics.median(row[key] * K_REF_S / row["kernel_s"] for row in samples)


def metric_values(result: dict) -> dict[str, float]:
    """Every metric the run measured, by BENCHMARK.json name."""
    untraced = [it for it in result["iterations"] if not it["traced"]]
    traced = [it for it in result["iterations"] if it["traced"]]
    values = {
        "setup_s": at_reference_speed(result["setup"], "import_s"),
        "wall_s": at_reference_speed(untraced, "wall_s"),
        "cpu_s": at_reference_speed(untraced, "cpu_s"),
        "peak_rss_mb": result["peak_rss_mb"],
        "oracle_err": result["oracle_err"],
        **result["layers"],
    }
    if traced:
        values["trace.overhead_s"] = at_reference_speed(traced, "wall_s") - values["wall_s"]
    return values


def report(workload: str, result: dict, env: dict, trace: int, spec: dict) -> dict:
    """Print the run's lines and return its metrics in the JSON shape."""
    values = metric_values(result)
    untraced = sum(1 for it in result["iterations"] if not it["traced"])
    print(f"{workload} env {json.dumps(env, sort_keys=True)}")
    runs = " ".join(
        f"{it['wall_s']:.3f}/{it['kernel_s']:.4f}{'T' if it['traced'] else ''}"
        for it in result["iterations"]
    )
    setups = " ".join(f"{row['import_s']:.3f}/{row['kernel_s']:.4f}" for row in result["setup"])
    print(f"{workload} measured seconds/kernel seconds (reference kernel {K_REF_S} s): "
          f"iterations {runs}; imports {setups}")
    if result["absent"]:
        print(f"{workload} absent (reported as 0): {', '.join(result['absent'])}")
    shown = spec["end_to_end"] + (spec["per_layer"] if trace else [])
    for m in shown:
        print(f"{workload} {m['name']} {values[m['name']]!r} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload} fail_frac {failed / attempted!r} ({failed} of {attempted} operations)")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def main(argv: list[str] | None = None) -> int:
    start = perf_counter()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "blockspec" / "cli.py").is_file():
        print(f"no blockspec sources at {SRC}", file=sys.stderr)
        return 2

    workloads = names if args.workload == "all" else [args.workload]
    budget = DEADLINE_S * len(workloads)
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        run = run_workload(workload, args.seed, args.seconds, args.trace, start + budget)
        if run is None:
            return 1
        result, env = run
        metrics = report(workload, result, env, args.trace, spec)
        prefix = f"{workload}." if args.workload == "all" else ""
        out["metrics"].update({prefix + k: v for k, v in metrics.items()})
        out["attempted"] += result["attempted"]
        out["failed"] += result["failed"]
    out["correct"] = out["failed"] == 0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

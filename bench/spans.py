"""Span wrappers put around blockspec's public functions from outside the
package, for the benchmark's traced runs.

A wrapper replaces the function object in every loaded ``blockspec.*``
namespace that holds it, because ``cli`` and ``harness`` import names
directly (``cli.eigh_banded`` is the object ``linalg.eigh_banded``); patching
only the defining module would silently count zero calls.  A target that no
longer exists is listed in ``Tracer.absent`` instead of raising.

Per span the tracer keeps the wall interval, the calling thread's CPU time
and the process CPU time (reaped children included).  A span opened on a
thread whose own stack is empty (a worker thread of ``map_trials``) takes the
innermost open span of the installing thread as its parent; the benchmark
drives the CLI from a single thread, so that span is the one that started
the workers.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import sys
import threading
from time import perf_counter, process_time, thread_time


def _rows(args) -> int:
    return args[0].dim


def _draws(args) -> int:
    # n normals, then the chi entries: p(p-1)/2 per diagonal block and p^2
    # per coupling block (the layout in blockspec.ensemble's docstring)
    n, p = args[0], args[1].p
    m = n // p
    return n + m * p * (p - 1) // 2 + (m - 1) * p * p


def _bytes(args) -> int:
    return os.path.getsize(args[0])


# layer -> {function: (work stat name, work count from the call's args)}.
# "write" stands for every formats.write_* function, counted as one span name.
# blockspec.ensemble.chi_sample is left out on purpose: it runs ~n(2p-1)
# times per matrix and a wrapper there would dominate the traced time.
TARGETS = {
    "cli": {"run": None},
    "ensemble": {"build_G": ("draws", _draws), "build_F_tilde": None},
    "linalg": {"eigh_banded": ("rows", _rows), "eigh_dense": None, "spd_inv_sqrt": None},
    "matrixpoly": {"recurrence_coeffs": None, "roots": None},
    "spectral": {
        "density_grid": None,
        "limit_density": None,
        "semicircle_density": None,
        "arcsine_mixture_density": None,
        "quad": None,
        "brentq": None,
    },
    "harness": {
        "map_trials": None,
        "gap_report": None,
        "approx_gap": None,
        "empirical_spectrum": None,
        "ks_distance": None,
        "levy_cubed_bound": None,
    },
    "formats": {"write": ("bytes", _bytes)},
}


def process_cpu_s() -> float:
    """User + system CPU of this process and its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


class Span:
    __slots__ = ("name", "parent", "start", "end", "thread_cpu", "proc_cpu", "work")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.work = 0


class Tracer:
    """Install with ``install()``, run the workload, then ``uninstall()``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._main: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main[-1] if self._main else None)
            span = Span(name, parent)
            stack.append(span)
            span.proc_cpu = process_cpu_s()
            span.thread_cpu = thread_time()
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                span.thread_cpu = thread_time() - span.thread_cpu
                span.proc_cpu = process_cpu_s() - span.proc_cpu
                stack.pop()
                if work is not None:
                    try:
                        span.work = work[1](args)
                    except (AttributeError, IndexError, TypeError, OSError):
                        span.work = 0
                self.spans.append(span)

        return traced

    def _targets(self):
        """(span name, function object, work) for every target that exists."""
        for layer, functions in TARGETS.items():
            try:
                module = importlib.import_module(f"blockspec.{layer}")
            except ModuleNotFoundError:
                module = None
            for fname, work in functions.items():
                name = f"{layer}.{fname}"
                if fname == "write" and module is not None:
                    found = [
                        obj for attr, obj in vars(module).items()
                        if attr.startswith("write_") and callable(obj)
                    ]
                else:
                    found = [getattr(module, fname)] if hasattr(module, fname) else []
                if not found:
                    self.absent.append(name)
                for fn in found:
                    yield name, fn, work

    def install(self) -> None:
        self._local.stack = self._main
        namespaces = [
            mod for key, mod in sys.modules.items()
            if mod is not None and (key == "blockspec" or key.startswith("blockspec."))
        ]
        for name, fn, work in list(self._targets()):
            traced = self._wrap(name, fn, work)
            for mod in namespaces:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s, wait_s, self_s, cpu_per_wall and work."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            busy = span.end - span.start
            row = out.setdefault(
                span.name,
                {"calls": 0, "busy_s": 0.0, "wait_s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "work": 0},
            )
            row["calls"] += 1
            row["busy_s"] += busy
            row["wait_s"] += busy - span.thread_cpu
            row["self_s"] += busy - _covered(span, children.get(id(span), []))
            row["cpu_s"] += span.proc_cpu
            row["work"] += span.work
        for row in out.values():
            row["cpu_per_wall"] = row["cpu_s"] / row["busy_s"] if row["busy_s"] > 0 else 0.0
        return out

    def metrics(self) -> dict[str, float]:
        """Flat ``<layer>.<function>.<stat>`` values; absent targets read 0."""
        stats = self.stats()
        out: dict[str, float] = {}
        for layer, functions in TARGETS.items():
            for fname, work in functions.items():
                name = f"{layer}.{fname}"
                row = stats.get(name, {})
                for stat in ("calls", "busy_s", "wait_s", "self_s", "cpu_per_wall"):
                    out[f"{name}.{stat}"] = row.get(stat, 0)
                if work is not None:
                    out[f"{name}.{work[0]}"] = row.get("work", 0)
        return out


def _covered(parent: Span, kids: list[Span]) -> float:
    """Length of the union of the children's intervals inside the parent's."""
    intervals = sorted(
        (max(k.start, parent.start), min(k.end, parent.end)) for k in kids
    )
    total, reach = 0.0, parent.start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total

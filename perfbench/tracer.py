"""Per-layer timing from outside the program.

A `Tracer` replaces chosen public functions of momentphase with timing
wrappers while it is installed, and puts the originals back when it is
removed.  Modules import one another's functions by name (`from .maxent
import density_on`), so a function is replaced in every momentphase module
namespace that holds it, not only where it is defined.  Nothing in the
program's files changes.

Each span is a wall-clock interval around one call.  Spans nest per thread;
a span's self time is its duration minus the spans it directly contains on
the same thread.  The ray sweep runs rays on worker threads, so ray-level
times summed over threads can exceed the sweep's wall time: that excess is
the overlap the thread pool buys.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

# span name -> (module, function names).  Sizes are counted by SIZES below.
SPANS = {
    "cli.main": ("momentphase.cli", ["main"]),
    "conditioning.parse": ("momentphase.conditioning", ["moments_from_json"]),
    "conditioning.condition": (
        "momentphase.conditioning",
        ["condition_line", "condition_circle", "condition_polydisk"],
    ),
    "conditioning.feasibility": ("momentphase.conditioning", ["hankel_feasibility"]),
    "series.accumulate_powers": ("momentphase.series", ["accumulate_powers"]),
    "maxent.solve": ("momentphase.maxent", ["solve_power_moments", "solve_trig_moments"]),
    "maxent.fime": ("momentphase.maxent", ["fime_solve"]),
    "maxent.quadrature": ("momentphase.maxent", ["build_quadrature", "circle_quadrature"]),
    "maxent.basis": ("momentphase.maxent", ["legendre_basis", "trig_basis"]),
    "maxent.density_on": ("momentphase.maxent", ["density_on"]),
    "transform.hilbert": ("momentphase.transform", ["hilbert_line", "hilbert_circle"]),
    "transform.invert": (
        "momentphase.transform",
        ["invert_line", "invert_circle", "cauchy_boundary_avg"],
    ),
    "transform.write_csv": ("momentphase.transform", ["write_csv"]),
    "raybeam.pushforward": ("momentphase.raybeam", ["pushforward_moments"]),
    "raybeam.ray": ("momentphase.raybeam", ["reconstruct_ray"]),
    "raybeam.sweep": ("momentphase.raybeam", ["ray_sweep"]),
}


def _fft_points(fn_name, args, kwargs, result):
    size = args[0].size
    if fn_name == "hilbert_line":  # zero-padded by pad_factor, default 4
        size *= kwargs.get("pad_factor", args[1] if len(args) > 1 else 4)
    return {"transform.fft_points": size}


def _solver(fn_name, args, kwargs, result):
    return {
        "maxent.iterations": result.iterations,
        "maxent.unconverged": int(not result.converged),
    }


def _fime(fn_name, args, kwargs, result):
    return {"maxent.fime_iterations": result.iterations}


def _csv_rows(fn_name, args, kwargs, result):
    return {"transform.csv_rows": args[0].size}


# span name -> function of (name, args, kwargs, result) giving extra counts
SIZES = {
    "transform.hilbert": _fft_points,
    "maxent.solve": _solver,
    "maxent.fime": _fime,
    "transform.write_csv": _csv_rows,
}


class Tracer:
    """Installs timing wrappers; accumulates seconds, self seconds and counts."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn_name: str, fn):
        sizes = SIZES.get(span)

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)  # time of direct children, filled in as they end
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.seconds[span] += elapsed
                    self.self_seconds[span] += elapsed - children
                    self.counts[span + ".calls"] += 1
            if sizes is not None:
                extra = sizes(fn_name, args, kwargs, result)
                with self._lock:
                    for key, value in extra.items():
                        self.counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("momentphase")]
        for span, (module_name, fn_names) in SPANS.items():
            home = sys.modules[module_name]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(span, fn_name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def layer_metrics(tracer: Tracer, jobs: int, report_bytes: int) -> dict[str, float]:
    """Per-job layer figures from a tracer's totals over `jobs` traced jobs."""
    s, c = tracer.seconds, tracer.counts
    per = 1.0 / jobs
    fime_iterations = c["maxent.fime_iterations"]
    return {
        "cli.self_s": tracer.self_seconds["cli.main"] * per,
        "cli.report_bytes": report_bytes * per,
        "conditioning.parse_s": s["conditioning.parse"] * per,
        "conditioning.condition_s": s["conditioning.condition"] * per,
        "conditioning.feasibility_s": s["conditioning.feasibility"] * per,
        "series.accumulate_powers_s": s["series.accumulate_powers"] * per,
        "series.accumulate_powers_calls": c["series.accumulate_powers.calls"] * per,
        "maxent.solve_s": s["maxent.solve"] * per,
        "maxent.solves": c["maxent.solve.calls"] * per,
        "maxent.iterations": c["maxent.iterations"] * per,
        "maxent.iteration_us": (
            1e6 * s["maxent.fime"] / fime_iterations if fime_iterations else 0.0
        ),
        "maxent.quadrature_s": s["maxent.quadrature"] * per,
        "maxent.basis_s": s["maxent.basis"] * per,
        "maxent.density_on_s": s["maxent.density_on"] * per,
        "maxent.unconverged": c["maxent.unconverged"] * per,
        "transform.hilbert_s": s["transform.hilbert"] * per,
        "transform.hilbert_calls": c["transform.hilbert.calls"] * per,
        "transform.fft_points": c["transform.fft_points"] * per,
        "transform.invert_s": s["transform.invert"] * per,
        "transform.write_csv_s": s["transform.write_csv"] * per,
        "transform.csv_rows": c["transform.csv_rows"] * per,
        "raybeam.pushforward_s": s["raybeam.pushforward"] * per,
        "raybeam.ray_s": s["raybeam.ray"] * per,
        "raybeam.rays": c["raybeam.ray.calls"] * per,
        "raybeam.sweep_s": s["raybeam.sweep"] * per,
    }

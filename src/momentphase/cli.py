"""Command-line driver: moments file in, densities and diagnostics out.

Exit codes are part of the contract so harnesses can assert on them, and
`main` decides each one: 0 success, 2 unreadable/invalid input or an output
path that cannot be written, 3 maximum-entropy non-convergence (the expected
outcome when raw singular-measure moments bypass conditioning; the report
names the solver's stop reason), 4 phase values out of range at inversion
time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .conditioning import (
    MultiMoments,
    PowerMoments,
    TrigMoments,
    condition_circle,
    condition_line,
    condition_polydisk,
    hankel_feasibility,
    moments_from_json,
    moments_to_json,
)
from .maxent import density_on, solve_power_moments, solve_trig_moments
from .raybeam import RayDirection, ray_sweep, support_cutoff
from .transform import (
    PLEMELJ_EXP_SIGN,
    GridFunction,
    PhaseRangeError,
    clip_phase,
    invert_circle,
    invert_line,
    write_csv,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOCONV = 3
EXIT_RANGE = 4

# Low moment orders overshoot a jumpy phase by tens of percent (the smooth
# exponential family rings around steps); that is approximation error and is
# projected back into range.  Overshoot beyond half the admissible range
# means the input moments were never a phase's, and a line or circle run
# stops instead; rays only report their overshoot.
CLAMP_MARGIN = 0.5

# What malformed outside input (settings, moments, directions) raises while it
# is parsed and checked; each ends the run with exit 2.
BAD_INPUT = (ValueError, TypeError, OverflowError, RecursionError)

# Cutoffs on the size of a run, checked before any work, so that a few bytes
# of settings cannot ask for unbounded time or memory (`moments_from_json`
# bounds the moments file).  Costs on a shared 2-core host: a Gauss-Legendre
# rule (a dense eigenproblem, run for the node count and for one more) takes
# 0.84 s at 2,048 nodes and 6.9 s at 4,096; a circle run of order 64 takes
# 1.7 s and 300 MB on 65,536 points, 7 s and 1.1 GB on 262,144.
MAX_GRID = 2**16
MAX_NODES = 2048

DEFAULTS = {
    "pipeline": "line",
    "grid": 1024,
    "tol": 1e-7,
    "max_sweeps": 500_000,
    "delta": 1.0,
    "nodes": 301,
    "span": 1.0,
    "skip_condition": False,
    "directions": None,
    "output": "out",
    "window": None,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="momentphase",
        description="Reconstruct a positive measure from truncated moments "
        "by phase conditioning, entropy optimization, and inversion.",
    )
    p.add_argument("moments", help="moments file (JSON)")
    p.add_argument(
        "--pipeline", choices=list(PIPELINES), help="which reconstruction pipeline to run"
    )
    p.add_argument("--grid", type=int, help="output grid size (power of two)")
    p.add_argument(
        "--tol",
        type=float,
        help="maxent residual tolerance, on the quadrature and on a rule with one more node",
    )
    p.add_argument("--max-sweeps", type=int, help="maxent Newton step budget")
    p.add_argument("--delta", type=float, help="preconditioning offset")
    p.add_argument("--nodes", type=int, help="quadrature node count")
    p.add_argument(
        "--skip-condition",
        action="store_true",
        help="feed raw moments to maxent (negative control)",
    )
    p.add_argument("--directions", help="JSON file with ray directions")
    p.add_argument("--config", help="JSON config file; overrides flags")
    p.add_argument("--output", "-o", help="output directory")
    p.set_defaults(**DEFAULTS)
    return p


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults < command-line flags < config file."""
    cfg = {key: getattr(args, key) for key in DEFAULTS}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("a config file holds one JSON object")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    _check_ranges(cfg)
    return cfg


def _check_ranges(cfg: dict) -> None:
    """Reject settings that no run could use, before any work."""
    if type(cfg["pipeline"]) is not str or cfg["pipeline"] not in PIPELINES:
        raise ValueError(f"pipeline must be one of {list(PIPELINES)}, got {cfg['pipeline']!r}")
    for key, allowed, what in (
        ("skip_condition", (bool,), "true or false"),
        ("directions", (str, type(None)), "null or a string"),
        ("output", (str,), "a string"),
    ):
        if type(cfg[key]) not in allowed:
            raise ValueError(f"{key} must be {what}, got {cfg[key]!r}")
    for key, low, high in (
        ("grid", 2, MAX_GRID),
        ("nodes", 2, MAX_NODES),
        ("max_sweeps", 1, math.inf),
    ):
        if type(cfg[key]) is not int or not low <= cfg[key] <= high:
            raise ValueError(f"{key} must be an integer in [{low}, {high}], got {cfg[key]!r}")
    if cfg["grid"] & (cfg["grid"] - 1):
        raise ValueError(f"grid must be a power of two, got {cfg['grid']}")
    for key in ("tol", "delta"):
        if not _is_finite_number(cfg[key]) or cfg[key] <= 0:
            raise ValueError(f"{key} must be finite and > 0, got {cfg[key]!r}")
    if not _is_finite_number(cfg["span"]) or cfg["span"] < 0:
        raise ValueError(f"span must be finite and >= 0, got {cfg['span']!r}")
    window = cfg["window"]
    if window is not None and not (
        isinstance(window, list)
        and len(window) == 2
        and all(map(_is_finite_number, window))
        and window[0] < window[1]
    ):
        raise ValueError(f"window must be null or [lo, hi] with finite lo < hi, got {window!r}")


def _is_finite_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def _sign_oracle_residual() -> float:
    """Self-check of the inversion sign on the half-height jump phase.

    The phase (1/2) on [0, 1] inverts in closed form to
    sqrt((1-x)/x) / pi; any sign error in the exponent flips the profile and
    misses by orders of magnitude.  Returns the max relative error over the
    interior of a coarse grid.
    """
    g = 256
    phi = GridFunction.on_interval(0.0, 1.0, np.full(g, 0.5))
    rho = invert_line(phi).values
    x = phi.grid
    exact = np.sqrt((1.0 - x) / x) / np.pi
    inner = (x > 0.05) & (x < 0.95)
    return float(np.max(np.abs(rho[inner] - exact[inner]) / exact[inner]))


def _provenance(digests: dict, cfg: dict) -> dict:
    """What a run was computed from: `digests` holds the SHA-256 of each
    input file's bytes, as read by the input stage."""
    # file-system locations do not influence the computation and are kept
    # out of the block so identical runs give byte-identical reports
    computational = {
        k: v for k, v in sorted(cfg.items()) if k not in ("output", "directions")
    }
    return {
        **digests,
        "config": computational,
        "plemelj_sign": PLEMELJ_EXP_SIGN,
        "sign_oracle_residual": _sign_oracle_residual(),
        "version": __version__,
    }


def _finite(value, key: str, non_finite: set):
    """`value` with NaN and infinities replaced by None, their dotted keys
    collected in `non_finite` (list positions count only for dicts)."""
    if isinstance(value, dict):
        return {k: _finite(v, f"{key}.{k}".lstrip("."), non_finite) for k, v in value.items()}
    if isinstance(value, list):
        return [
            _finite(v, f"{key}.{i}" if isinstance(v, dict) else key, non_finite)
            for i, v in enumerate(value)
        ]
    if isinstance(value, float) and not math.isfinite(value):
        non_finite.add(key)
        return None
    return value


def _out(outdir: Path, name: str) -> Path:
    """Where output `name` goes.  The directory is made with the first file,
    so a run that stops on bad input (exit 2) leaves none behind."""
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir / name


def _dump_json(path: Path, payload: dict) -> None:
    """Strict JSON: non-finite numbers become null, listed under "non_finite"."""
    non_finite: set = set()
    clean = _finite(payload, "", non_finite)
    if non_finite:
        clean["non_finite"] = sorted(non_finite)
    text = json.dumps(clean, sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _phase_interval(cfg, conditioned: PowerMoments, source: PowerMoments):
    if source.bounds is not None:
        # The phase of a measure on [a, b] lives on [a, b] unless an atom
        # sits at the right endpoint (which pushes it right by its mass);
        # callers with edge atoms should pass half_line or a wider window.
        return source.bounds
    # The window is symmetric about the phase's mean, clipped at 0: one
    # that always starts at 0 leaves a phase far from the origin with most
    # quadrature nodes where it vanishes, and the solve stalls there.
    c = conditioned.values
    hi = support_cutoff(c, span=cfg["span"])
    return max(0.0, 2 * float(c[1] / c[0]) - hi), hi


def _budget(cfg) -> dict:
    """The solver's stopping rule and preconditioning offset."""
    return {"tol": cfg["tol"], "max_sweeps": cfg["max_sweeps"], "delta": cfg["delta"]}


def _solve_line(cfg, target: PowerMoments, source: PowerMoments, report: dict):
    report["feasibility"] = hankel_feasibility(source).value
    lo, hi = _phase_interval(cfg, target, source)
    report["phase_interval"] = [lo, hi]
    sol = solve_power_moments(
        target.values, (lo, hi), node_count=cfg["nodes"], **_budget(cfg)
    )
    return sol, (lo, hi)


def _solve_circle(cfg, target: TrigMoments, source: TrigMoments, report: dict):
    nodes = max(cfg["grid"], 4 * target.order + 4)
    sol = solve_trig_moments(target.values, node_count=nodes, **_budget(cfg))
    return sol, (-np.pi, np.pi)


@dataclass(frozen=True)
class _Domain:
    """What the line and circle pipelines do differently."""

    condition: Callable
    solve: Callable  # (cfg, target, source, report) -> (solution, grid bounds)
    grid_kind: str
    phase_max: float
    invert: Callable  # (phase, source) -> density
    input_mass: Callable  # source -> total mass of the measure


# conditioning is looked up by name at each call, so a wrapper installed on
# the module (a tracer, a test double) sees it
LINE = _Domain(
    condition=lambda source: condition_line(source),
    solve=_solve_line,
    grid_kind="interval",
    phase_max=1.0,
    invert=lambda phi, source: invert_line(phi),
    input_mass=lambda source: float(source.values[0]),
)

CIRCLE = _Domain(
    condition=lambda source: condition_circle(source),
    solve=_solve_circle,
    grid_kind="circle",
    phase_max=np.pi,
    invert=lambda phi, source: invert_circle(phi, float(source.values[0].real)),
    input_mass=lambda source: 2 * np.pi * float(source.values[0].real),
)


def _run_phase(domain: _Domain, cfg, source, outdir: Path, report: dict) -> int:
    """Condition, solve, invert and write one line or circle reconstruction."""
    if cfg["skip_condition"]:
        # classical route: treat the measure moments as directly matchable
        target = source
        report["conditioned_moments"] = None
    else:
        target = domain.condition(source)
        report["conditioned_moments"] = moments_to_json(target)["values"]
    sol, (a, b) = domain.solve(cfg, target, source, report)
    report["solver"] = sol.report()
    if not sol.converged:
        print(f"maxent did not converge ({sol.stop_reason}); see report.json", file=sys.stderr)
        return EXIT_NOCONV

    grid = GridFunction(domain.grid_kind, a, b, np.zeros(cfg["grid"]))
    profile = density_on(sol, grid.grid)
    outputs = {"density_csv": "density.csv"}
    if cfg["skip_condition"]:
        density = grid.with_values(profile)
    else:
        clipped, worst = clip_phase(profile, domain.phase_max)
        if worst > CLAMP_MARGIN * domain.phase_max:
            raise PhaseRangeError(
                f"phase exceeds [0, {domain.phase_max:g}] by {worst:.3g}, beyond the clamp margin"
            )
        report["phase_clamp"] = {"max_violation": worst}
        phi = grid.with_values(clipped)
        density = domain.invert(phi, source)
        write_csv(phi, _out(outdir, "phase.csv"))
        outputs["phase_csv"] = "phase.csv"
    write_csv(density, _out(outdir, "density.csv"))
    report["outputs"] = outputs
    report["mass"] = {
        "input": domain.input_mass(source),
        "recovered": float(np.sum(density.values) * density.step),
    }
    return EXIT_OK


def _run_polydisk(cfg, a_mu: MultiMoments, outdir: Path, report: dict) -> int:
    phase = condition_polydisk(a_mu)
    entries = [
        [list(idx), float(v.real), float(v.imag)]
        for idx, v in zip(phase.indices, phase.values)
        if v != 0
    ]
    conditioned = {
        "schema": 1,
        "kind": "multi_phase",
        "dimension": phase.dimension,
        "order": phase.order,
        "total_mass": a_mu.total_mass,
        "entries": entries,
    }
    _dump_json(_out(outdir, "conditioned.json"), conditioned)
    report["outputs"] = {"conditioned_json": "conditioned.json"}
    report["note"] = (
        "polydisk pipeline emits conditioned torus phase moments; "
        "multivariate pointwise inversion is delegated to the raybeam pipeline"
    )
    return EXIT_OK


def _run_raybeam(
    cfg, gamma: MultiMoments, outdir: Path, report: dict, directions: list[RayDirection]
) -> int:
    slices = ray_sweep(
        gamma,
        directions,
        window=cfg["window"],
        grid_size=cfg["grid"],
        span=cfg["span"],
        node_count=cfg["nodes"],
        **_budget(cfg),
    )
    report["rays"] = []
    for i, s in enumerate(slices):
        outputs = {"phase_csv": f"phase_{i:03d}.csv", "slice_csv": f"slice_{i:03d}.csv"}
        write_csv(s.phase_grid, _out(outdir, outputs["phase_csv"]))
        write_csv(s.radon_values, _out(outdir, outputs["slice_csv"]))
        report["rays"].append({**s.summary(), "outputs": outputs})
    if not all(s.solution.converged for s in slices):
        print("one or more rays did not converge; see report.json", file=sys.stderr)
        return EXIT_NOCONV
    return EXIT_OK


def _directions(payload, gamma: MultiMoments) -> list[RayDirection]:
    """The rays of a directions file, each checked before any ray runs."""
    if not isinstance(payload, list) or not payload:
        raise ValueError("a directions file holds a non-empty JSON list of directions")
    directions = [RayDirection.of(y) for y in payload]
    for i, y in enumerate(directions):
        if y.dimension != gamma.dimension:
            raise ValueError(
                f"direction {i} has {y.dimension} components, the moments have "
                f"dimension {gamma.dimension}"
            )
    return directions


# pipeline name -> (moment container it reads, runner)
PIPELINES = {
    "line": (PowerMoments, partial(_run_phase, LINE)),
    "circle": (TrigMoments, partial(_run_phase, CIRCLE)),
    "polydisk": (MultiMoments, _run_polydisk),
    "raybeam": (MultiMoments, _run_raybeam),
}


def main(argv=None) -> int:
    """One run from flags to exit code: settings, input, run, one report."""
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (OSError, *BAD_INPUT) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_PARSE

    expected, run = PIPELINES[cfg["pipeline"]]
    try:
        data = Path(args.moments).read_bytes()
        moments = moments_from_json(json.loads(data.decode("utf-8")))
        if not isinstance(moments, expected):
            raise TypeError(
                f"{cfg['pipeline']} pipeline expects {expected.__name__}, "
                f"got {type(moments).__name__}"
            )
        digests = {"input_sha256": hashlib.sha256(data).hexdigest()}
        inputs = {}
        if cfg["pipeline"] == "raybeam":
            if cfg["directions"] is None:
                raise ValueError("raybeam pipeline needs --directions FILE")
            data = Path(cfg["directions"]).read_bytes()
            inputs["directions"] = _directions(json.loads(data.decode("utf-8")), moments)
            digests["directions_sha256"] = hashlib.sha256(data).hexdigest()
        report: dict = {"pipeline": cfg["pipeline"], "provenance": _provenance(digests, cfg)}
    except (OSError, KeyError, *BAD_INPUT) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE

    outdir = Path(cfg["output"])
    try:
        try:
            code = run(cfg, moments, outdir, report, **inputs)
        except PhaseRangeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            report["error"] = str(exc)
            code = EXIT_RANGE
        except BAD_INPUT as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        report["schema"] = 1
        _dump_json(_out(outdir, "report.json"), report)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return code


if __name__ == "__main__":
    sys.exit(main())

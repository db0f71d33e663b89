"""The four workloads: how each draws its jobs and how each job is checked.

A job is one call of the `momentphase` command.  Every workload draws a
pass of jobs from one random generator; the jobs of a pass cover fixed
strata of the parameter ranges, so every pass does about the same work
while no input repeats.  Checks compare a job's outputs with the
references in `references.py`, or with a relation the method must satisfy,
and return the list of problems found (empty when the job is right).
Each workload also names the corruptions its checks must reject.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import references as ref

EXIT_OK = 0
EXIT_NOCONV = 3


@dataclass
class Job:
    kind: str
    params: dict
    moments: dict  # the moments file
    args: list[str]  # command-line flags after the moments path
    expect: int  # expected exit code
    extra_files: dict = field(default_factory=dict)  # name -> JSON payload

    def write(self, jobdir: Path) -> list[str]:
        """Write the input files; return the full argument list for the CLI."""
        jobdir.mkdir(parents=True)
        (jobdir / "moments.json").write_text(json.dumps(self.moments), encoding="utf-8")
        for name, payload in self.extra_files.items():
            (jobdir / name).write_text(json.dumps(payload), encoding="utf-8")
        args = [a.replace("{dir}", str(jobdir)) for a in self.args]
        return [str(jobdir / "moments.json"), *args, "-o", str(jobdir / "out")]


# ---------------------------------------------------------------------------
# reading outputs
# ---------------------------------------------------------------------------


def read_grid(path: Path) -> tuple[str, float, float, np.ndarray, np.ndarray]:
    with open(path, encoding="ascii") as fh:
        kind, a, b, size = fh.readline().strip().split(",")
        fh.readline()
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape != (int(size), 2):
        raise ValueError(f"{path.name}: expected {size} rows, found {rows.shape[0]}")
    return kind, float(a), float(b), rows[:, 0], rows[:, 1]


def write_grid(path: Path, kind: str, a: float, b: float, x: np.ndarray, v: np.ndarray) -> None:
    lines = [f"{kind},{a!r},{b!r},{x.size}", "x,value"]
    lines += [f"{float(xi)!r},{float(vi)!r}" for xi, vi in zip(x, v)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def cell_centres(a: float, b: float, size: int) -> np.ndarray:
    return a + (np.arange(size) + 0.5) * (b - a) / size


def circle_points(size: int) -> np.ndarray:
    return -np.pi + 2 * np.pi * np.arange(size) / size


def legendre_density(alpha, lo: float, hi: float, x: np.ndarray) -> np.ndarray:
    """exp(sum_i alpha_i P_i(t) - 1), P_i Legendre on [lo, hi] mapped to [-1, 1]."""
    t = 2.0 * (x - lo) / (hi - lo) - 1.0
    return np.exp(np.polynomial.legendre.legval(t, np.asarray(alpha)) - 1.0)


def legendre_moments(alpha, lo: float, hi: float, order: int) -> np.ndarray:
    """Power moments of the Legendre-frame density by a 200-node Gauss rule."""
    t, w = np.polynomial.legendre.leggauss(200)
    x = 0.5 * (hi - lo) * (t + 1.0) + lo
    p = 0.5 * (hi - lo) * w * legendre_density(alpha, lo, hi, x)
    return np.array([np.sum(p * x**k) for k in range(order + 1)])


def trig_density(alpha, theta: np.ndarray) -> np.ndarray:
    m = (len(alpha) - 1) // 2
    s = np.full_like(theta, alpha[0] - 1.0)
    for k in range(1, m + 1):
        s += alpha[2 * k - 1] * np.cos(k * theta) + alpha[2 * k] * np.sin(k * theta)
    return np.exp(s)


def close(got, want) -> float:
    """Largest |got - want| / max(1, |want|)."""
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def expect_close(problems: list, what: str, got, want, tol: float) -> None:
    err = close(got, want)
    if not err <= tol:
        problems.append(f"{what}: error {err:.3g} > {tol:g}")


def expect_l1(problems: list, what: str, got, want, tol: float) -> None:
    """Relative L1 distance, for outputs the method only approximates."""
    err = float(np.sum(np.abs(np.asarray(got) - want)) / np.sum(np.abs(want)))
    if not err < tol:
        problems.append(f"{what}: relative L1 error {err:.3g} > {tol:g}")


def load_report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


# Tolerances, each well above the worst error seen over 40 passes of seeds
# (in brackets):
MOMENT_TOL = 1e-12  # conditioned or push-forward moments against a reference [8e-16]
SOLVED_TOL = 1e-6  # moments of the solved density against the reference phase's [1.2e-7]
SAMPLE_TOL = 1e-9  # a written grid against the same grid recomputed [4e-13]
BETA_L1_TOL = 1e-4  # beta-jump density against its closed form, interior L1 [7e-7]
CIRCLE_L1_TOL = 0.1  # circle density against the Poisson density, L1 [0.038]
SLICE_L1_TOL = 0.25  # Radon slice against brute-force hyperplane integrals [0.141]


# ---------------------------------------------------------------------------
# pipeline1d: conditioned line and circle jobs
# ---------------------------------------------------------------------------


class Pipeline1D:
    name = "pipeline1d"
    why = "conditioned line and circle jobs whose answers are known in closed form; the solver takes most of each job"

    def make_pass(self, rng: np.random.Generator) -> list[Job]:
        jobs = []
        for stratum in range(2):
            u = (stratum + rng.random(3)) / 2
            beta = 0.2 + 0.6 * u[0]
            jobs.append(
                Job(
                    "beta_jump",
                    {"beta": beta, "order": 8},
                    {"kind": "power", "support": [0.0, 1.0], "values": ref.beta_jump_moments(beta, 8)},
                    ["--pipeline", "line"],
                    EXIT_OK,
                )
            )
            x0, mass = 0.1 * u[1], 0.5 + 0.7 * rng.random()
            jobs.append(
                Job(
                    "point_mass",
                    {"x0": x0, "mass": mass, "order": 3},
                    {"kind": "power", "support": "half_line", "values": ref.point_mass_moments(x0, mass, 3)},
                    ["--pipeline", "line"],
                    EXIT_OK,
                )
            )
            atoms = [
                (0.5 + rng.random(), 0.3 + 0.4 * u[2], rng.uniform(-np.pi, np.pi))
                for _ in range(stratum + 1)
            ]
            tau = ref.poisson_trig_moments(atoms, 6)
            jobs.append(
                Job(
                    "circle",
                    {"atoms": atoms, "order": 6},
                    {"kind": "trig", "values": [[v.real, v.imag] for v in tau]},
                    ["--pipeline", "circle"],
                    EXIT_OK,
                )
            )
        return jobs

    def check(self, job: Job, out: Path) -> list[str]:
        problems: list[str] = []
        rep = load_report(out)
        if not rep["solver"]["converged"]:
            problems.append("solver did not converge")
        if job.kind == "circle":
            self._check_circle(job, out, rep, problems)
        else:
            self._check_line(job, out, rep, problems)
        return problems

    def _check_line(self, job: Job, out: Path, rep: dict, problems: list) -> None:
        p = job.params
        n = p["order"]
        if job.kind == "beta_jump":
            phase_moments = ref.beta_jump_phase_moments(p["beta"], n)
        else:
            phase_moments = ref.indicator_moments(p["x0"], p["x0"] + p["mass"], n)
            if rep["feasibility"] != "boundary":
                problems.append(f"point mass classified {rep['feasibility']}")
        expect_close(problems, "conditioned moments", rep["conditioned_moments"], phase_moments, MOMENT_TOL)
        lo, hi = rep["phase_interval"]
        alpha = rep["solver"]["alpha"]
        expect_close(problems, "solved phase moments", legendre_moments(alpha, lo, hi, n), phase_moments, SOLVED_TOL)
        _, _, _, x, phi = read_grid(out / "phase.csv")
        expect_close(problems, "phase grid", x, cell_centres(lo, hi, x.size), SAMPLE_TOL)
        expect_close(problems, "phase samples", phi, np.clip(legendre_density(alpha, lo, hi, x), 0, 1), SAMPLE_TOL)
        _, _, _, xr, rho = read_grid(out / "density.csv")
        expect_close(problems, "density from phase", rho, ref.line_density_from_phase(phi), SAMPLE_TOL)
        if job.kind == "beta_jump":
            exact = ref.beta_jump_density(p["beta"], xr)
            inner = (xr > 0.05) & (xr < 0.95)
            expect_l1(problems, "density against the closed form", rho[inner], exact[inner], BETA_L1_TOL)

    def _check_circle(self, job: Job, out: Path, rep: dict, problems: list) -> None:
        atoms, n = job.params["atoms"], job.params["order"]
        tau = ref.poisson_trig_moments(atoms, n)
        phase_tau = ref.circle_phase_moments(tau)
        got = np.array([complex(re, im) for re, im in rep["conditioned_moments"]])
        expect_close(problems, "conditioned moments", got, phase_tau, MOMENT_TOL)
        alpha = rep["solver"]["alpha"]
        theta = circle_points(4096)
        p = trig_density(alpha, theta)
        solved = np.array([np.mean(p * np.exp(-1j * k * theta)) for k in range(n + 1)])
        expect_close(problems, "solved phase moments", solved, phase_tau, SOLVED_TOL)
        _, _, _, x, phi = read_grid(out / "phase.csv")
        expect_close(problems, "phase grid", x, circle_points(x.size), SAMPLE_TOL)
        expect_close(problems, "phase samples", phi, np.clip(trig_density(alpha, x), 0, np.pi), SAMPLE_TOL)
        _, _, _, _, rho = read_grid(out / "density.csv")
        expect_close(problems, "density from phase", rho, ref.circle_density_from_phase(phi, tau[0].real), SAMPLE_TOL)
        exact = ref.poisson_density(atoms, x)
        expect_l1(problems, "density against the Poisson density", rho, exact, CIRCLE_L1_TOL)

    def corruptions(self, job: Job):
        if job.kind == "circle":
            return []
        return [("phase shifted by one cell", _shift_phase), ("inversion sign flipped", _flip_line_sign)]


def _shift_phase(out: Path) -> None:
    kind, a, b, x, phi = read_grid(out / "phase.csv")
    write_grid(out / "phase.csv", kind, a, b, x, np.roll(phi, 1))


def _flip_line_sign(out: Path) -> None:
    """exp(-pi H phi) sin(pi phi)/pi = sin^2(pi phi) / (pi^2 rho): the other sign."""
    _, _, _, _, phi = read_grid(out / "phase.csv")
    kind, a, b, x, rho = read_grid(out / "density.csv")
    s2 = np.sin(np.pi * np.clip(phi, 0, 1)) ** 2 / np.pi**2
    flipped = np.divide(s2, rho, out=np.zeros_like(rho), where=rho > 0)
    write_grid(out / "density.csv", kind, a, b, x, flipped)


# ---------------------------------------------------------------------------
# reject: raw point-mass moments, the negative control
# ---------------------------------------------------------------------------

REJECT_BUDGET = 20_000


class Reject:
    name = "reject"
    why = "raw point-mass moments with conditioning skipped: the solver must give up (exit 3) within its budget"

    def make_pass(self, rng: np.random.Generator) -> list[Job]:
        jobs = []
        for order in (3, 4, 5, 6):
            for stratum in range(2):
                x0 = 0.02 + 0.28 * (stratum + rng.random()) / 2
                mass = 0.5 + rng.random()
                jobs.append(
                    Job(
                        "raw_point_mass",
                        {"x0": x0, "mass": mass, "order": order},
                        {"kind": "power", "support": "half_line", "values": ref.point_mass_moments(x0, mass, order)},
                        ["--pipeline", "line", "--skip-condition", "--max-sweeps", str(REJECT_BUDGET)],
                        EXIT_NOCONV,
                    )
                )
        return jobs

    def check(self, job: Job, out: Path) -> list[str]:
        problems = []
        rep = load_report(out)
        solver = rep["solver"]
        if solver["converged"] is not False:
            problems.append("solver claims convergence on infeasible moments")
        if solver["iterations"] != REJECT_BUDGET:
            problems.append(f"stopped after {solver['iterations']} updates, budget {REJECT_BUDGET}")
        if rep["conditioned_moments"] is not None or (out / "density.csv").exists():
            problems.append("raw moments were conditioned or inverted")
        if rep["feasibility"] != "boundary":
            problems.append(f"point mass classified {rep['feasibility']}")
        # the input is on the boundary of the moment cone: its Hankel matrix
        # is positive semidefinite and singular
        g = np.asarray(job.moments["values"])
        half = (g.size + 1) // 2
        eig = np.linalg.eigvalsh(np.array([[g[i + j] for j in range(half)] for i in range(half)]))
        if not (abs(eig[0]) <= 1e-12 * eig[-1] and half >= 2):
            problems.append(f"input is not on the cone boundary: eigenvalues {eig}")
        return problems

    def corruptions(self, job: Job):
        return [("convergence claimed on infeasible moments", _claim_convergence)]


def _claim_convergence(out: Path) -> None:
    rep = load_report(out)
    rep["solver"]["converged"] = True
    (out / "report.json").write_text(json.dumps(rep), encoding="utf-8")


# ---------------------------------------------------------------------------
# raysweep: Radon slices of uniform boxes over a fan of directions
# ---------------------------------------------------------------------------

RAY_ORDER = 4  # order 6 took ~26k updates a ray, so a run held only ~10 calls
RAYS_PER_CALL = 3  # more than the two cores of the reference machine
RAY_CONFIG = {"window": [-32.0, 96.0], "span": 0.4}  # acceptance criterion 12's window
RAY_GRID = 16384
RAY_DELTA = 0.1
RAY_BUDGET = 400_000


class RaySweep:
    name = "raysweep"
    why = "raybeam calls over a fan of directions: push-forward, per-ray solves, padded Hilbert FFTs, per-ray CSVs, thread pool"

    def make_pass(self, rng: np.random.Generator) -> list[Job]:
        # Solver work per ray depends strongly on the box's shape seen along
        # the ray.  Each call takes a box from one family, from the unit
        # square of criterion 12 (s = 0) to a 0.85 x 0.75 box (s = 1), with s
        # stratified over the pass, and a fixed fan jittered by a few degrees:
        # inputs are fresh, call costs form a continuum, and every pass does
        # nearly the same work.
        jobs = []
        for stratum in range(2):
            s = (stratum + rng.random()) / 2
            box = (0.0, 1.0 - 0.15 * s, 0.0, 1.0 - 0.25 * s, 1.0 + 0.2 * s)
            angles = np.radians(32.5 + 12.5 * np.arange(RAYS_PER_CALL) + 5 * (rng.random(RAYS_PER_CALL) - 0.5))
            dirs = [[float(np.cos(t)), float(np.sin(t))] for t in angles]
            values = [[list(idx), v] for idx, v in ref.box_moments(box, RAY_ORDER).items()]
            jobs.append(
                Job(
                    "box_sweep",
                    {"box": box, "directions": dirs},
                    {"kind": "multi", "dimension": 2, "order": RAY_ORDER, "values": values},
                    [
                        "--pipeline", "raybeam",
                        "--directions", "{dir}/directions.json",
                        "--config", "{dir}/config.json",
                        "--grid", str(RAY_GRID),
                        "--delta", str(RAY_DELTA),
                        "--max-sweeps", str(RAY_BUDGET),
                    ],
                    EXIT_OK,
                    {"directions.json": dirs, "config.json": RAY_CONFIG},
                )
            )
        return jobs

    def check(self, job: Job, out: Path) -> list[str]:
        problems: list[str] = []
        rep = load_report(out)
        box = job.params["box"]
        rays = rep["rays"]
        if len(rays) != len(job.params["directions"]):
            return [f"{len(rays)} rays reported for {len(job.params['directions'])} directions"]
        for i, (ray, y) in enumerate(zip(rays, job.params["directions"])):
            tag = f"ray {i}"
            if not ray["solver"]["converged"]:
                problems.append(f"{tag}: solver did not converge")
            m = ref.box_pushforward_moments(box, y, RAY_ORDER)
            c = ref.line_phase_moments(m)
            expect_close(problems, f"{tag} push-forward moments", ray["pushforward_moments"], m, MOMENT_TOL)
            expect_close(problems, f"{tag} phase moments", ray["phase_moments"], c, MOMENT_TOL)
            cutoff, alpha = ray["cutoff"], ray["solver"]["alpha"]
            expect_close(problems, f"{tag} solved phase moments", legendre_moments(alpha, 0.0, cutoff, RAY_ORDER), c, SOLVED_TOL)
            _, a, b, x, xi = read_grid(out / f"phase_{i:03d}.csv")
            expect_close(problems, f"{tag} phase grid", x, cell_centres(a, b, x.size), SAMPLE_TOL)
            inside = (x >= 0) & (x <= cutoff)
            want = np.where(inside, np.clip(legendre_density(alpha, 0.0, cutoff, x), 0, 1), 0.0)
            expect_close(problems, f"{tag} phase samples", xi, want, SAMPLE_TOL)
            _, _, _, xs, r = read_grid(out / f"slice_{i:03d}.csv")
            expect_close(problems, f"{tag} slice from phase", r, ref.slice_from_phase(xi), SAMPLE_TOL)
            top = y[0] * box[1] + y[1] * box[3]
            inner = (xs > 0.05 * top) & (xs < 0.95 * top)
            exact = ref.box_slice(box, y, xs[inner])
            expect_l1(problems, f"{tag} slice against brute-force integrals", r[inner], exact, SLICE_L1_TOL)
        return problems

    def corruptions(self, job: Job):
        return [("Radon slice scaled by 1.05", _scale_slice)]


def _scale_slice(out: Path) -> None:
    kind, a, b, x, r = read_grid(out / "slice_000.csv")
    write_grid(out / "slice_000.csv", kind, a, b, x, 1.05 * r)


# ---------------------------------------------------------------------------
# polydisk: conditioned torus phase moments of atoms in the l1 ball
# ---------------------------------------------------------------------------

# Job cost is set by the shape alone, so costs come in classes: dimension,
# order, and whether every atom lies on the plane z_d = 0, which zeroes each
# coefficient with alpha_d > 0 and so shrinks the report.  The shared 2-vCPU
# machine of README.md switches between speeds about 1.3 times apart, so a
# median inside one class jumps between its fast and its slow time.  Nine
# shapes, two jobs each, make a ladder of costs 1.06-1.2 times apart around
# the median job (5.9-12 ms there, then 20-35 ms for the full d = 3 shapes),
# along which the median moves smoothly.
POLY_SHAPES = [
    (2, 10, False), (2, 11, False), (2, 12, False),
    (3, 10, True), (3, 11, True), (3, 12, True),
    (3, 10, False), (3, 11, False), (3, 12, False),
]


class Polydisk:
    name = "polydisk"
    why = "multivariate conditioning only (series products, JSON report); no solver runs, so solver changes must not move it"

    def make_pass(self, rng: np.random.Generator) -> list[Job]:
        jobs = []
        for d, n, flat in POLY_SHAPES:
            for count in (1, 2 + int(rng.integers(2))):
                atoms = []
                for _ in range(count):
                    e = rng.random(d) * rng.choice([-1.0, 1.0], d)
                    if flat:
                        e[-1] = 0.0
                    radius = 0.2 + 0.7 * rng.random()
                    atoms.append((0.5 + rng.random(), radius * e / np.abs(e).sum()))
                dense = ref.atom_moments(atoms, d, n)
                degree = ref.total_degree(d, n)
                values = [
                    [[int(i) for i in idx], float(dense[tuple(idx)])]
                    for idx in np.argwhere(degree <= n)
                ]
                jobs.append(
                    Job(
                        "polydisk_atom" if count == 1 else "polydisk_mixture",
                        {"atoms": atoms, "dimension": d, "order": n},
                        {"kind": "multi", "dimension": d, "order": n, "values": values},
                        ["--pipeline", "polydisk"],
                        EXIT_OK,
                    )
                )
        return jobs

    def check(self, job: Job, out: Path) -> list[str]:
        problems: list[str] = []
        atoms, d, n = job.params["atoms"], job.params["dimension"], job.params["order"]
        if job.kind == "polydisk_atom":
            want = ref.polydisk_atom_phase(atoms[0][1], n)
        else:
            want = ref.polydisk_phase(ref.atom_moments(atoms, d, n), n)
        got = np.zeros_like(want)
        payload = json.loads((out / "conditioned.json").read_text(encoding="utf-8"))
        for idx, re, im in payload["entries"]:
            got[tuple(idx)] = complex(re, im)
        if (payload["dimension"], payload["order"]) != (d, n):
            problems.append("dimension or order changed")
        expect_close(problems, "total mass", payload["total_mass"], sum(w for w, _ in atoms), MOMENT_TOL)
        expect_close(problems, "phase moments", got, want, MOMENT_TOL)
        rep = load_report(out)
        prov = rep["provenance"]
        digest = hashlib.sha256((out.parent / "moments.json").read_bytes()).hexdigest()
        if prov["input_sha256"] != digest:
            problems.append("input hash does not match the moments file")
        if not prov["sign_oracle_residual"] < 1e-6:
            problems.append(f"inversion sign self-check residual {prov['sign_oracle_residual']:.3g}")
        return problems

    def corruptions(self, job: Job):
        return [("one coefficient perturbed", _perturb_coefficient)]


def _perturb_coefficient(out: Path) -> None:
    payload = json.loads((out / "conditioned.json").read_text(encoding="utf-8"))
    payload["entries"][len(payload["entries"]) // 2][1] += 1e-6
    (out / "conditioned.json").write_text(json.dumps(payload), encoding="utf-8")


WORKLOADS = {w.name: w for w in (Pipeline1D(), Reject(), RaySweep(), Polydisk())}


def check_job(workload, job: Job, out: Path) -> list[str]:
    """The workload's check; outputs too malformed to read are a problem too."""
    try:
        return workload.check(job, out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def corrupted_copy(out: Path, corrupt) -> Path:
    """Copy a job's directory and corrupt the outputs of the copy."""
    copy = out.parent.with_name(out.parent.name + "-corrupt")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(out.parent, copy)
    corrupt(copy / "out")
    return copy / "out"

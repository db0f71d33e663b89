"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Each criterion is evaluated at its stated tolerance; the helper prints the
verdict line before asserting so the record survives a failure.
"""

import json
import time

import numpy as np

from momentphase.conditioning import (
    MultiMoments,
    PowerMoments,
    TrigMoments,
    condition_circle,
    condition_line,
    condition_polydisk,
    extend_exp_weight,
)
from momentphase.maxent import (
    constraint_residual,
    monomial_basis,
    primal_eval,
    solve_power_moments,
)
from momentphase.raybeam import (
    RayDirection,
    pushforward_moments,
    ray_phase_moments,
    reconstruct_ray,
    support_cutoff,
)
from momentphase.series import FormalSeries, series_exp, series_pow
from momentphase.transform import (
    GridFunction,
    hilbert_circle,
    hilbert_line,
    invert_circle,
)


def conclude(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d}: {verdict} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_dirac_line_conditioning():
    t0 = time.perf_counter()
    c, n = 2.0, 24
    gamma = PowerMoments(np.array([c] + [0.0] * n))
    phi = condition_line(gamma)
    expected = np.array([c ** (k + 1) / (k + 1) for k in range(n + 1)])
    rel = float(np.max(np.abs(phi.values / expected - 1.0)))
    elapsed = time.perf_counter() - t0
    conclude(1, rel <= 1e-12 and elapsed < 1.0, f"rel={rel:.2e} time={elapsed:.3f}s")


def test_criterion_02_dirac_circle_conditioning():
    theta0, m = 0.7, 16
    tau = np.array(
        [np.exp(-1j * k * theta0) / (2 * np.pi) for k in range(m + 1)]
    )
    phi = condition_circle(TrigMoments(tau))
    k = np.arange(1, m + 1)
    expected = np.exp(-1j * k * theta0) / (2j * k)
    err = float(np.max(np.abs(phi.values[1:] - expected)))
    exact0 = phi.values[0] == np.pi / 2
    conclude(2, err <= 1e-12 and exact0, f"err={err:.2e} tau_phi(0)==pi/2: {exact0}")


def test_criterion_03_polydisk_round_trip():
    c, a, n = 2.0, 0.5, 16
    gamma = MultiMoments.from_dict(1, n, {(k,): c * a**k for k in range(n + 1)})
    phi = condition_polydisk(gamma)
    s = FormalSeries.zeros(1, n)
    s.coeff[1:] = 2j * phi.values[1:]
    back = series_exp(s).scale(gamma.total_mass)
    expected = np.array([c * a**k for k in range(n + 1)])
    err = float(np.max(np.abs(back.coeff - expected)))
    conclude(3, err <= 1e-12 * c, f"coefficient err={err:.2e}")


def naive_pow(entries: dict, k: int, dimension: int, order: int) -> dict:
    out = {(0,) * dimension: 1.0 + 0j}
    for _ in range(k):
        nxt: dict = {}
        for ia, ca in out.items():
            for ib, cb in entries.items():
                ic = tuple(x + y for x, y in zip(ia, ib))
                if sum(ic) <= order:
                    nxt[ic] = nxt.get(ic, 0.0) + ca * cb
        out = nxt
    return out


def test_criterion_04_power_recursion_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        order = int(rng.integers(0, 7))
        k = int(rng.integers(0, 6))
        s = FormalSeries.zeros(d, order)
        s.coeff[:] = rng.uniform(-1, 1, s.coeff.size)
        s.coeff[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
        got = series_pow(s, k)
        want = naive_pow(
            {idx: v for idx, v in zip(s.indices, s.coeff) if v != 0}, k, d, order
        )
        scale = max(1.0, max((abs(v) for v in want.values()), default=1.0))
        for pos, idx in enumerate(got.indices):
            err = abs(got.coeff[pos] - want.get(idx, 0.0)) / scale
            worst = max(worst, err)
    conclude(4, worst <= 1e-12, f"worst rel err over 200 draws={worst:.2e}")


def test_criterion_05_fime_uniform():
    t0 = time.perf_counter()
    mu = np.array([1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5])
    sol = solve_power_moments(
        mu, (0.0, 1.0), node_count=201, tol=1e-12, max_sweeps=100_000, delta=1.0
    )
    elapsed = time.perf_counter() - t0
    mono = monomial_basis(sol.basis.quadrature, 4)
    from momentphase.maxent import monomial_dual

    _, res_mono = constraint_residual(monomial_dual(sol), mono, mu)
    _, p, _ = primal_eval(sol.alpha, sol.basis)
    sup = float(np.max(np.abs(p - 1.0)))
    ok = (
        sol.converged
        and sol.iterations <= 100_000
        and res_mono < 1e-8
        and sup < 1e-6
        and elapsed < 10.0
    )
    conclude(
        5,
        ok,
        f"iters={sol.iterations} residual={res_mono:.2e} sup|p-1|={sup:.2e} "
        f"time={elapsed:.2f}s",
    )


def test_criterion_06_negative_control():
    raw = np.array([1.0, 0.0, 0.0, 0.0])
    direct = solve_power_moments(
        raw, (0.0, 1.0), node_count=201, tol=1e-8, max_sweeps=100_000, delta=1.0
    )
    conditioned = condition_line(PowerMoments(raw))
    cutoff = support_cutoff(conditioned.values, span=1.0)
    regular = solve_power_moments(
        conditioned.values,
        (0.0, cutoff),
        node_count=301,
        tol=1e-8,
        max_sweeps=100_000,
        delta=1.0,
    )
    ok = (not direct.converged) and regular.converged
    conclude(
        6,
        ok,
        f"raw converged={direct.converged} (residual {direct.residual_norm:.2e}), "
        f"conditioned converged={regular.converged} in {regular.iterations} updates",
    )


def test_criterion_07_exponential_weight_recurrence():
    import math

    seed = PowerMoments(np.array([1.0]))
    out = extend_exp_weight([0.0, -1.0], seed, 12)
    expected = np.array([float(math.factorial(k)) for k in range(13)])
    rel = float(np.max(np.abs(out.values / expected - 1.0)))
    conclude(7, rel <= 1e-9, f"rel err={rel:.2e}")


def test_criterion_08_hilbert_operators():
    # (a) line transform of an indicator against the closed-form log
    g, c = 1024, 0.5
    gf = GridFunction.on_interval(0.0, 1.0, np.zeros(g))
    x, h = gf.grid, gf.step
    out = hilbert_line(gf.with_values((x < c).astype(float)))
    exact = np.log(np.abs((c - x) / x)) / np.pi
    off = (np.abs(x) > 3 * h) & (np.abs(x - c) > 3 * h)
    step_err = float(np.max(np.abs(out.values - exact)[off]))

    # (b) circle multiplier against dense principal-value quadrature
    cg = GridFunction.on_circle(np.zeros(256))
    theta = cg.grid

    def f_band(s):
        return np.cos(s) - 0.5 * np.sin(2 * s) + 0.25 * np.cos(3 * s)

    got = hilbert_circle(cg.with_values(f_band(theta)))
    m_pts = 100_000
    offs = (np.arange(m_pts) + 0.5) * (2 * np.pi / m_pts)
    oracle = np.array(
        [np.sum(f_band(th + offs) / np.tan(offs / 2.0)) / m_pts for th in theta]
    )
    circle_err = float(np.max(np.abs(got.values - oracle)))

    # (c) double transform negates mean-zero band-limited data
    rng = np.random.default_rng(8)
    fb = np.zeros_like(theta)
    for k in range(1, 12):
        fb += rng.uniform(-1, 1) * np.cos(k * theta) + rng.uniform(-1, 1) * np.sin(
            k * theta
        )
    twice_c = hilbert_circle(hilbert_circle(cg.with_values(fb)))
    inv_circle = float(np.max(np.abs(twice_c.values + fb)))

    u = (x - 0.5) / 0.01
    bump = (3.0 - 6.0 * u**2 + u**4) * np.exp(-(u**2) / 2)
    bump /= np.max(np.abs(bump))
    twice_l = hilbert_line(
        hilbert_line(gf.with_values(bump), kernel="spectral"), kernel="spectral"
    )
    inv_line = float(np.max(np.abs(twice_l.values + bump)))

    ok = step_err <= 1e-4 and circle_err <= 1e-6 and inv_circle <= 1e-6 and inv_line <= 1e-6
    conclude(
        8,
        ok,
        f"step={step_err:.2e} circle-oracle={circle_err:.2e} "
        f"HH-circle={inv_circle:.2e} HH-line={inv_line:.2e}",
    )


def test_criterion_09_beta_jump_end_to_end(tmp_path):
    from momentphase.cli import EXIT_OK, main
    from momentphase.transform import read_csv

    t0 = time.perf_counter()
    beta, order = 0.5, 12
    a_phi = np.array([beta / (k + 1) for k in range(order + 1)])
    s = FormalSeries.zeros(1, order + 1)
    s.coeff[1:] = -a_phi
    a_mu = (-series_exp(s).coeff[1:].real).tolist()
    src = tmp_path / "betajump.json"
    src.write_text(
        json.dumps({"kind": "power", "support": [0.0, 1.0], "values": a_mu})
    )
    out = tmp_path / "out"
    code = main(
        [
            str(src),
            "--pipeline", "line",
            "--grid", "1024",
            "--tol", "1e-8",
            "--max-sweeps", "400000",
            "--delta", "0.1",
            "-o", str(out),
        ]
    )
    rho = read_csv(out / "density.csv")
    x = rho.grid
    exact = np.sqrt((1 - x) / x) * np.sin(np.pi * beta) / np.pi
    inner = (x > 0.05) & (x < 0.95)
    l1 = float(np.sum(np.abs(rho.values - exact)[inner]) / np.sum(exact[inner]))
    elapsed = time.perf_counter() - t0
    ok = code == EXIT_OK and l1 < 0.05 and elapsed < 60.0
    conclude(9, ok, f"exit={code} L1={l1:.4f} time={elapsed:.1f}s")


def test_criterion_10_circle_inversion_sanity():
    tau0 = 0.3
    gf = GridFunction.on_circle(np.full(1024, np.pi / 2))
    rho = invert_circle(gf, tau0)
    err = float(np.max(np.abs(rho.values - tau0)))
    # the doubled bare product (no interior-limit offset) misses by tau0
    h = hilbert_circle(gf)
    bare = 2 * tau0 * np.exp(h.values) * np.sin(gf.values)
    bare_value = float(bare[0])
    ok = err < 1e-14 and abs(bare_value - 2 * tau0) < 1e-12
    conclude(
        10,
        ok,
        f"corrected err={err:.2e}; uncorrected value={bare_value:.3f} "
        f"(should-be {tau0}, off by tau0)",
    )


def test_criterion_11_verblunsky_identity():
    rng = np.random.default_rng(77)
    points = rng.uniform(0.1, 2.0, (6, 3))
    weights = rng.uniform(0.2, 1.0, 6)
    mass = float(np.sum(weights))
    from momentphase.series import graded_indices

    entries = {
        alpha: float(np.sum(weights * np.prod(points ** np.asarray(alpha), axis=1)))
        for alpha in graded_indices(3, 6)
    }
    gamma = MultiMoments.from_dict(3, 6, entries)
    worst = 0.0
    for _ in range(100):
        y = RayDirection.of(rng.uniform(0.05, 3.0, 3))
        c = ray_phase_moments(pushforward_moments(gamma, y))
        worst = max(worst, abs(c[0] - mass) / mass)
    conclude(11, worst <= 1e-12, f"worst rel err over 100 directions={worst:.2e}")


def test_criterion_12_radon_slice_uniform_square():
    t0 = time.perf_counter()
    n = 10
    entries = {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            entries[(i, j)] = 1.0 / ((i + 1) * (j + 1))
    gamma = MultiMoments.from_dict(2, n, entries)
    rs = reconstruct_ray(
        gamma,
        RayDirection.of([1.0, 1.0]),
        window=(-32.0, 96.0),
        grid_size=16384,
        node_count=301,
        span=0.4,
        tol=1e-7,
        max_sweeps=1_500_000,
        delta=0.1,
    )
    x = rs.radon_values.grid
    # brute-force hyperplane integral of the unit-square density along
    # x1 + x2 = s, by dense quadrature in x1
    tt = np.linspace(0.0, 1.0, 20001)
    oracle = np.array(
        [np.trapezoid(((s - tt >= 0) & (s - tt <= 1)).astype(float), tt) for s in x]
    )
    mask = (x > 0.1) & (x < 1.9)
    linf = float(np.max(np.abs(rs.radon_values.values - oracle)[mask]))
    elapsed = time.perf_counter() - t0
    ok = linf < 0.05 and elapsed < 30.0
    conclude(12, ok, f"Linf={linf:.4f} time={elapsed:.1f}s")

"""Entropy-optimization solver: quadrature, preconditioning, dual ascent."""

import math

import numpy as np
import pytest

from momentphase import maxent
from momentphase.maxent import (
    build_quadrature,
    circle_quadrature,
    constraint_residual,
    density_on,
    fime_solve,
    legendre_basis,
    monomial_basis,
    monomial_dual,
    precondition,
    primal_eval,
    solve_power_moments,
    solve_trig_moments,
    trig_basis,
)
from momentphase.raybeam import support_cutoff

UNIFORM_MU = np.array([1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5])


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_gauss_integrates_linear_exactly():
    q = build_quadrature(0.0, 1.0, 2)
    assert np.sum(q.weights * q.nodes) == pytest.approx(0.5, abs=1e-12)


def test_gauss_integrates_quartic():
    q = build_quadrature(0.0, 1.0, 8)
    assert np.sum(q.weights * q.nodes**4) == pytest.approx(0.2, abs=1e-10)


def test_quadrature_weight_sum_is_length():
    q = build_quadrature(-1.0, 3.0, 33)
    assert np.sum(q.weights) == pytest.approx(4.0, abs=1e-10)


def test_quadrature_rejects_tiny_count():
    with pytest.raises(ValueError):
        build_quadrature(0.0, 1.0, 1)


# ---------------------------------------------------------------------------
# preconditioning
# ---------------------------------------------------------------------------


def test_precondition_printed_single_row():
    a = np.array([[-1.0, 1.0]])
    mu = np.array([1.0])
    a_p, mu_p, meta = precondition(a, mu, delta=1.0)
    assert meta.offsets[0] == 2.0
    assert meta.scales[0] == 3.0
    assert meta.factors[0] == pytest.approx(0.25)
    assert np.allclose(a_p, [[0.25, 0.75]])
    assert mu_p[0] == pytest.approx(0.25 * 3.0)


def test_precondition_maps_into_unit_interval():
    rng = np.random.default_rng(2)
    a = rng.uniform(-5, 5, size=(6, 40))
    mu = rng.uniform(-1, 1, size=6)
    mu[0] = 1.0
    a[0] = 1.0
    a_p, mu_p, _ = precondition(a, mu, delta=0.5)
    assert a_p.min() > 0.0 and a_p.max() < 1.0
    assert mu_p.min() > 0.0


def test_precondition_rejects_zero_row():
    a = np.zeros((2, 5))
    a[0] = 1.0
    with pytest.raises(ValueError):
        precondition(a, np.array([1.0, 0.0]))


def test_preconditioned_problem_same_solution():
    # a density whose conditioned moments match mu' also matches mu:
    # build p from a dual, compute both residuals
    q = build_quadrature(0.0, 1.0, 64)
    basis = monomial_basis(q, 2)
    mu = np.array([1.0, 0.5, 1 / 3])
    sol = fime_solve(basis, mu, tol=1e-11, max_sweeps=100_000, delta=0.5)
    assert sol.converged
    a_p, mu_p, _ = precondition(basis.values, mu, delta=0.5)
    ptilde, _, _ = primal_eval(sol.alpha, basis)
    assert np.linalg.norm(a_p @ ptilde - mu_p) < 1e-10


# ---------------------------------------------------------------------------
# primal evaluation
# ---------------------------------------------------------------------------


def test_primal_constant_alpha_one():
    q = build_quadrature(0.0, 1.0, 16)
    basis = monomial_basis(q, 3)
    ptilde, p, clipped = primal_eval(np.array([1.0, 0.0, 0.0, 0.0]), basis)
    assert np.allclose(p, 1.0)
    assert np.allclose(ptilde, q.weights)
    assert not clipped


def test_primal_zero_alpha():
    q = build_quadrature(0.0, 1.0, 16)
    basis = monomial_basis(q, 2)
    _, p, _ = primal_eval(np.zeros(3), basis)
    assert np.allclose(p, np.exp(-1.0))


def test_primal_moments_match_direct_quadrature():
    q = build_quadrature(0.0, 2.0, 48)
    basis = monomial_basis(q, 3)
    alpha = np.array([0.3, -0.8, 0.1, -0.05])
    ptilde, _, _ = primal_eval(alpha, basis)
    moments = basis.values @ ptilde
    for i in range(4):
        direct = np.sum(
            q.weights
            * q.nodes**i
            * np.exp(alpha @ np.vstack([q.nodes**j for j in range(4)]) - 1.0)
        )
        assert moments[i] == pytest.approx(direct, rel=1e-12)


def test_primal_clamps_overflow():
    q = build_quadrature(0.0, 1.0, 8)
    basis = monomial_basis(q, 1)
    _, p, clipped = primal_eval(np.array([800.0, 0.0]), basis)
    assert clipped
    assert np.all(np.isfinite(p))


# ---------------------------------------------------------------------------
# fime_solve
# ---------------------------------------------------------------------------


def test_uniform_problem_recovers_flat_density():
    sol = solve_power_moments(
        UNIFORM_MU, (0.0, 1.0), node_count=201, tol=1e-12, max_sweeps=100_000
    )
    assert sol.converged
    assert sol.residual_norm < 1e-8
    _, p, _ = primal_eval(sol.alpha, sol.basis)
    assert np.max(np.abs(p - 1.0)) < 1e-6


def test_mass_only_constraint_gives_uniform():
    q = build_quadrature(0.0, 1.0, 64)
    basis = monomial_basis(q, 0)
    sol = fime_solve(basis, np.array([1.0]), tol=1e-12, max_sweeps=10_000)
    assert sol.converged
    _, p, _ = primal_eval(sol.alpha, basis)
    assert np.max(np.abs(p - 1.0)) < 1e-10


def test_runaway_dual_is_clamped_and_reported():
    # unit mass on an interval of length 1e-305 needs a density near 1e305,
    # past exp(EXP_CLAMP): the exponent is clamped, the solver warns once
    # and stalls, and the sampled density stays finite at exp(700)
    basis = monomial_basis(build_quadrature(0.0, 1e-305, 2), 0)
    with pytest.warns(RuntimeWarning, match="primal exponent clamped") as record:
        sol = fime_solve(basis, np.array([1.0]), max_sweeps=50)
    clamp_warnings = [w for w in record if "primal exponent clamped" in str(w.message)]
    assert len(clamp_warnings) == 1
    assert sol.clipped
    assert not sol.converged
    value = density_on(sol, np.array([0.0]))
    assert np.all(np.isfinite(value))
    assert value[0] == pytest.approx(math.exp(700.0), rel=1e-12)


def test_reported_residual_is_that_of_returned_dual():
    basis = legendre_basis(build_quadrature(0.0, 1.0, 101), 4)
    mu = basis.coeff_rows @ UNIFORM_MU
    for budget in (7, 5_000):
        sol = fime_solve(basis, mu, tol=1e-12, max_sweeps=budget)
        assert sol.residual_norm == constraint_residual(sol.alpha, basis, mu)[1]


def test_fime_rejects_empty_budget():
    basis = monomial_basis(build_quadrature(0.0, 1.0, 8), 1)
    with pytest.raises(ValueError, match="max_sweeps"):
        fime_solve(basis, np.array([1.0, 0.5]), max_sweeps=0)


def test_dirac_moments_do_not_converge():
    sol = solve_power_moments(
        np.array([1.0, 0.0, 0.0, 0.0]),
        (0.0, 1.0),
        node_count=201,
        tol=1e-8,
        max_sweeps=30_000,
    )
    assert not sol.converged
    assert sol.iterations == 30_000
    assert sol.residual_norm > 1e-4


@pytest.mark.parametrize("node_count", [101, 201, 301, 1001])
def test_dirac_moments_do_not_converge_at_any_node_count(node_count):
    sol = solve_power_moments(
        np.array([1.0, 0.0, 0.0, 0.0]),
        (0.0, 1.0),
        node_count=node_count,
        tol=1e-8,
        max_sweeps=2_000,
    )
    assert not sol.converged
    assert sol.iterations == 2_000


def test_point_mass_on_a_node_is_refused_by_the_check_rule(monkeypatch):
    # raw moments of a point mass at the centre of a window symmetric about
    # it: on an odd Gauss rule the centre is a node, so a spike there
    # matches the moments on the solver's own rule.  Only the rule with one
    # more node tells the spike from a density.
    x0, mass, tol = 0.2703, 0.5003, 1e-7
    mu = mass * x0 ** np.arange(5)
    hi = support_cutoff(mu, span=1.0)
    lo = 2 * x0 - hi
    main_rule = []

    def recorded(alpha, basis, target):
        h, norm = constraint_residual(alpha, basis, target)
        main_rule.append(norm)
        return h, norm

    monkeypatch.setattr(maxent, "constraint_residual", recorded)
    sol = solve_power_moments(mu, (lo, hi), node_count=301, tol=tol, max_sweeps=100_000)
    assert not sol.converged
    assert sol.iterations == 100_000
    assert min(main_rule) < tol


def test_singular_hessian_hands_the_budget_to_coordinate_ascent():
    # two identical rows make the Newton system exactly singular; that ends
    # the Newton phase instead of escaping as LinAlgError (a ValueError)
    q = build_quadrature(0.0, 1.0, 64)
    basis = monomial_basis(q, 2)
    basis.values = basis.values[[0, 1, 1]]
    sol = fime_solve(basis, np.array([1.0, 0.5, 0.5]), tol=1e-10, max_sweeps=2_000)
    assert sol.iterations == 2_000
    assert np.isfinite(sol.residual_norm)


def test_solution_scales_with_mass():
    # doubling the moments doubles the density; handled by the mass
    # normalization inside the solver
    mu = 2.0 * UNIFORM_MU
    sol = solve_power_moments(mu, (0.0, 1.0), node_count=101, tol=1e-11)
    assert sol.converged
    _, p, _ = primal_eval(sol.alpha, sol.basis)
    assert np.max(np.abs(p - 2.0)) < 1e-5


def test_residual_at_constructed_fixed_point():
    q = build_quadrature(0.0, 1.0, 32)
    basis = monomial_basis(q, 2)
    alpha = np.array([0.2, -0.4, 0.6])
    ptilde, _, _ = primal_eval(alpha, basis)
    mu = basis.values @ ptilde
    h, norm = constraint_residual(alpha, basis, mu)
    assert np.allclose(h, 0.0)
    assert norm == 0.0


def test_residual_nonincreasing_on_uniform_sweeps():
    # empirical contraction along the first hundred sweeps
    q = build_quadrature(0.0, 1.0, 201)
    basis = legendre_basis(q, 4)
    mu = basis.coeff_rows @ UNIFORM_MU
    a_p, mu_p, meta = precondition(basis.values, mu, delta=1.0)
    alpha = np.zeros(5)
    s = a_p.T @ alpha
    norms = []
    for _ in range(100):
        for i in range(5):
            ptilde = q.weights * np.exp(s - 1.0)
            lam = math.log(mu_p[i] / (a_p[i] @ ptilde))
            alpha[i] += lam
            s += lam * a_p[i]
        ptilde = q.weights * np.exp(s - 1.0)
        norms.append(np.linalg.norm(basis.values @ ptilde - mu))
    norms = np.array(norms)
    assert np.all(norms[1:] <= norms[:-1] * (1 + 1e-9))


def test_dual_objective_nonincreasing_across_updates():
    # the coordinate updates descend the dual objective 1.p - mu.alpha
    q = build_quadrature(0.0, 1.0, 201)
    basis = legendre_basis(q, 4)
    mu = basis.coeff_rows @ UNIFORM_MU
    a_p, mu_p, meta = precondition(basis.values, mu, delta=1.0)
    alpha = np.zeros(5)
    s = a_p.T @ alpha

    def objective():
        ptilde = q.weights * np.exp(s - 1.0)
        return float(np.sum(ptilde) - mu_p @ alpha)

    values = [objective()]
    for k in range(200):
        i = k % 5
        ptilde = q.weights * np.exp(s - 1.0)
        lam = math.log(mu_p[i] / (a_p[i] @ ptilde))
        alpha[i] += lam
        s += lam * a_p[i]
        values.append(objective())
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-12)


def test_recovered_moments_match_independent_quadrature():
    # re-integrate the solved density on a finer independent rule
    sol = solve_power_moments(UNIFORM_MU, (0.0, 1.0), node_count=201, tol=1e-10)
    fine = build_quadrature(0.0, 1.0, 400)
    p = density_on(sol, fine.nodes)
    for i, target in enumerate(UNIFORM_MU):
        val = np.sum(fine.weights * fine.nodes**i * p)
        assert abs(val - target) < 10 * 1e-10 + 1e-9


def test_exponential_weight_recovers_log_linear_dual():
    # moments of exp(-x) on [0, 1]: I_k = k I_{k-1} - exp(-1), I_0 = 1 - 1/e
    moments = [1.0 - math.exp(-1.0)]
    for k in range(1, 4):
        moments.append(k * moments[k - 1] - math.exp(-1.0))
    sol = solve_power_moments(
        np.array(moments), (0.0, 1.0), node_count=201, tol=1e-12, max_sweeps=200_000
    )
    assert sol.converged
    alpha = monomial_dual(sol)
    assert alpha[1] == pytest.approx(-1.0, abs=1e-3)


def test_trig_solver_flat_density():
    tau = np.zeros(4, dtype=complex)
    tau[0] = 0.5  # mean value of the target over the circle
    sol = solve_trig_moments(tau, node_count=256, tol=1e-11)
    assert sol.converged
    _, p, _ = primal_eval(sol.alpha, sol.basis)
    assert np.max(np.abs(p - 0.5)) < 1e-8


def test_trig_solver_matches_band_limited_density():
    grid = circle_quadrature(1024)
    target = 0.8 + 0.3 * np.cos(grid.nodes) - 0.15 * np.sin(2 * grid.nodes)
    tau = np.array(
        [
            np.sum(grid.weights * np.exp(-1j * k * grid.nodes) * target) / (2 * np.pi)
            for k in range(3)
        ]
    )
    sol = solve_trig_moments(tau, node_count=512, tol=1e-10, max_sweeps=300_000)
    assert sol.converged
    h, norm = constraint_residual(
        sol.alpha,
        sol.basis,
        np.array(
            [
                2 * np.pi * tau[0].real,
                2 * np.pi * tau[1].real,
                -2 * np.pi * tau[1].imag,
                2 * np.pi * tau[2].real,
                -2 * np.pi * tau[2].imag,
            ]
        ),
    )
    assert norm < 1e-9


def test_solver_input_validation():
    q = build_quadrature(0.0, 1.0, 16)
    basis = monomial_basis(q, 2)
    with pytest.raises(ValueError):
        fime_solve(basis, np.array([1.0, 0.5]))  # wrong length
    with pytest.raises(ValueError):
        fime_solve(basis, np.array([0.0, 0.5, 0.3]))  # zero mass


def test_basis_rows_at_off_grid_points():
    q = build_quadrature(0.0, 2.0, 32)
    for builder in (lambda: monomial_basis(q, 3), lambda: legendre_basis(q, 3)):
        basis = builder()
        pts = np.array([0.1, 0.7, 1.9])
        rows = basis.rows_at(pts)
        grid_rows = basis.rows_at(q.nodes)
        assert np.allclose(grid_rows, basis.values, atol=1e-12)
        assert rows.shape == (4, 3)
    tb = trig_basis(circle_quadrature(64), 2)
    pts = np.array([-1.0, 0.3])
    rows = tb.rows_at(pts)
    assert np.allclose(rows[1], np.cos(pts))
    assert np.allclose(rows[4], np.sin(2 * pts))


@pytest.mark.parametrize("interval", [(0.856, 1.644), (1.885, 2.515)])
def test_legendre_rows_stay_accurate_away_from_the_origin(interval):
    # windows of conditioned atoms at 1.0 and 2.0; expanding the rows in
    # monomials first misses these by up to 27 and 3.6e6 at order 16
    a, b = interval
    basis = legendre_basis(build_quadrature(a, b, 301), 16)
    nodes = basis.quadrature.nodes
    for i in range(17):
        ref = np.polynomial.Legendre.basis(i, domain=[a, b])(nodes)
        assert np.max(np.abs(basis.values[i] - ref)) < 1e-11

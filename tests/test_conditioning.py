"""Conditioning transforms against analytic and symbolic oracles."""

import math

import numpy as np
import pytest

from momentphase.conditioning import (
    Feasibility,
    MultiMoments,
    PowerMoments,
    TrigMoments,
    condition_circle,
    condition_line,
    condition_polydisk,
    extend_exp_weight,
    hankel_feasibility,
    hankel_matrices,
    max_extension,
    min_extension,
    moments_from_json,
    moments_to_json,
)
from momentphase.series import FormalSeries, series_exp


def half_line(values) -> PowerMoments:
    return PowerMoments(np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# condition_line
# ---------------------------------------------------------------------------


def test_line_point_mass_at_origin():
    # measure c delta_0 has phase = indicator of [0, c], whose moments are
    # c^(n+1)/(n+1)
    c, n = 2.0, 24
    gamma = half_line([c] + [0.0] * n)
    phi = condition_line(gamma)
    expected = np.array([c ** (k + 1) / (k + 1) for k in range(n + 1)])
    assert np.max(np.abs(phi.values / expected - 1.0)) < 1e-12
    assert phi.bounds is None


def test_line_vanishing_measure_gives_vanishing_phase():
    gamma = half_line([1e-9] + [0.0] * 6)
    phi = condition_line(gamma)
    assert phi.values[0] == pytest.approx(1e-9, rel=1e-12)
    assert np.max(np.abs(phi.values[1:])) < 1e-17


def test_line_round_trip_through_exp():
    # forward map: moment series of the measure is 1 - exp(-phase series)
    beta, n = 0.5, 12
    a_phi = np.array([beta / (k + 1) for k in range(n + 1)])
    s = FormalSeries.zeros(1, n + 1)
    s.coeff[1:] = -a_phi
    a_mu_series = series_exp(s)
    a_mu = -a_mu_series.coeff[1:].real  # 1 - exp(-.) drops the free term
    recovered = condition_line(half_line(a_mu))
    assert np.max(np.abs(recovered.values - a_phi)) < 1e-13


def test_line_mass_is_preserved_at_order_zero():
    # a_phi(0) = gamma_0 for any measure: first log coefficient
    rng = np.random.default_rng(5)
    atoms = rng.uniform(0.1, 2.0, 4)
    weights = rng.uniform(0.1, 1.0, 4)
    gamma = half_line([np.sum(weights * atoms**k) for k in range(8)])
    phi = condition_line(gamma)
    assert phi.values[0] == pytest.approx(gamma.values[0], rel=1e-14)


def test_line_triangular_prefix_stability():
    rng = np.random.default_rng(11)
    vals = rng.uniform(0.1, 1.0, 9)
    full = condition_line(half_line(vals))
    cut = condition_line(half_line(vals[:5]))
    assert np.allclose(full.values[:5], cut.values, rtol=0, atol=1e-14)


def test_line_rejects_bad_mass():
    with pytest.raises(ValueError):
        condition_line(half_line([0.0, 1.0]))
    with pytest.raises(ValueError):
        condition_line(half_line([-1.0, 0.0]))


# ---------------------------------------------------------------------------
# condition_circle
# ---------------------------------------------------------------------------


def test_circle_zeroth_phase_moment_is_half_pi():
    rng = np.random.default_rng(0)
    vals = np.concatenate(
        [[0.7], 0.2 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))]
    )
    phi = condition_circle(TrigMoments(vals))
    assert phi.values[0] == np.pi / 2


def test_circle_point_mass_pattern():
    theta0, m = 0.7, 16
    tau = np.array([np.exp(-1j * k * theta0) / (2 * np.pi) for k in range(m + 1)])
    phi = condition_circle(TrigMoments(tau))
    k = np.arange(1, m + 1)
    expected = np.exp(-1j * k * theta0) / (2j * k)
    assert np.max(np.abs(phi.values[1:] - expected)) < 1e-12


def test_circle_uniform_measure_has_flat_phase():
    tau = np.zeros(9, dtype=complex)
    tau[0] = 0.25
    phi = condition_circle(TrigMoments(tau))
    assert np.allclose(phi.values[1:], 0.0)


def test_circle_round_trip_identity():
    # exp(2i sum tau_phi(k) z^k) must reproduce 1 + sum hat_tau(n) z^n
    rng = np.random.default_rng(42)
    m = 10
    # trig moments of a positive trigonometric-polynomial density, by exact
    # trapezoid quadrature
    grid = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
    density = 1.0 + 0.4 * np.cos(grid) + 0.25 * np.sin(2 * grid) - 0.2 * np.cos(3 * grid)
    assert density.min() > 0
    tau = np.array(
        [np.mean(np.exp(-1j * k * grid) * density) for k in range(m + 1)]
    )
    phi = condition_circle(TrigMoments(tau))
    s = FormalSeries.zeros(1, m)
    s.coeff[1:] = 2j * phi.values[1:]
    back = series_exp(s)
    hat = tau / tau[0]
    assert abs(back.coeff[0] - 1.0) < 1e-12
    assert np.max(np.abs(back.coeff[1:] - hat[1:])) < 1e-10


def test_circle_rejects_bad_tau0():
    with pytest.raises(ValueError):
        condition_circle(TrigMoments(np.array([-1.0 + 0j, 0.1j])))
    with pytest.raises(ValueError):
        condition_circle(TrigMoments(np.array([0.5 + 0.3j, 0.1j])))


# ---------------------------------------------------------------------------
# condition_polydisk
# ---------------------------------------------------------------------------


def test_polydisk_1d_point_mass():
    c, a, n = 2.0, 0.5, 16
    gamma = MultiMoments.from_dict(1, n, {(k,): c * a**k for k in range(n + 1)})
    phi = condition_polydisk(gamma)
    assert phi.values[0] == np.pi / 2
    for k in range(1, n + 1):
        assert phi.coefficient((k,)) == pytest.approx(a**k / (2j * k), rel=1e-12)


def test_polydisk_trivial_measure():
    gamma = MultiMoments.from_dict(2, 4, {(0, 0): 3.0})
    phi = condition_polydisk(gamma)
    assert phi.values[0] == np.pi / 2
    assert np.allclose(phi.values[1:], 0.0)


def naive_log_expansion(b_minus_1: dict, dimension: int, order: int) -> dict:
    """log(1 + X) = sum (-1)^(k+1) X^k / k by plain dict convolution."""
    out: dict = {}
    power = {(0,) * dimension: 1.0 + 0j}
    for k in range(1, order + 1):
        nxt: dict = {}
        for ia, ca in power.items():
            for ib, cb in b_minus_1.items():
                ic = tuple(x + y for x, y in zip(ia, ib))
                if sum(ic) <= order:
                    nxt[ic] = nxt.get(ic, 0.0) + ca * cb
        power = nxt
        for idx, cv in power.items():
            out[idx] = out.get(idx, 0.0) + (-1.0) ** (k + 1) / k * cv
    return out


def test_polydisk_2d_point_mass_against_log_oracle():
    # atom at (a, b): generating coefficients carry multinomial factors, so
    # B = 1/(1 - a z1 - b z2); expected phase moments come from an
    # independent dict-based expansion of log B
    a, b, n = 0.4, 0.3, 8
    entries = {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            entries[(i, j)] = a**i * b**j
    gamma = MultiMoments.from_dict(2, n, entries)
    phi = condition_polydisk(gamma)

    b_minus_1 = {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            if i == j == 0:
                continue
            b_minus_1[(i, j)] = (
                math.factorial(i + j)
                / (math.factorial(i) * math.factorial(j))
                * (a**i * b**j)
            )
    log_b = naive_log_expansion(b_minus_1, 2, n)
    for idx, lv in log_b.items():
        assert phi.coefficient(idx) == pytest.approx(lv / 2j, rel=1e-11, abs=1e-13)
    # axis coefficients reproduce the one-variable point-mass pattern
    for k in range(1, n + 1):
        assert phi.coefficient((k, 0)) == pytest.approx(a**k / (2j * k), rel=1e-11)
        assert phi.coefficient((0, k)) == pytest.approx(b**k / (2j * k), rel=1e-11)


def test_polydisk_rejects_zero_mass():
    gamma = MultiMoments.from_dict(1, 2, {(1,): 1.0})
    with pytest.raises(ValueError):
        condition_polydisk(gamma)


# ---------------------------------------------------------------------------
# Hankel feasibility and extensions
# ---------------------------------------------------------------------------


def test_hankel_matrices_shapes_and_entries():
    h1, h2 = hankel_matrices(half_line([1.0, 1.0, 2.0, 6.0]))
    assert np.array_equal(h1, [[1.0, 1.0], [1.0, 2.0]])
    assert np.array_equal(h2, [[1.0, 2.0], [2.0, 6.0]])


def test_hankel_single_moment_is_interior():
    assert hankel_feasibility(half_line([1.0])) is Feasibility.FEASIBLE_INTERIOR


def test_hankel_exponential_moments_interior():
    # gamma_k = k! are the half-line moments of exp(-x)
    assert (
        hankel_feasibility(half_line([1.0, 1.0, 2.0, 6.0]))
        is Feasibility.FEASIBLE_INTERIOR
    )


def test_hankel_dirac_is_boundary():
    assert hankel_feasibility(half_line([1.0, 0.0, 0.0, 0.0])) is Feasibility.BOUNDARY


def test_hankel_infeasible():
    # gamma_1^2 > gamma_0 gamma_2 violates positivity
    assert (
        hankel_feasibility(half_line([1.0, 1.0, 0.5, 1.0])) is Feasibility.INFEASIBLE
    )


def test_hankel_atomic_measures_interior():
    rng = np.random.default_rng(3)
    for trial in range(5):
        atoms = rng.uniform(0.1, 3.0, 4)
        weights = rng.uniform(0.2, 1.0, 4)
        gamma = half_line(
            [np.sum(weights * atoms**k) for k in range(7)]
        )  # matrices up to 4x4, rank 4
        assert hankel_feasibility(gamma) is Feasibility.FEASIBLE_INTERIOR


def test_min_extension_rank_one():
    assert min_extension(half_line([1.0, 1.0])) == pytest.approx(1.0, rel=1e-14)


def test_min_extension_frozen_determinant_value():
    # det [[1,1,2],[1,2,6],[2,6,g]] = 0 has the unique root g = 20
    assert min_extension(half_line([1.0, 1.0, 2.0, 6.0])) == pytest.approx(
        20.0, rel=1e-12
    )


def test_min_extension_atom_reproduces_next_moment():
    c, x0 = 0.7, 1.3
    assert min_extension(half_line([c, c * x0])) == pytest.approx(
        c * x0**2, rel=1e-13
    )


def test_min_extension_two_atoms_reproduces_next_moment():
    # two atoms make the 3x3 Hankel singular exactly at the true gamma_4
    atoms, weights = np.array([0.5, 2.0]), np.array([1.0, 0.5])
    gamma = [np.sum(weights * atoms**k) for k in range(4)]
    expected = np.sum(weights * atoms**4)
    assert min_extension(half_line(gamma)) == pytest.approx(expected, rel=1e-12)


def test_min_extension_requires_even_length():
    with pytest.raises(ValueError):
        min_extension(half_line([1.0, 1.0, 2.0]))


def test_min_extension_rejects_singular_block():
    with pytest.raises(ValueError):
        min_extension(half_line([1.0, 1.0, 1.0, 1.0]))  # rank-one block


# ---------------------------------------------------------------------------
# max_extension
# ---------------------------------------------------------------------------


def solve_on_unit_interval(mu):
    from momentphase.maxent import solve_power_moments

    return solve_power_moments(
        np.asarray(mu, dtype=float), (0.0, 1.0), node_count=201, tol=1e-11,
        max_sweeps=200_000, delta=0.5,
    )


def test_max_extension_mass_only_uniform():
    # only the mass constraint: the entropy optimum is the flat density,
    # whose next moment is 1/2
    sol = solve_on_unit_interval([1.0])
    out = max_extension(half_line([1.0]), sol)
    assert out == pytest.approx(0.5, abs=1e-9)


def test_max_extension_two_uniform_moments():
    sol = solve_on_unit_interval([1.0, 0.5])
    out = max_extension(half_line([1.0, 0.5]), sol)
    assert out == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_max_extension_rejects_unconverged_dual():
    sol = solve_on_unit_interval([1.0, 0.5])
    sol.stop_reason = "max_iter"
    with pytest.raises(ValueError):
        max_extension(half_line([1.0, 0.5]), sol)


def test_extension_ordering_min_below_max():
    # for solvable data the one-step completions bracket the next moment
    gamma = [1.0, 0.45, 0.28, 0.21]
    sol = solve_on_unit_interval(gamma)
    assert sol.converged
    lo = min_extension(half_line(gamma))
    hi = max_extension(half_line(gamma), sol)
    assert lo <= hi + 1e-12


# ---------------------------------------------------------------------------
# exponential-weight recurrence
# ---------------------------------------------------------------------------


def test_exp_weight_factorials():
    # P(x) = -x: moments of exp(-x) on the half line are k!
    seed = half_line([1.0])
    out = extend_exp_weight([0.0, -1.0], seed, 12)
    expected = np.array([float(math.factorial(k)) for k in range(13)])
    assert np.max(np.abs(out.values / expected - 1.0)) < 1e-9


def test_exp_weight_scaled_gamma():
    # P(x) = -2x: gamma_k = k! / 2^(k+1)
    seed = half_line([0.5])
    out = extend_exp_weight([0.0, -2.0], seed, 10)
    expected = np.array(
        [float(math.factorial(k)) / 2.0 ** (k + 1) for k in range(11)]
    )
    assert np.max(np.abs(out.values / expected - 1.0)) < 1e-12


def test_exp_weight_recurrence_residual_is_zero():
    sigma = [0.3, -0.2, 0.1, -0.8]  # degree 3, negative leading term
    seed = half_line([1.0, 0.4, 0.9])
    out = extend_exp_weight(sigma, seed, 6)
    g = out.values
    n = 3
    for k in range(6):
        resid = (k + 1) * g[k] + sum(
            i * sigma[i] * g[k + i] for i in range(1, n + 1)
        )
        assert resid == pytest.approx(0.0, abs=1e-12 * max(1, abs(g[k + n])))


def test_exp_weight_rejects_zero_leading_term():
    with pytest.raises(ValueError):
        extend_exp_weight([0.0, 1.0, 0.0], half_line([1.0, 1.0]), 3)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def test_power_json_round_trip():
    for bounds in ((0.0, 1.0), None):
        m = PowerMoments(np.array([1.0, 0.5]), bounds)
        back = moments_from_json(moments_to_json(m))
        assert isinstance(back, PowerMoments)
        assert np.array_equal(back.values, m.values)
        assert back.bounds == m.bounds


def test_trig_json_round_trip():
    m = TrigMoments(np.array([0.5 + 0j, 0.1 - 0.2j]))
    back = moments_from_json(moments_to_json(m))
    assert isinstance(back, TrigMoments)
    assert np.array_equal(back.values, m.values)


def test_multi_json_round_trip():
    m = MultiMoments.from_dict(2, 3, {(0, 0): 1.0, (1, 2): 0.25})
    back = moments_from_json(moments_to_json(m))
    assert isinstance(back, MultiMoments)
    assert np.array_equal(back.values, m.values)


@pytest.mark.parametrize(
    "bounds", [(float("nan"), 1.0), (0.0, float("inf")), (float("-inf"), 0.0), (1.0, 1.0)]
)
def test_interval_support_needs_finite_ordered_bounds(bounds):
    with pytest.raises(ValueError, match="finite bounds"):
        PowerMoments(np.array([1.0]), bounds)


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        moments_from_json({"kind": "power", "support": "half_line", "values": []})
    with pytest.raises(ValueError):
        moments_from_json({"kind": "nonsense", "values": [1.0]})

"""Series arithmetic against brute-force convolution oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentphase.series import (
    FormalSeries,
    accumulate_powers,
    graded_indices,
    series_exp,
    series_log,
    series_pow,
)

# ---------------------------------------------------------------------------
# oracle: naive dict-based polynomial arithmetic, no shared code with series.py
# ---------------------------------------------------------------------------


def naive_multiply(a: dict, b: dict, order: int) -> dict:
    out: dict = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            ic = tuple(x + y for x, y in zip(ia, ib))
            if sum(ic) <= order:
                out[ic] = out.get(ic, 0.0) + ca * cb
    return out


def naive_pow(a: dict, k: int, dimension: int, order: int) -> dict:
    out = {(0,) * dimension: 1.0 + 0j}
    for _ in range(k):
        out = naive_multiply(out, a, order)
    return out


def as_dict(s: FormalSeries) -> dict:
    return {idx: c for idx, c in zip(s.indices, s.coeff) if c != 0}


def assert_series_close(s: FormalSeries, expected: dict, tol: float = 1e-12):
    scale = max(1.0, max((abs(v) for v in expected.values()), default=1.0))
    for idx in s.indices:
        got = s.coefficient(idx)
        want = expected.get(idx, 0.0)
        assert abs(got - want) <= tol * scale, (idx, got, want)


# ---------------------------------------------------------------------------
# series_pow
# ---------------------------------------------------------------------------


def test_pow_of_constant_one_is_one():
    one = FormalSeries.constant(1, 6, 1.0)
    out = series_pow(one, 5)
    assert out.coefficient((0,)) == 1.0
    assert np.allclose(out.coeff[1:], 0.0)


def test_pow_free_term_is_power_of_free_term():
    a = FormalSeries.from_dict(2, 3, {(0, 0): 1.7, (1, 0): 0.3, (0, 1): -0.2})
    for k in range(5):
        assert series_pow(a, k).free_term == pytest.approx(1.7**k, rel=1e-14)


def test_pow_univariate_against_convolution():
    a = FormalSeries.from_dict(1, 4, {(0,): 1.0, (1,): 2.0, (2,): 3.0})
    out = series_pow(a, 3)
    expected = naive_pow(as_dict(a), 3, 1, 4)
    assert_series_close(out, expected)


def test_pow_rejects_zero_free_term_and_negative_exponent():
    s = FormalSeries.from_dict(1, 3, {(1,): 1.0})
    with pytest.raises(ValueError):
        series_pow(s, 2)
    a = FormalSeries.constant(1, 3, 1.0)
    with pytest.raises(ValueError):
        series_pow(a, -1)


def test_pow_identity_cases():
    a = FormalSeries.from_dict(2, 4, {(0, 0): 2.0, (1, 1): 1.0, (2, 0): -0.5})
    out0 = series_pow(a, 0)
    assert out0.free_term == 1.0 and np.allclose(out0.coeff[1:], 0.0)
    out1 = series_pow(a, 1)
    assert np.allclose(out1.coeff, a.coeff)


@pytest.mark.parametrize("dimension,order,k", [(1, 8, 4), (2, 5, 3), (3, 4, 5)])
def test_pow_random_matches_oracle(dimension, order, k):
    rng = np.random.default_rng(10 * dimension + k)
    a = FormalSeries.zeros(dimension, order)
    a.coeff[:] = rng.uniform(-1, 1, a.coeff.size) + 1j * rng.uniform(
        -1, 1, a.coeff.size
    )
    a.coeff[0] = 1.0 + rng.uniform(0.2, 1.0)
    out = series_pow(a, k)
    assert_series_close(out, naive_pow(as_dict(a), k, dimension, order))


@settings(max_examples=60, deadline=None)
@given(
    dimension=st.integers(1, 3),
    order=st.integers(0, 5),
    k=st.integers(0, 5),
    seed=st.integers(0, 2**31),
)
def test_pow_property(dimension, order, k, seed):
    rng = np.random.default_rng(seed)
    a = FormalSeries.zeros(dimension, order)
    a.coeff[:] = rng.uniform(-1, 1, a.coeff.size)
    a.coeff[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    assert_series_close(series_pow(a, k), naive_pow(as_dict(a), k, dimension, order))


def test_pow_triangular_prefix_stability():
    # truncating inputs to degree n never changes outputs of degree <= n
    rng = np.random.default_rng(7)
    a = FormalSeries.zeros(2, 6)
    a.coeff[:] = rng.uniform(-1, 1, a.coeff.size)
    a.coeff[0] = 1.3
    full = series_pow(a, 3)
    cut = series_pow(a.truncate(4), 3)
    for idx in cut.indices:
        assert cut.coefficient(idx) == pytest.approx(
            full.coefficient(idx), abs=1e-13
        )


@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
def test_truncate_is_a_copied_prefix(dimension):
    # graded order lists every lower truncation first
    for order in range(9):
        full = graded_indices(dimension, order)
        for lower in range(order + 1):
            prefix = graded_indices(dimension, lower)
            assert full[: len(prefix)] == prefix
    a = FormalSeries.zeros(dimension, 5)
    a.coeff[:] = np.arange(a.coeff.size) + 1.0
    cut = a.truncate(3)
    assert all(cut.coefficient(idx) == a.coefficient(idx) for idx in cut.indices)
    cut.coeff[:] = 0.0
    assert np.array_equal(a.coeff, np.arange(a.coeff.size) + 1.0)
    with pytest.raises(ValueError, match="cannot extend"):
        a.truncate(6)


# ---------------------------------------------------------------------------
# accumulate_powers
# ---------------------------------------------------------------------------


def test_accumulate_zero_series():
    z = FormalSeries.zeros(1, 6)
    out = accumulate_powers(z, [1.0, 0.5, 0.25])
    assert np.allclose(out.coeff, 0.0)


def test_accumulate_geometric_log():
    # S = a z, w_k = 1/k: coefficients a^n/n, the expansion of -log(1 - a z)
    a = 0.5
    n = 16
    s = FormalSeries.from_dict(1, n, {(1,): a})
    out = accumulate_powers(s, [1.0 / k for k in range(1, n + 1)])
    for m in range(1, n + 1):
        assert out.coefficient((m,)) == pytest.approx(a**m / m, rel=1e-13)


def test_accumulate_matches_direct_power_sum():
    s = FormalSeries.from_dict(1, 6, {(1,): 1.0, (2,): 0.5})
    weights = [1.0 / k for k in range(1, 7)]
    out = accumulate_powers(s, weights)
    expected: dict = {}
    sd = as_dict(s)
    power = {(0,): 1.0 + 0j}
    for k, w in enumerate(weights, start=1):
        power = naive_multiply(power, sd, 6)
        for idx, c in power.items():
            expected[idx] = expected.get(idx, 0.0) + w * c
    assert_series_close(out, expected)


def test_accumulate_rejects_nonzero_free_term():
    s = FormalSeries.constant(1, 3, 0.1)
    with pytest.raises(ValueError):
        accumulate_powers(s, [1.0])


# ---------------------------------------------------------------------------
# series_log
# ---------------------------------------------------------------------------


def random_zero_free(dimension: int, order: int, seed: int) -> FormalSeries:
    """Complex S with zero free term, small enough that log(1+S) is tame."""
    rng = np.random.default_rng(seed)
    s = FormalSeries.zeros(dimension, order)
    s.coeff[:] = rng.uniform(-0.3, 0.3, s.coeff.size) + 1j * rng.uniform(
        -0.3, 0.3, s.coeff.size
    )
    s.coeff[0] = 0.0
    return s


@pytest.mark.parametrize("order", range(9))
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_log_inverts_exp(dimension, order):
    b = random_zero_free(dimension, order, 100 * dimension + order)
    b.coeff[0] = 1.0
    back = series_exp(series_log(b))
    assert np.max(np.abs(back.coeff - b.coeff)) < 1e-12


@pytest.mark.parametrize("order", range(9))
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_log_matches_power_sum(dimension, order):
    # log(1 + S) = sum_k (-1)^(k+1) S^k / k, built by repeated products
    s = random_zero_free(dimension, order, 7 + 100 * dimension + order)
    reference = accumulate_powers(
        s, [(-1.0) ** (k + 1) / k for k in range(1, order + 1)]
    )
    b = s.copy()
    b.coeff[0] = 1.0
    assert np.max(np.abs(series_log(b).coeff - reference.coeff)) < 1e-13


@pytest.mark.parametrize("free_term", [0.0, 2.0, -1.0, 1.0 + 1e-15, 1j])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_log_rejects_free_term_other_than_one(dimension, free_term):
    b = FormalSeries.constant(dimension, 4, free_term)
    with pytest.raises(ValueError):
        series_log(b)


def test_log_geometric():
    # log(1/(1 - a z)) = sum a^n z^n / n
    a, n = 0.5, 16
    b = FormalSeries.from_dict(1, n, {(m,): a**m for m in range(n + 1)})
    out = series_log(b)
    for m in range(1, n + 1):
        assert out.coefficient((m,)) == pytest.approx(a**m / m, rel=1e-13)


# ---------------------------------------------------------------------------
# series_exp
# ---------------------------------------------------------------------------


def test_exp_of_zero_is_one():
    out = series_exp(FormalSeries.zeros(2, 4))
    assert out.free_term == 1.0
    assert np.allclose(out.coeff[1:], 0.0)


def test_exp_of_log_geometric():
    # exp(sum a^n z^n / n) = 1/(1 - a z) = sum a^n z^n
    a, n = 0.5, 16
    s = FormalSeries.from_dict(1, n, {(m,): a**m / m for m in range(1, n + 1)})
    out = series_exp(s)
    for m in range(n + 1):
        assert out.coefficient((m,)) == pytest.approx(a**m, rel=1e-13)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exp_log_round_trip(seed):
    # accumulate_powers(S, 1/k) then exp gives the geometric series 1/(1-S)
    rng = np.random.default_rng(seed)
    n = 8
    s = FormalSeries.zeros(1, n)
    s.coeff[1:] = rng.uniform(-0.3, 0.3, n)
    log_term = accumulate_powers(s, [1.0 / k for k in range(1, n + 1)])
    result = series_exp(log_term)
    # oracle: geometric sum 1 + S + S^2 + ...
    sd = as_dict(s)
    expected = {(0,): 1.0 + 0j}
    power = {(0,): 1.0 + 0j}
    for _ in range(n):
        power = naive_multiply(power, sd, n)
        for idx, c in power.items():
            expected[idx] = expected.get(idx, 0.0) + c
    assert_series_close(result, expected)


# ---------------------------------------------------------------------------
# container behavior
# ---------------------------------------------------------------------------


def test_graded_order_is_by_total_degree():
    idx = graded_indices(3, 4)
    degrees = [sum(i) for i in idx]
    assert degrees == sorted(degrees)
    assert len(set(idx)) == len(idx)
    # descending lexicographic within a degree: conditioned.json lists its
    # entries in this order
    for m in range(5):
        same_degree = [i for i in idx if sum(i) == m]
        assert same_degree == sorted(same_degree, reverse=True)
    assert idx[4:10] == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


def test_from_dict_rejects_overflow_index():
    with pytest.raises(ValueError):
        FormalSeries.from_dict(2, 3, {(2, 2): 1.0})


def test_multiply_matches_naive():
    rng = np.random.default_rng(3)
    a = FormalSeries.zeros(2, 5)
    b = FormalSeries.zeros(2, 5)
    a.coeff[:] = rng.uniform(-1, 1, a.coeff.size)
    b.coeff[:] = rng.uniform(-1, 1, b.coeff.size)
    out = a.multiply(b)
    assert_series_close(out, naive_multiply(as_dict(a), as_dict(b), 5))

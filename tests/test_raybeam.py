"""Per-direction projection, phase moments, and hyperplane slices."""

import numpy as np
import pytest

from momentphase.conditioning import MultiMoments
from momentphase.raybeam import (
    RayDirection,
    pushforward_moments,
    radon_slice,
    ray_phase_moments,
    ray_sweep,
    reconstruct_ray,
    support_cutoff,
)
from momentphase.transform import GridFunction


def atom_moments(points, weights, order):
    """Multivariate moments of a finite atomic measure, by direct summation."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.asarray(weights, dtype=float)
    d = points.shape[1]
    entries = {}
    from momentphase.series import graded_indices

    for alpha in graded_indices(d, order):
        entries[alpha] = float(
            np.sum(weights * np.prod(points ** np.asarray(alpha), axis=1))
        )
    return MultiMoments.from_dict(d, order, entries)


# ---------------------------------------------------------------------------
# pushforward_moments
# ---------------------------------------------------------------------------


def test_pushforward_of_origin_atom():
    gamma = atom_moments([[0.0, 0.0]], [2.5], 6)
    m = pushforward_moments(gamma, RayDirection.of([1.0, 3.0]))
    assert m[0] == pytest.approx(2.5)
    assert np.allclose(m[1:], 0.0)


def test_pushforward_atom_gives_projected_powers():
    x0 = np.array([0.3, 1.2, 0.7])
    c = 0.8
    gamma = atom_moments([x0], [c], 5)
    y = RayDirection.of([0.5, 1.0, 2.0])
    m = pushforward_moments(gamma, y)
    t0 = float(np.dot(x0, y.components))
    expected = c * t0 ** np.arange(6)
    assert np.max(np.abs(m - expected)) < 1e-12 * np.max(np.abs(expected))


def test_pushforward_identity_direction_1d():
    gamma = atom_moments([[0.4], [1.7]], [1.0, 0.5], 6)
    m = pushforward_moments(gamma, RayDirection.of([1.0]))
    assert np.allclose(m, gamma.real_values()[: 7])


def test_pushforward_homogeneity_in_direction():
    gamma = atom_moments([[0.2, 0.9], [1.1, 0.3]], [1.0, 2.0], 6)
    y = RayDirection.of([0.7, 0.4])
    y2 = RayDirection.of([1.4, 0.8])
    m1 = pushforward_moments(gamma, y)
    m2 = pushforward_moments(gamma, y2)
    assert np.allclose(m2, m1 * 2.0 ** np.arange(7), rtol=1e-12)


def test_direction_must_be_interior():
    with pytest.raises(ValueError):
        RayDirection.of([1.0, 0.0])
    with pytest.raises(ValueError):
        RayDirection.of([1.0, -0.5])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            RayDirection.of([bad, 1.0])


# ---------------------------------------------------------------------------
# ray_phase_moments
# ---------------------------------------------------------------------------


def test_phase_mass_identity():
    # c_0 equals the total mass for every direction
    rng = np.random.default_rng(9)
    gamma = atom_moments(rng.uniform(0.1, 2.0, (5, 3)), rng.uniform(0.2, 1.0, 5), 6)
    mass = gamma.total_mass
    for _ in range(20):
        y = RayDirection.of(rng.uniform(0.05, 3.0, 3))
        c = ray_phase_moments(pushforward_moments(gamma, y))
        assert c[0] == pytest.approx(mass, rel=1e-13)


def test_phase_moments_of_origin_atom_are_block_moments():
    # mass c at the origin: phase is the indicator of [0, c]
    c = 1.5
    m = np.zeros(9)
    m[0] = c
    out = ray_phase_moments(m)
    expected = np.array([c ** (j + 1) / (j + 1) for j in range(9)])
    assert np.max(np.abs(out / expected - 1.0)) < 1e-13


def test_phase_moments_round_trip_through_exp():
    from momentphase.series import FormalSeries, series_exp

    rng = np.random.default_rng(4)
    m = rng.uniform(0.05, 0.8, 7)
    c = ray_phase_moments(m)
    s = FormalSeries.zeros(1, 7)
    s.coeff[1:] = -c
    back = series_exp(s)
    recovered = -back.coeff[1:].real  # 1 - exp(-sum c_j u^(j+1))
    assert np.max(np.abs(recovered - m)) < 1e-12


def test_phase_moments_reject_empty_mass():
    with pytest.raises(ValueError):
        ray_phase_moments(np.array([0.0, 1.0]))


def test_phase_moments_stay_finite():
    rng = np.random.default_rng(12)
    for _ in range(10):
        m = rng.uniform(0.0, 1.0, 9)
        m[0] = rng.uniform(0.5, 2.0)
        c = ray_phase_moments(m)
        assert np.all(np.isfinite(c))


# ---------------------------------------------------------------------------
# support cutoff
# ---------------------------------------------------------------------------


def test_cutoff_for_unit_block_phase():
    # the phase chi_[0,1] has mean 1/2 and mass 1; the block bound puts the
    # edge exactly at 1, plus the requested spread margin
    c = np.array([1.0, 0.5, 1.0 / 3.0])
    t = support_cutoff(c, span=1.0)
    assert t == pytest.approx(1.0 + np.sqrt(1.0 / 12.0), rel=1e-12)
    assert support_cutoff(c, span=0.0) == pytest.approx(1.0, rel=1e-12)


def test_cutoff_needs_three_moments():
    with pytest.raises(ValueError):
        support_cutoff(np.array([1.0, 0.5]))


# ---------------------------------------------------------------------------
# radon_slice
# ---------------------------------------------------------------------------


def test_slice_of_zero_phase_is_zero():
    gf = GridFunction.on_interval(-2.0, 6.0, np.zeros(512))
    out = radon_slice(gf)
    assert np.allclose(out.values, 0.0)


def test_slice_of_smoothed_atom_peaks_at_projection():
    # atom at x0: the projected measure concentrates at t0 = y . x0 and the
    # slice must spike there, within one grid cell.  The cell is chosen on
    # the order of the maxent smoothing width: localization below the
    # reconstruction bandwidth is not possible at this moment order.
    x0 = np.array([0.6, 0.9])
    c = 1.0
    gamma = atom_moments([x0], [c], 8)
    y = RayDirection.of([1.0, 1.0])
    t0 = float(np.dot(x0, y.components))
    rs = reconstruct_ray(
        gamma, y, grid_size=512, node_count=301, tol=1e-7, max_sweeps=400_000,
        delta=0.1, span=0.4,
    )
    x = rs.radon_values.grid
    peak = x[np.argmax(rs.radon_values.values)]
    assert abs(peak - t0) <= rs.radon_values.step
    assert rs.pushforward[0] == pytest.approx(c)
    assert rs.phase_moments[0] == pytest.approx(c)


def test_slice_rescales_with_direction():
    # doubling the direction doubles the peak location of the atom slice
    x0 = np.array([0.6, 0.9])
    gamma = atom_moments([x0], [1.0], 8)
    y = RayDirection.of([1.0, 1.0])
    y2 = RayDirection.of([2.0, 2.0])
    r1 = reconstruct_ray(gamma, y, grid_size=4096, tol=1e-7, max_sweeps=400_000, delta=0.1)
    r2 = reconstruct_ray(gamma, y2, grid_size=4096, tol=1e-7, max_sweeps=400_000, delta=0.1)
    assert r1.solution.converged and r2.solution.converged
    p1 = r1.radon_values.grid[np.argmax(r1.radon_values.values)]
    p2 = r2.radon_values.grid[np.argmax(r2.radon_values.values)]
    assert abs(p2 - 2.0 * p1) <= 2.0 * (r1.radon_values.step + r2.radon_values.step)
    assert np.allclose(r2.pushforward, r1.pushforward * 2.0 ** np.arange(9), rtol=1e-12)


# ---------------------------------------------------------------------------
# ray_sweep
# ---------------------------------------------------------------------------


def test_sweep_preserves_direction_order_and_matches_serial():
    gamma = atom_moments([[0.5, 0.5], [1.0, 0.2]], [1.0, 0.7], 6)
    dirs = [[1.0, 1.0], [0.5, 2.0], [2.0, 0.5]]
    kwargs = dict(grid_size=1024, node_count=201, tol=1e-6, max_sweeps=100_000, delta=0.1)
    swept = ray_sweep(gamma, dirs, **kwargs)
    assert [s.direction.components for s in swept] == [
        RayDirection.of(d).components for d in dirs
    ]
    assert all(s.solution.converged for s in swept)
    serial = [reconstruct_ray(gamma, RayDirection.of(d), **kwargs) for d in dirs]
    for a, b in zip(swept, serial):
        assert np.array_equal(a.radon_values.values, b.radon_values.values)


def test_sweep_empty_direction_list():
    gamma = atom_moments([[0.5, 0.5]], [1.0], 4)
    assert ray_sweep(gamma, []) == []


def test_summary_is_json_friendly():
    import json

    gamma = atom_moments([[0.5, 0.5]], [1.0], 6)
    rs = reconstruct_ray(
        gamma, RayDirection.of([1.0, 1.0]), grid_size=1024, node_count=201,
        tol=1e-6, max_sweeps=100_000, delta=0.1,
    )
    payload = rs.summary()
    text = json.dumps(payload, sort_keys=True)
    assert "direction" in payload and "cutoff" in payload
    assert json.loads(text)["solver"]["iterations"] == rs.solution.iterations

"""Hilbert operators and inversion formulas against principal-value oracles."""

import numpy as np
import pytest

from momentphase.transform import (
    PLEMELJ_EXP_SIGN,
    GridFunction,
    PhaseRangeError,
    cauchy_boundary_avg,
    hilbert_circle,
    hilbert_line,
    invert_circle,
    invert_line,
    read_csv,
    write_csv,
)


def interval_grid(g=1024, a=0.0, b=1.0) -> GridFunction:
    return GridFunction.on_interval(a, b, np.zeros(g))


def moment_killed_bump(x: np.ndarray, center: float, sigma: float) -> np.ndarray:
    """Even bump with vanishing mass and second moment; tails decay fast
    enough that the window truncation in a double transform is negligible."""
    u = (x - center) / sigma
    f = (3.0 - 6.0 * u**2 + u**4) * np.exp(-(u**2) / 2.0)
    return f / np.max(np.abs(f))


# ---------------------------------------------------------------------------
# hilbert_line
# ---------------------------------------------------------------------------


def test_line_zero_maps_to_zero():
    out = hilbert_line(interval_grid(256))
    assert np.allclose(out.values, 0.0)


@pytest.mark.parametrize("c", [0.5, 0.25])
def test_line_indicator_closed_form(c):
    # H chi_[0,c](x) = (1/pi) log|(c-x)/x|; the jump edges at 0 and c sit on
    # cell boundaries, so the cell kernel reproduces the integral exactly
    g = 1024
    gf = interval_grid(g)
    x = gf.grid
    phi = gf.with_values((x < c).astype(float))
    out = hilbert_line(phi)
    exact = np.log(np.abs((c - x) / x)) / np.pi
    h = gf.step
    off_jumps = (np.abs(x) > 3 * h) & (np.abs(x - c) > 3 * h)
    assert np.max(np.abs(out.values - exact)[off_jumps]) < 1e-12


def test_line_indicator_scales_linearly():
    g, beta = 1024, 0.5
    gf = interval_grid(g)
    x = gf.grid
    phi = gf.with_values(beta * (x < 1.0).astype(float))
    out = hilbert_line(phi)
    exact = beta * np.log(np.abs((1.0 - x) / x)) / np.pi
    h = gf.step
    off = (np.abs(x) > 3 * h) & (np.abs(x - 1.0) > 3 * h)
    assert np.max(np.abs(out.values - exact)[off]) < 1e-12


def test_line_anti_involution_spectral_kernel():
    # smooth data well inside the window: two applications negate it
    gf = interval_grid(1024)
    f = moment_killed_bump(gf.grid, 0.5, 0.01)
    twice = hilbert_line(
        hilbert_line(gf.with_values(f), kernel="spectral"), kernel="spectral"
    )
    assert np.max(np.abs(twice.values + f)) < 1e-6


def test_line_kernels_agree_on_smooth_data():
    # same operator up to discretization order; pins a common orientation
    gf = interval_grid(1024)
    f = moment_killed_bump(gf.grid, 0.5, 0.1)
    a = hilbert_line(gf.with_values(f), kernel="cell")
    b = hilbert_line(gf.with_values(f), kernel="spectral")
    assert np.max(np.abs(a.values - b.values)) < 2e-2
    assert np.max(np.abs(a.values)) > 0.3


def test_grid_size_must_be_power_of_two():
    with pytest.raises(ValueError):
        GridFunction.on_interval(0.0, 1.0, np.zeros(100))


# ---------------------------------------------------------------------------
# hilbert_circle
# ---------------------------------------------------------------------------


def dense_pv_circle(func, theta: np.ndarray, points: int = 100_000) -> np.ndarray:
    """(1/2pi) PV integral cot((sigma-theta)/2) f(sigma) dsigma by offset
    midpoint quadrature: nodes symmetric about the singularity cancel it."""
    m = (np.arange(points) + 0.5) * (2 * np.pi / points)
    out = np.empty_like(theta)
    for i, th in enumerate(theta):
        sigma = th + m
        out[i] = np.sum(func(sigma) / np.tan((sigma - th) / 2.0)) / points
    return out


def test_circle_constant_annihilated():
    gf = GridFunction.on_circle(np.full(256, 2.7))
    assert np.allclose(hilbert_circle(gf).values, 0.0, atol=1e-14)


def test_circle_cosine_orientation():
    # the PV quadrature oracle fixes H cos = -sin for this kernel
    gf = GridFunction.on_circle(np.zeros(512))
    theta = gf.grid
    out = hilbert_circle(gf.with_values(np.cos(theta)))
    oracle = dense_pv_circle(np.cos, theta)
    assert np.max(np.abs(out.values - oracle)) < 1e-6
    assert np.max(np.abs(out.values + np.sin(theta))) < 1e-12


def test_circle_matches_pv_oracle_on_random_band_limited():
    rng = np.random.default_rng(7)
    coef = rng.uniform(-1, 1, 8)

    def f(s):
        return sum(
            coef[2 * k] * np.cos((k + 1) * s) + coef[2 * k + 1] * np.sin((k + 1) * s)
            for k in range(4)
        )

    gf = GridFunction.on_circle(np.zeros(256))
    out = hilbert_circle(gf.with_values(f(gf.grid)))
    oracle = dense_pv_circle(f, gf.grid)
    assert np.max(np.abs(out.values - oracle)) < 1e-6


def test_circle_double_transform_negates_mean_free_part():
    rng = np.random.default_rng(3)
    gf = GridFunction.on_circle(np.zeros(256))
    theta = gf.grid
    f = np.zeros_like(theta)
    for k in range(1, 9):
        f += rng.uniform(-1, 1) * np.cos(k * theta) + rng.uniform(-1, 1) * np.sin(
            k * theta
        )
    twice = hilbert_circle(hilbert_circle(gf.with_values(f)))
    assert np.max(np.abs(twice.values + f)) < 1e-12


# ---------------------------------------------------------------------------
# Plemelj sign oracle
# ---------------------------------------------------------------------------


def test_exponent_sign_fixed_by_two_sided_limits():
    """Re-derive the exponent sign from the boundary limits themselves.

    For the half-height phase phi = (1/2) chi_[0,1], the phase transform has
    the closed form C phi(z) = (1/2) log((1-z)/(-z)), so the density is

        rho(x) = lim (1/2 pi i) [exp C phi(x+i eps) - exp C phi(x-i eps)].

    Evaluating the limit analytically and comparing against the grid formula
    (1/pi) exp(s pi H phi) sin(pi phi) identifies s = +1; the flipped sign
    errs by orders of magnitude.
    """
    eps = 1e-9
    x = np.array([0.2, 0.4, 0.6, 0.8])
    zp, zm = x + 1j * eps, x - 1j * eps
    cphi_p = 0.5 * np.log((1 - zp) / (-zp))
    cphi_m = 0.5 * np.log((1 - zm) / (-zm))
    rho_limit = ((np.exp(cphi_p) - np.exp(cphi_m)) / (2j * np.pi)).real

    h_exact = 0.5 * np.log(np.abs((1 - x) / x)) / np.pi
    rho_plus = np.exp(np.pi * h_exact) * np.sin(np.pi * 0.5) / np.pi
    rho_minus = np.exp(-np.pi * h_exact) * np.sin(np.pi * 0.5) / np.pi

    assert np.max(np.abs(rho_plus - rho_limit)) < 1e-6
    assert np.min(np.abs(rho_minus - rho_limit)) > 1e-2
    assert PLEMELJ_EXP_SIGN == 1.0


# ---------------------------------------------------------------------------
# invert_line
# ---------------------------------------------------------------------------


def test_invert_line_zero_phase():
    out = invert_line(interval_grid(256))
    assert np.allclose(out.values, 0.0)


def test_invert_line_half_jump_closed_form():
    g = 1024
    gf = interval_grid(g)
    phi = gf.with_values(np.full(g, 0.5))
    rho = invert_line(phi)
    x = gf.grid
    exact = np.sqrt((1.0 - x) / x) / np.pi
    inner = (x > 0.02) & (x < 0.98)
    assert np.max(np.abs(rho.values - exact)[inner] / exact[inner]) < 1e-10


def test_invert_line_full_jump_vanishes_inside():
    # phase identically one: sin(pi) kills the absolutely continuous part
    g = 512
    gf = interval_grid(g)
    rho = invert_line(gf.with_values(np.ones(g)))
    assert np.max(np.abs(rho.values)) < 1e-12


def test_invert_line_mass_conservation():
    # half-jump phase on [0, 1]: the inverted density integrates to the
    # measure's mass 1/2; the inverse-square-root edge costs the midpoint
    # rule most of its budget, so the grid is one notch finer here
    g = 2048
    gf = interval_grid(g)
    rho = invert_line(gf.with_values(np.full(g, 0.5)))
    mass = float(np.sum(rho.values) * gf.step)
    assert mass == pytest.approx(0.5, rel=0.01)


def test_invert_line_nonnegative_output():
    g = 1024
    gf = interval_grid(g)
    phi = np.clip(0.5 + 0.3 * np.sin(2 * np.pi * gf.grid), 0.0, 1.0)
    rho = invert_line(gf.with_values(phi))
    assert rho.values.min() >= 0.0


def test_invert_line_range_check():
    g = 256
    gf = interval_grid(g)
    with pytest.raises(PhaseRangeError):
        invert_line(gf.with_values(np.full(g, 1.2)))
    with pytest.raises(PhaseRangeError):
        invert_line(gf.with_values(np.full(g, -0.2)))


# ---------------------------------------------------------------------------
# invert_circle
# ---------------------------------------------------------------------------


def test_invert_circle_uniform_phase_returns_tau0():
    tau0 = 0.3
    gf = GridFunction.on_circle(np.full(1024, np.pi / 2))
    rho = invert_circle(gf, tau0)
    assert np.max(np.abs(rho.values - tau0)) < 1e-14


def test_invert_circle_zero_phase_flags_invalid():
    gf = GridFunction.on_circle(np.zeros(256))
    with pytest.warns(RuntimeWarning):
        rho = invert_circle(gf, 0.5)
    # sine vanishes, the offset makes the raw value -tau0; clipped to zero
    assert np.allclose(rho.values, 0.0)


def test_invert_circle_rejects_bad_tau0():
    gf = GridFunction.on_circle(np.full(128, np.pi / 2))
    with pytest.raises(ValueError):
        invert_circle(gf, 0.0)


# at this mode count the reconstruction dips slightly negative where the
# true density is near zero; the clip diagnostic is expected to fire
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_invert_circle_smoothed_point_mass_mass_conserved():
    # trig moments of a narrow wrapped gaussian, conditioned then inverted:
    # total recovered mass within 2 percent of the input mass
    from momentphase.conditioning import TrigMoments, condition_circle
    from momentphase.maxent import density_on, solve_trig_moments

    theta0, sig, mass, m = 0.7, 0.4, 1.0, 8
    tau = np.array(
        [
            mass * np.exp(-1j * k * theta0) * np.exp(-(k**2) * sig**2 / 2) / (2 * np.pi)
            for k in range(m + 1)
        ]
    )
    phase_moments = condition_circle(TrigMoments(tau))
    sol = solve_trig_moments(phase_moments.values, node_count=512, tol=1e-9)
    assert sol.converged
    gf = GridFunction.on_circle(np.zeros(1024))
    phi = gf.with_values(np.clip(density_on(sol, gf.grid), 0.0, np.pi))
    rho = invert_circle(phi, tau[0].real)
    recovered = np.sum(rho.values) * rho.step
    assert recovered == pytest.approx(mass, rel=0.02)


# ---------------------------------------------------------------------------
# cauchy_boundary_avg
# ---------------------------------------------------------------------------


def test_boundary_avg_zero_phase():
    out = cauchy_boundary_avg(interval_grid(256))
    assert np.allclose(out.values, 0.0)


def test_boundary_avg_indicator_closed_form():
    # xi = chi_[0,c]: exp(C xi)(z) = (z-c)/z, real on the axis, so the
    # two-sided average is (x-c)/x - 1 = -c/x everywhere off the jumps
    c = 0.5
    gf = interval_grid(1024, -2.0, 2.0)
    x = gf.grid
    xi = gf.with_values(((x >= 0) & (x < c)).astype(float))
    out = cauchy_boundary_avg(xi)
    exact = -c / x
    h = gf.step
    off = (np.abs(x) > 3 * h) & (np.abs(x - c) > 3 * h)
    assert np.max(np.abs(out.values - exact)[off]) < 1e-10


def test_boundary_avg_range_check():
    g = 128
    with pytest.raises(PhaseRangeError):
        cauchy_boundary_avg(interval_grid(g).with_values(np.full(g, 1.5)))


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_csv_round_trip_interval(tmp_path):
    rng = np.random.default_rng(0)
    gf = GridFunction.on_interval(-1.5, 2.5, rng.standard_normal(64))
    path = tmp_path / "grid.csv"
    write_csv(gf, path)
    back = read_csv(path)
    assert back.kind == "interval"
    assert (back.a, back.b) == (gf.a, gf.b)
    assert np.array_equal(back.values, gf.values)  # bit-exact


def test_csv_round_trip_circle(tmp_path):
    rng = np.random.default_rng(1)
    gf = GridFunction.on_circle(rng.standard_normal(32))
    path = tmp_path / "grid.csv"
    write_csv(gf, path)
    back = read_csv(path)
    assert back.kind == "circle"
    assert np.array_equal(back.values, gf.values)


def test_csv_write_is_deterministic(tmp_path):
    gf = GridFunction.on_interval(0.0, 1.0, np.linspace(0, 1, 16) ** 3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(gf, p1)
    write_csv(gf, p2)
    assert p1.read_bytes() == p2.read_bytes()


# The values every golden-format test writes: signed zero, the smallest
# subnormal, short and long reprs, and the non-finite ones.
EDGE_VALUES = [-0.0, 5e-324, 1e-05, 1e16, 1 / 3, float("nan"), float("inf"), -1.5, 0.0]


def golden_csv(gf: GridFunction) -> str:
    """The CSV text by the per-row formula: header, column names, then
    repr(x), repr(value) for each grid point."""
    lines = [f"{gf.kind},{gf.a!r},{gf.b!r},{gf.size}", "x,value"]
    lines += [f"{float(x)!r},{float(v)!r}" for x, v in zip(gf.grid, gf.values)]
    return "\n".join(lines) + "\n"


def edge_values(g: int) -> np.ndarray:
    rng = np.random.default_rng(g)
    vals = rng.standard_normal(g) * 10.0 ** rng.integers(-300, 300, g)
    vals[: len(EDGE_VALUES)] = EDGE_VALUES
    return vals


@pytest.mark.parametrize(
    "gf",
    [
        GridFunction.on_interval(-32.0, 96.0, edge_values(64)),
        GridFunction.on_interval(0.1, 0.30000000000000004, edge_values(16)),
        GridFunction.on_circle(edge_values(32)),
    ],
    ids=["interval", "interval-inexact-ends", "circle"],
)
def test_csv_bytes_match_the_per_row_formula(tmp_path, gf):
    path = tmp_path / "grid.csv"
    write_csv(gf, path)
    assert path.read_text(encoding="ascii") == golden_csv(gf)
    rows = path.read_text(encoding="ascii").splitlines()[2:]
    x = np.array([float(row.split(",")[0]) for row in rows])
    assert np.array_equal(x.view(np.int64), gf.grid.view(np.int64))  # bit for bit


def test_csv_row_template_keys_on_the_whole_grid(tmp_path):
    # each write must follow its own grid and values, whatever the writes
    # before it left cached
    g = 32
    b_next = np.nextafter(2.5, np.inf)
    grids = [
        GridFunction.on_interval(-0.5, 2.5, edge_values(g)),
        GridFunction.on_interval(-0.5, b_next, edge_values(g)),
        GridFunction.on_interval(-0.5, 2.5, np.arange(g) / 7.0),  # A again, new values
        GridFunction.on_circle(edge_values(g)),
        GridFunction.on_interval(-0.0, 1.0, edge_values(g)),
        GridFunction.on_interval(0.0, 1.0, edge_values(g)),
    ]
    texts = []
    for i, gf in enumerate(grids):
        path = tmp_path / f"{i}.csv"
        write_csv(gf, path)
        texts.append(path.read_text(encoding="ascii"))
        assert texts[-1] == golden_csv(gf)
    # the last bit of b moves some cell centres, so a template keyed on
    # less than the whole window would write a wrong x column
    assert not np.array_equal(grids[0].grid, grids[1].grid)


@pytest.mark.parametrize(
    "row, fields",
    [("0.5", 1), ("0.5,1.0,2.0", 3)],
    ids=["no-comma", "three-fields"],
)
def test_read_csv_rejects_malformed_rows(tmp_path, row, fields):
    path = tmp_path / "bad.csv"
    path.write_text(f"interval,0.0,1.0,2\nx,value\n0.25,1.0\n{row}\n", encoding="ascii")
    with pytest.raises(ValueError, match=f"line 4: expected 2 fields .*found {fields}"):
        read_csv(path)

"""Per-direction reduction of a multivariate moment problem to the line.

For a direction y in the open positive orthant, the measure pushed forward
along x -> x . y is one-dimensional; its power moments are weighted sums of
the multivariate moments.  Each ray then runs the full 1-D machinery: phase
moments by the triangular log map, a bounded phase profile by maximum
entropy, and a hyperplane-integral (Radon) slice by composing the boundary
average with one more Hilbert transform.  Rays are independent; the sweep
runs them one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditioning import MultiMoments, PowerMoments, Support, _multinomial, condition_line
from .maxent import DualSolution, density_on, solve_power_moments
from .transform import GridFunction, cauchy_boundary_avg, hilbert_line

__all__ = [
    "RayDirection",
    "RaySlice",
    "pushforward_moments",
    "ray_phase_moments",
    "support_cutoff",
    "reconstruct_ray",
    "radon_slice",
    "ray_sweep",
]


@dataclass(frozen=True)
class RayDirection:
    """A direction strictly inside the positive orthant."""

    components: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.components) < 1 or not all(0 < c < math.inf for c in self.components):
            raise ValueError(f"direction components must be positive and finite: {self.components}")

    @classmethod
    def of(cls, y) -> "RayDirection":
        return cls(tuple(float(c) for c in np.asarray(y, dtype=float)))

    @property
    def dimension(self) -> int:
        return len(self.components)


@dataclass
class RaySlice:
    """Everything computed along one ray."""

    direction: RayDirection
    pushforward: np.ndarray  # m_0..m_n of the projected measure
    phase_moments: np.ndarray  # c_0..c_n of the bounded phase
    cutoff: float  # phase support truncated to [0, cutoff]
    phase_grid: GridFunction  # phase profile on the slice window
    radon_values: GridFunction  # hyperplane-integral slice on the same window
    solution: DualSolution

    def summary(self) -> dict:
        return {
            "direction": list(self.direction.components),
            "pushforward_moments": [float(v) for v in self.pushforward],
            "phase_moments": [float(v) for v in self.phase_moments],
            "cutoff": float(self.cutoff),
            "solver": self.solution.report(),
        }


def pushforward_moments(gamma: MultiMoments, y: RayDirection) -> np.ndarray:
    """Power moments m_0..m_n of the projection x -> x . y, n = gamma.order.

    m_k = integral (x . y)^k dmu = k! sum_{|alpha|=k} (y^alpha / alpha!)
    gamma_alpha, by the multinomial theorem.
    """
    if y.dimension != gamma.dimension:
        raise ValueError("direction dimension does not match the moments")
    values = gamma.real_values()
    comps = np.asarray(y.components)
    out = np.zeros(gamma.order + 1)
    for pos, alpha in enumerate(gamma.indices):
        out[sum(alpha)] += _multinomial(alpha) * np.prod(comps ** np.asarray(alpha)) * values[pos]
    return out


def ray_phase_moments(m: np.ndarray) -> np.ndarray:
    """Phase moments c_0..c_n from push-forward moments m_0..m_n.

    The line conditioning of the push-forward measure: the asymptotic identity
    1 - sum m_k z^-(k+1) = exp(- sum c_j z^-(j+1)) makes the c_j the
    coefficients of the truncated -log(1 - .) of the moment sum.  In
    particular c_0 = m_0: the zeroth phase moment is the total mass, for
    every direction.
    """
    return condition_line(PowerMoments(m, Support.half_line())).values


def support_cutoff(c: np.ndarray, span: float = 1.0) -> float:
    """Truncation point T for a phase bounded by one with moments c.

    A [0, 1]-valued profile of mass c_0 and mean c_1/c_0 cannot end before
    mean + c_0/2 (a block of height one is the most compact arrangement);
    `span` standard deviations are added on top.  Tight windows matter: the
    dual ascent slows badly when most quadrature nodes sit where the phase
    vanishes.
    """
    c = np.asarray(c, dtype=float)
    if c.size < 3:
        raise ValueError("need c_0..c_2 to place the cutoff")
    mean = c[1] / c[0]
    var = max(c[2] / c[0] - mean * mean, 0.0)
    return float(mean + c[0] / 2 + span * math.sqrt(var))


def reconstruct_ray(
    gamma: MultiMoments,
    y: RayDirection,
    window: tuple[float, float] | None = None,
    grid_size: int = 2048,
    span: float = 1.0,
    node_count: int = 301,
    tol: float = 1e-7,
    max_sweeps: int = 500_000,
    delta: float = 1.0,
) -> RaySlice:
    """Run the full per-ray pipeline for one direction.

    The phase is reconstructed by maximum entropy on [0, T] with T from
    `support_cutoff`, then sampled onto a wide uniform window (default
    [-2T, 6T]) where the slice is evaluated; the window must comfortably
    exceed the phase support because the boundary-average trace decays only
    like 1/t and feeds a second Hilbert transform.
    """
    m = pushforward_moments(gamma, y)
    c = ray_phase_moments(m)
    cutoff = support_cutoff(c, span=span)
    sol = solve_power_moments(
        c,
        (0.0, cutoff),
        node_count=node_count,
        tol=tol,
        max_sweeps=max_sweeps,
        delta=delta,
    )
    if window is None:
        window = (-2.0 * cutoff, 6.0 * cutoff)
    grid = GridFunction.on_interval(window[0], window[1], np.zeros(grid_size))
    x = grid.grid
    inside = (x >= 0.0) & (x <= cutoff)
    xi = np.zeros(grid_size)
    xi[inside] = np.clip(density_on(sol, x[inside]), 0.0, 1.0)
    phase = grid.with_values(xi)
    slice_ = radon_slice(phase)
    return RaySlice(y, m, c, cutoff, phase, slice_, sol)


def radon_slice(xi_star: GridFunction) -> GridFunction:
    """Hyperplane-integral slice from a phase profile, on the same p0 grid.

    First the principal-value boundary trace f of the projected measure's
    transform (`cauchy_boundary_avg`), then R(p0) = -(1/pi) H f(p0): the
    slice function is, up to sign and pi, the Hilbert transform of its own
    transform's boundary average.  The phase must be compactly supported
    well inside the grid window so the decaying tails of f are captured.
    """
    f = cauchy_boundary_avg(xi_star)
    h = hilbert_line(f)
    return xi_star.with_values(-h.values / np.pi)


def ray_sweep(gamma: MultiMoments, directions, **ray_kwargs) -> list[RaySlice]:
    """Run `reconstruct_ray` over a direction list, one ray after another.

    Every direction is validated before the first ray runs; results are
    ordered by the input direction index.
    """
    dirs = [d if isinstance(d, RayDirection) else RayDirection.of(d) for d in directions]
    return [reconstruct_ray(gamma, d, **ray_kwargs) for d in dirs]

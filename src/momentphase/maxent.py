"""Discretized maximum-entropy reconstruction by damped Newton descent.

The density is an exponential family p_j = exp[(A^T alpha)_j - 1] on a fixed
quadrature; moments are matrix products against the weighted density.  The
rows are first remapped affinely into (0, 1), and targets that no density
on the quadrature can reach are refused; damped Newton steps on the convex
dual then solve the problem within a budget of steps.  A solve converges
only when the moment residual is below tolerance on the quadrature and on a
rule with one more node, so a spike on quadrature nodes never passes for a
density.  Every solve names
why it stopped.  Non-convergence is a meaningful outcome, not an error:
moment sequences of singular measures admit no exponential-family density,
the dual then has no minimiser, and Newton stops on them within a few
dozen steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "Quadrature",
    "BasisMatrix",
    "DualSolution",
    "build_quadrature",
    "monomial_basis",
    "legendre_basis",
    "legendre_coefficients",
    "trig_basis",
    "precondition",
    "primal_eval",
    "constraint_residual",
    "fime_solve",
    "solve_power_moments",
    "solve_trig_moments",
    "circle_quadrature",
    "density_on",
    "monomial_dual",
]

EXP_CLAMP = 700.0  # exp() overflows just above this for float64
ARMIJO_FRACTION = 1e-4  # share of the predicted decrease a Newton step must achieve
MAX_HALVINGS = 50  # step halvings before the line search gives up


@dataclass
class Quadrature:
    """Integration nodes and positive weights on an interval."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.nodes.ndim != 1 or self.nodes.shape != self.weights.shape:
            raise ValueError("nodes and weights must be matching 1-D arrays")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")


@lru_cache(maxsize=8)
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1].

    `leggauss` solves an eigenvalue problem; every interval of the same
    node count shares its one solution.
    """
    x, w = np.polynomial.legendre.leggauss(count)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def build_quadrature(a: float, b: float, count: int) -> Quadrature:
    """Gauss-Legendre rule of `count` nodes mapped to [a, b]."""
    if count < 2:
        raise ValueError("need at least two nodes")
    if b <= a:
        raise ValueError("interval must have positive length")
    x, w = _gauss_legendre(count)
    nodes = 0.5 * (b - a) * x + 0.5 * (a + b)
    weights = 0.5 * (b - a) * w
    return Quadrature(nodes, weights, (float(a), float(b)))


@dataclass
class BasisMatrix:
    """Row i holds basis function T_i evaluated at every quadrature node.

    Row 0 is always the constant function carrying the mass constraint.
    `order` is the polynomial degree or the highest trigonometric mode; the
    rows themselves come from `rows_at`, at the quadrature nodes for
    `values` and at any points for sampling the density.
    """

    kind: str  # "monomial" | "legendre" | "trigonometric"
    quadrature: Quadrature
    order: int
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.values = self.rows_at(self.quadrature.nodes)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def rows_at(self, points: np.ndarray) -> np.ndarray:
        """Basis rows evaluated at arbitrary points.

        Legendre rows come from numpy's three-term recurrence (`legvander`)
        on the points mapped to [-1, 1], which stays accurate on intervals
        far from the origin, where expanding in monomials first cancels.
        """
        points = np.asarray(points, dtype=float)
        if self.kind == "monomial":
            return np.vander(points, N=self.order + 1, increasing=True).T
        if self.kind == "legendre":
            a, b = self.quadrature.interval
            mapped = (2.0 * points - a - b) / (b - a)
            return np.polynomial.legendre.legvander(mapped, self.order).T
        # trigonometric: rows 1, cos(k.), sin(k.) for k = 1..order
        rows = [np.ones_like(points)]
        for k in range(1, self.order + 1):
            rows.append(np.cos(k * points))
            rows.append(np.sin(k * points))
        return np.vstack(rows)


def monomial_basis(quad: Quadrature, order: int) -> BasisMatrix:
    """Rows 1, x, ..., x^order at the quadrature nodes."""
    return BasisMatrix("monomial", quad, order)


def legendre_basis(quad: Quadrature, order: int) -> BasisMatrix:
    """Legendre polynomials shifted to the quadrature interval.

    Spans the same space as the monomials, so the maximum-entropy density is
    unchanged, but the near-orthogonal rows keep the dual well conditioned
    on moment problems that are hopeless in the raw monomial frame.  The
    rows are evaluated by recurrence (`rows_at`); `legendre_coefficients`
    gives them in the monomial frame.
    """
    return BasisMatrix("legendre", quad, order)


def legendre_coefficients(order: int, interval: tuple[float, float]) -> np.ndarray:
    """Row i holds the monomial coefficients of the shifted Legendre
    polynomial T_i on `interval`.

    Maps power moments to Legendre targets (C @ mu) and a Legendre dual to
    its monomial view (C^T @ alpha).  The composition is floating point, so
    targets inherit its rounding, which grows with the order.
    """
    a, b = interval
    rows = np.zeros((order + 1, order + 1))
    affine = np.polynomial.Polynomial([-(b + a) / (b - a), 2.0 / (b - a)])
    for i in range(order + 1):
        leg = np.zeros(i + 1)
        leg[i] = 1.0
        poly = np.polynomial.Polynomial(np.polynomial.legendre.leg2poly(leg))(affine)
        rows[i, : poly.coef.size] = poly.coef
    return rows


def trig_basis(quad: Quadrature, max_mode: int) -> BasisMatrix:
    """Rows 1, cos(k.), sin(k.) for k = 1..max_mode."""
    return BasisMatrix("trigonometric", quad, max_mode)


def circle_quadrature(count: int) -> Quadrature:
    """Uniform grid on [-pi, pi); the trapezoid rule is exact for trig modes."""
    nodes = -np.pi + 2 * np.pi * np.arange(count) / count
    weights = np.full(count, 2 * np.pi / count)
    return Quadrature(nodes, weights, (-np.pi, np.pi))


def precondition(
    a: np.ndarray, mu: np.ndarray, delta: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Affine remap of rows into (0, 1): returns (a', mu', t, u).

    u_i = -min_j a_ij + delta,  M_i = max_j (u_i + a_ij),  t_i = 1/(M_i+delta),
    a'_ij = t_i (u_i + a_ij),   mu'_i = t_i (u_i + mu_i).

    A density solving the conditioned problem solves the original one: the
    remap is affine, the constant row absorbs the offsets, and t and u
    unwind a dual of the remapped rows.  Newton needs neither positive
    rows nor positive targets.  With mu normalized so that the mass entry
    is one, the other entries are means of basis functions, so mu'_i <= 0
    puts target i delta or more below every value row i takes on the
    quadrature, where no density matches it; such targets are refused.
    Newton's method is affine-invariant only in exact arithmetic: on the
    raw Legendre rows, some atoms on an interval support whose solves stop
    unconverged here instead pass both residual rules with a spike between
    the nodes.
    """
    a = np.asarray(a, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not np.all(a.any(axis=1)):
        raise ValueError("a basis row is identically zero")
    u = -a.min(axis=1) + delta
    m = (a + u[:, None]).max(axis=1)
    t = 1.0 / (m + delta)
    a_prime = t[:, None] * (a + u[:, None])
    mu_prime = t * (u + mu)
    if np.any(mu_prime <= 0):
        raise ValueError("targets lie outside the range the basis rows take on the quadrature")
    return a_prime, mu_prime, t, u


@dataclass
class DualSolution:
    """Converged (or stopped) dual variables of a maxent problem.

    `alpha` is expressed against the rows of `basis`, already unwound from
    the preconditioned frame, so `primal_eval(alpha, basis)` is the density
    matching the original, unnormalized moments.  `stop_reason` is one of
    "converged", "check_rule", "line_search", "singular_hessian" and
    "max_iter" (see `fime_solve`).
    """

    alpha: np.ndarray
    iterations: int
    residual_norm: float
    basis: BasisMatrix
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    def report(self) -> dict:
        return {
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "iterations": int(self.iterations),
            "residual_norm": float(self.residual_norm),
            "alpha": [float(v) for v in self.alpha],
        }


def _clamped_exp(s: np.ndarray) -> tuple[np.ndarray, bool]:
    """exp(s) with exponents clamped at EXP_CLAMP, and whether the clamp fired.

    The clamp keeps runaway duals finite; below it the values are exp(s)
    exactly.
    """
    clipped = bool((s > EXP_CLAMP).any())
    return np.exp(np.minimum(s, EXP_CLAMP) if clipped else s), clipped


def primal_eval(
    alpha: np.ndarray, basis: BasisMatrix
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Density p_j = exp[(A^T alpha)_j - 1] and its weighted version.

    Exponents are clamped at EXP_CLAMP; the returned flag reports whether
    clamping fired.
    """
    p, clipped = _clamped_exp(basis.values.T @ np.asarray(alpha, dtype=float) - 1.0)
    return basis.quadrature.weights * p, p, clipped


def constraint_residual(
    alpha: np.ndarray, basis: BasisMatrix, mu: np.ndarray
) -> tuple[np.ndarray, float]:
    """Moment mismatch h_i = moment_i(alpha) - mu_i and its Euclidean norm."""
    ptilde, _, _ = primal_eval(alpha, basis)
    h = basis.values @ ptilde - np.asarray(mu, dtype=float)
    return h, float(np.linalg.norm(h))


def _check_residual(alpha: np.ndarray, basis: BasisMatrix, mu: np.ndarray) -> float:
    """Moment mismatch of the density of `alpha` on a rule with one more node.

    Gauss-Legendre with one more node on the same interval, or a uniform
    circle grid with one more point for the trigonometric basis.  A real
    density integrates alike on both rules; a spike on solver nodes does
    not, because the new rule's nodes fall between the old ones.
    """
    quad = basis.quadrature
    count = quad.nodes.size + 1
    if basis.kind == "trigonometric":
        check = circle_quadrature(count)
    else:
        check = build_quadrature(quad.interval[0], quad.interval[1], count)
    return constraint_residual(alpha, BasisMatrix(basis.kind, check, basis.order), mu)[1]


def fime_solve(
    basis: BasisMatrix,
    mu: np.ndarray,
    tol: float = 1e-10,
    max_sweeps: int = 100_000,
    delta: float = 1.0,
) -> DualSolution:
    """Damped Newton descent of the preconditioned maxent dual.

    The name is that of the cyclic coordinate ascent (FIME) this solver
    replaced; it stays because the benchmark's tracer times it by name.

    On the preconditioned problem, D(a) = sum_j w_j exp((A'^T a)_j - 1) -
    a . mu' has gradient A' (w p) - mu' and Hessian A' diag(w p) A'^T.
    Starting at the origin, each step is halved until it meets the Armijo
    condition; a trial point that fires the exponent clamp, or moves an
    exponent by more than EXP_CLAMP, fails it, so accepted points never
    clamp.  `max_sweeps` (at least one) is the budget of accepted steps.

    The stopping rule is the unconditioned residual |A ptilde - mu| < tol,
    measured on the caller's original moment scale, on the basis's own
    quadrature and again on a rule with one more node (`_check_residual`),
    which refuses a spike on a few quadrature nodes.  The solve ends with
    `stop_reason` "converged" when both rules pass; otherwise with
    "line_search" (no halving accepted), "singular_hessian" (a singular
    Hessian or a non-finite step) or "max_iter" (budget spent), each
    replaced by "check_rule" if the main rule passes there and the check
    rule does not.  Not converging returns, it does not raise: that is how
    infeasible (singular-measure) inputs manifest.  The reported residual
    is the main-rule value of the returned dual.

    Moments are normalized by the mass entry mu_0 internally; the returned
    alpha is mapped back to the caller's basis rows and scale.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.size != basis.n_rows:
        raise ValueError("moment vector must match basis rows")
    if mu[0] <= 0:
        raise ValueError("mass entry mu_0 must be positive")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    mu0 = mu[0]
    a_prime, mu_prime, factors, offsets = precondition(basis.values, mu / mu0, delta)
    weights = basis.quadrature.weights

    alpha = np.zeros(mu_prime.size)
    s = np.zeros(weights.size)  # exponents A'^T alpha
    wp = weights * np.exp(-1.0)
    steps = 0
    while True:
        # unwind the affine preconditioning and the mass normalization:
        # (A'^T a)_j = sum_i t_i a_i a_ij + sum_i t_i u_i a_i, and scaling
        # the density by mu0 shifts the constant-row dual by log(mu0)
        native = factors * alpha
        native[0] += float(np.sum(alpha * factors * offsets)) + np.log(mu0)
        _, res_norm = constraint_residual(native, basis, mu)
        if res_norm < tol and _check_residual(native, basis, mu) < tol:
            reason = "converged"
            break
        if steps == max_sweeps:
            reason = "max_iter"
            break
        grad = a_prime @ wp - mu_prime
        try:
            step = -np.linalg.solve((a_prime * wp) @ a_prime.T, grad)
            singular = not np.all(np.isfinite(step))
        except np.linalg.LinAlgError:
            singular = True
        if singular:
            reason = "singular_hessian"
            break
        ds = a_prime.T @ step
        slope = float(grad @ step)
        t = 1.0
        for _ in range(MAX_HALVINGS):
            shift = t * ds
            exponent = s + shift - 1.0
            # D(alpha + t step) - D(alpha), by expm1 so that a decrease far
            # below the size of D itself still resolves
            if exponent.max() <= EXP_CLAMP and shift.max() <= EXP_CLAMP:
                change = float(wp @ np.expm1(shift)) - t * float(step @ mu_prime)
                if change <= ARMIJO_FRACTION * t * slope:
                    break
            t *= 0.5
        else:
            reason = "line_search"
            break
        alpha = alpha + t * step
        s = s + t * ds
        wp = weights * np.exp(exponent)
        steps += 1
    if reason != "converged" and res_norm < tol:
        reason = "check_rule"
    return DualSolution(native, steps, res_norm, basis, reason)


def solve_power_moments(
    mu: np.ndarray,
    interval: tuple[float, float],
    node_count: int = 301,
    tol: float = 1e-8,
    max_sweeps: int = 500_000,
    delta: float = 1.0,
) -> DualSolution:
    """Maxent density on an interval matching power moments mu_0..mu_N.

    The solve runs in the shifted-Legendre frame: the targets are
    mu_leg = C mu with C from `legendre_coefficients`, the density is
    unchanged, and the near-orthogonal rows keep the Newton systems far
    better conditioned than raw monomial rows.  C mu is computed in floating
    point, and its rounding grows geometrically with the order (ROADMAP
    item 2 proposes exact targets).  The returned solution lives in that frame
    (alpha, basis, residual all consistent); use `monomial_dual` for the polynomial
    coefficients of log density + 1, and `constraint_residual` against a
    `monomial_basis` to measure the mismatch on the original moment scale.
    """
    mu = np.asarray(mu, dtype=float)
    order = mu.size - 1
    quad = build_quadrature(interval[0], interval[1], node_count)
    basis = legendre_basis(quad, order)
    mu_leg = legendre_coefficients(order, quad.interval) @ mu
    return fime_solve(basis, mu_leg, tol=tol, max_sweeps=max_sweeps, delta=delta)


def monomial_dual(solution: DualSolution) -> np.ndarray:
    """Dual variables re-expressed against monomial rows 1, x, x^2, ..."""
    if solution.basis.kind == "monomial":
        return solution.alpha.copy()
    if solution.basis.kind == "legendre":
        basis = solution.basis
        return legendre_coefficients(basis.order, basis.quadrature.interval).T @ solution.alpha
    raise ValueError("no monomial view of a trigonometric dual")


def solve_trig_moments(
    tau_phi: np.ndarray,
    node_count: int = 1024,
    tol: float = 1e-8,
    max_sweeps: int = 500_000,
    delta: float = 1.0,
) -> DualSolution:
    """Maxent density on the circle matching trigonometric moments.

    tau_phi holds complex moments tau(0)..tau(M) with
    tau(k) = (1/2pi) integral exp(-ik theta) phi(theta) dtheta; the real
    constraint vector pairs cosine and sine moments mode by mode.
    """
    tau = np.asarray(tau_phi, dtype=complex)
    m = tau.size - 1
    quad = circle_quadrature(node_count)
    basis = trig_basis(quad, m)
    mu = np.empty(2 * m + 1)
    mu[0] = 2 * np.pi * tau[0].real
    for k in range(1, m + 1):
        mu[2 * k - 1] = 2 * np.pi * tau[k].real
        mu[2 * k] = -2 * np.pi * tau[k].imag
    return fime_solve(basis, mu, tol=tol, max_sweeps=max_sweeps, delta=delta)


def density_on(solution: DualSolution, points: np.ndarray) -> np.ndarray:
    """Evaluate the solved density at arbitrary points of its domain."""
    rows = solution.basis.rows_at(np.asarray(points, dtype=float))
    return _clamped_exp(rows.T @ solution.alpha - 1.0)[0]

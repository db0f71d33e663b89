"""Moment conditioning: from a measure's moments to its phase function's.

A positive measure whose generating transform G satisfies 1 + G = exp(of the
phase transform) has phase moments obtained from a truncated logarithm of its
own moment series.  The maps here are triangular (output n depends on inputs
0..n only) and exact on the truncation, which is what makes them usable on
finite moment data.  Also here: Hankel feasibility checks, one-step min/max
moment extensions, and the recurrence generating all moments of an
exponential-polynomial weight from its leading ones.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .series import FormalSeries, series_log

__all__ = [
    "Support",
    "PowerMoments",
    "TrigMoments",
    "MultiMoments",
    "Feasibility",
    "condition_line",
    "condition_circle",
    "condition_polydisk",
    "hankel_feasibility",
    "hankel_matrices",
    "min_extension",
    "max_extension",
    "extend_exp_weight",
    "moments_to_json",
    "moments_from_json",
]

IMAG_TOL = 1e-10  # tolerated imaginary leakage when a real pipeline crosses a boundary
HANKEL_REL_TOL = 1e-10  # Hankel eigenvalues within this times max|gamma| of 0 are on the boundary

# Cutoffs on the size of a moments file, checked before any array of that size
# exists.  Costs on a shared 2-core host: the Legendre basis takes 0.25 s at
# order 64 and 0.6 s at order 100; polydisk conditioning takes 0.43 s at 861
# coefficients and 1.0 s at 1,820.  The count is N + 1 for power and trig
# moments, C(d + n, d) for multi, so at any order above 0 a dimension over
# MAX_COEFFICIENTS - 1 is already over the count; the dimension bound adds
# order 0, whose one coefficient would still need an index of d entries.
MAX_ORDER = 64
MAX_COEFFICIENTS = 1000
MAX_DIMENSION = MAX_COEFFICIENTS - 1


@dataclass(frozen=True)
class Support:
    """Support tag for 1-D power moments: the half line or an interval."""

    kind: str  # "half_line" | "interval"
    bounds: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("half_line", "interval"):
            raise ValueError(f"unknown support kind {self.kind!r}")
        if self.kind == "interval":
            if self.bounds is None or not -math.inf < self.bounds[0] < self.bounds[1] < math.inf:
                raise ValueError(f"interval support needs finite bounds a < b, got {self.bounds}")
        elif self.bounds is not None:
            raise ValueError("half_line support takes no bounds")

    @classmethod
    def half_line(cls) -> "Support":
        return cls("half_line")

    @classmethod
    def interval(cls, a: float, b: float) -> "Support":
        return cls("interval", (float(a), float(b)))


@dataclass
class PowerMoments:
    """Real power moments gamma_0..gamma_N of a 1-D positive measure."""

    values: np.ndarray
    support: Support

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("moment sequence must be a non-empty 1-D array")

    @property
    def order(self) -> int:
        return self.values.size - 1


@dataclass
class TrigMoments:
    """Complex trigonometric moments tau(0)..tau(M); tau(-k) = conj(tau(k))."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("moment sequence must be a non-empty 1-D array")

    @property
    def order(self) -> int:
        return self.values.size - 1


class MultiMoments(FormalSeries):
    """Moments gamma_alpha, |alpha| <= order, of a measure on R^d.

    The formal series sum_alpha gamma_alpha x^alpha: stored densely over
    ``graded_indices(dimension, order)``, with `values` naming its
    coefficients.  Measure moments are real; the container is complex
    because conditioned phase moments (which reuse it) are genuinely complex.
    """

    @property
    def values(self) -> np.ndarray:
        return self.coeff

    @property
    def total_mass(self) -> float:
        return float(self.values[0].real)

    def real_values(self) -> np.ndarray:
        scale = max(1.0, np.abs(self.values).max())
        if np.abs(self.values.imag).max() > IMAG_TOL * scale:
            raise ValueError("moments carry a non-negligible imaginary part")
        return self.values.real.copy()


class Feasibility(enum.Enum):
    FEASIBLE_INTERIOR = "feasible_interior"
    BOUNDARY = "boundary"
    INFEASIBLE = "infeasible"


# ----------------------------------------------------------------------------
# conditioning transforms
# ----------------------------------------------------------------------------


def condition_line(a_mu: PowerMoments) -> PowerMoments:
    """Phase moments of a measure on the line from its power moments.

    The phase function phi takes values in [0, 1] and satisfies
    1 + Cmu = exp(Cphi) for the Cauchy transforms; expanding the logarithm at
    infinity turns the measure moments a_mu(0..N) into the phase moments
    a_phi(0..N).  In the variable u = 1/z the moment sum
    S = sum gamma_n u^(n+1) has zero free term and a_phi(n) is the
    coefficient of u^(n+1) in -log(1 - S), so the series runs to order N+1
    (a pure point mass at the origin needs exactly that last term).

    The phase of a positive measure lives on the half line and is bounded by
    one, so the output support tag is half_line.
    """
    values = np.asarray(a_mu.values, dtype=float)
    if values[0] <= 0:
        raise ValueError("total mass gamma_0 must be positive")
    b = FormalSeries.constant(1, values.size, 1.0)
    b.coeff[1:] = -values
    # a real series has a real logarithm, so .real drops only zeros
    return PowerMoments(-_finite_log(b).coeff[1:].real, Support.half_line())


def condition_circle(tau_mu: TrigMoments) -> TrigMoments:
    """Phase moments of a measure on the circle from its trigonometric moments.

    With hat_tau(n) = tau(n)/tau(0) and B(z) = 1 + sum_{n>=1} hat_tau(n) z^n,
    the phase moments are the coefficients of the truncated log(B) / 2i: the
    d = 1 case of `condition_polydisk`.  tau_phi(0) = pi/2 independently of
    the input (the mean of the phase over the circle is fixed by the
    normalization of the exponential representation).
    """
    tau0 = tau_mu.values[0]
    if abs(tau0.imag) > IMAG_TOL * max(1.0, abs(tau0)):
        raise ValueError("tau(0) must be real for a positive measure")
    if tau0.real <= 0:
        raise ValueError("tau(0) must be positive")
    return TrigMoments(condition_polydisk(MultiMoments(1, tau_mu.order, tau_mu.values)).values)


def condition_polydisk(a_mu: MultiMoments) -> MultiMoments:
    """Phase moments on the torus from multivariate moments on the l1 ball.

    Forms the normalized generating series
    B(z) = sum_alpha (|alpha|!/alpha!) a_mu(alpha) z^alpha / mass (free term
    one), takes the truncated logarithm and divides by 2i.  The mean value is
    pi/2 at the zero index, matching the circle normalization.
    """
    mass = a_mu.total_mass
    if mass <= 0:
        raise ValueError("total mass must be positive")
    d, n = a_mu.dimension, a_mu.order
    b = FormalSeries.constant(d, n, 1.0)
    gamma = a_mu.values
    for pos, alpha in enumerate(a_mu.indices[1:], start=1):
        b.coeff[pos] = _multinomial(alpha) * gamma[pos] / mass
    out = _finite_log(b).coeff / 2j
    out[0] = np.pi / 2
    return MultiMoments(d, n, out)


def _finite_log(b: FormalSeries) -> FormalSeries:
    """`series_log(b)`, refusing a logarithm that overflowed: moments so
    large that their phase moments leave the floating-point range are no
    input any later step could use."""
    out = series_log(b)
    if not np.all(np.isfinite(out.coeff)):
        raise ValueError("conditioned moments overflow the floating-point range")
    return out


def _multinomial(alpha: tuple[int, ...]) -> int:
    """|alpha|! / alpha!, in exact integer arithmetic."""
    out = math.factorial(sum(alpha))
    for a in alpha:
        out //= math.factorial(a)
    return out


# ----------------------------------------------------------------------------
# feasibility and extensions
# ----------------------------------------------------------------------------


def hankel_matrices(gamma: PowerMoments) -> tuple[np.ndarray, np.ndarray]:
    """The two moment Hankel matrices formed from gamma_0..gamma_N.

    H1[i, j] = gamma_{i+j} and H2[i, j] = gamma_{i+j+1}, each as large as the
    data allows.  For data of length 2n these are the classical pair whose
    positivity characterizes solvable half-line problems.
    """
    g = np.asarray(gamma.values, dtype=float)
    i = np.arange((g.size + 1) // 2)
    j = np.arange(g.size // 2)
    return g[i[:, None] + i], g[j[:, None] + j + 1]


def hankel_feasibility(gamma: PowerMoments) -> Feasibility:
    """Classify a moment sequence by the spectra of its Hankel matrices.

    Both matrices positive definite (all eigenvalues above the scaled
    tolerance) means the data sits in the interior of the moment cone; any
    eigenvalue below minus the tolerance is infeasible; anything else is on
    the boundary (singular measures land here).
    """
    h1, h2 = hankel_matrices(gamma)
    tol = HANKEL_REL_TOL * max(1.0, np.abs(gamma.values).max())
    eigs = [np.linalg.eigvalsh(h) for h in (h1, h2) if h.size]
    min_eig = min(e.min() for e in eigs)
    if min_eig > tol:
        return Feasibility.FEASIBLE_INTERIOR
    if min_eig < -tol:
        return Feasibility.INFEASIBLE
    return Feasibility.BOUNDARY


def min_extension(gamma: PowerMoments) -> float:
    """Smallest feasible next moment for data gamma_0..gamma_{2n-1}.

    The value gamma~_{2n} that makes the (n+1) x (n+1) Hankel determinant
    vanish; by the Schur complement of the bordered matrix this is
    b^T A^{-1} b with A the leading n x n Hankel block and
    b = (gamma_n..gamma_{2n-1}).
    """
    g = np.asarray(gamma.values, dtype=float)
    if g.size % 2 != 0:
        raise ValueError("min_extension needs an even number of moments (gamma_0..gamma_{2n-1})")
    a, _ = hankel_matrices(gamma)
    b = g[g.size // 2 :]
    try:
        sol = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ValueError("leading Hankel block is singular") from exc
    return float(b @ sol)


def max_extension(gamma: PowerMoments, dual) -> float:
    """Largest next moment reachable by an exponential-family density.

    `dual` is a converged maxent solution whose constraints were
    gamma_0..gamma_{n-1}; the extension is the n-th moment of that density,
    evaluated on the solver's own quadrature.
    """
    if not dual.converged:
        raise ValueError("maxent dual has not converged; extension undefined")
    from .maxent import primal_eval  # local import to avoid cycle at import time

    n = gamma.values.size
    ptilde, _, _ = primal_eval(dual.alpha, dual.basis)
    nodes = dual.basis.quadrature.nodes
    return float(np.real(np.sum(nodes**n * ptilde)))


def extend_exp_weight(sigma, seed: PowerMoments, count: int) -> PowerMoments:
    """Extend moments of the density exp(P(x)) on [0, inf) by recurrence.

    For P(x) = sigma_0 + sigma_1 x + ... + sigma_n x^n with sigma_n < 0,
    integration by parts couples any n+1 consecutive moments:

        (k+1) gamma_k + sigma_1 gamma_{k+1} + 2 sigma_2 gamma_{k+2}
            + ... + n sigma_n gamma_{k+n} = 0.

    Given the first n moments the whole sequence follows; `count` further
    values are appended to the seed.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.size - 1
    if n < 1:
        raise ValueError("polynomial must have degree >= 1")
    if sigma[n] == 0:
        raise ValueError("leading coefficient must be nonzero")
    seed_vals = np.asarray(seed.values, dtype=float)
    if seed_vals.size != n:
        raise ValueError(f"seed must contain exactly {n} moments")
    out = np.empty(n + count)
    out[:n] = seed_vals
    for k in range(count):
        acc = (k + 1) * out[k]
        for i in range(1, n):
            acc += i * sigma[i] * out[k + i]
        out[k + n] = -acc / (n * sigma[n])
    return PowerMoments(out, seed.support)


# ----------------------------------------------------------------------------
# moment-file JSON schema
# ----------------------------------------------------------------------------


def moments_to_json(m) -> dict:
    """Serialize any of the three moment containers to the moment-file schema."""
    if isinstance(m, PowerMoments):
        support = (
            "half_line" if m.support.kind == "half_line" else list(m.support.bounds)
        )
        return {"kind": "power", "support": support, "values": m.values.tolist()}
    if isinstance(m, TrigMoments):
        return {
            "kind": "trig",
            "values": [[float(v.real), float(v.imag)] for v in m.values],
        }
    if isinstance(m, MultiMoments):
        entries = []
        for idx, v in zip(m.indices, m.values):
            if v != 0:
                entries.append([list(idx), float(v.real)])
        return {
            "kind": "multi",
            "dimension": m.dimension,
            "order": m.order,
            "values": entries,
        }
    raise TypeError(f"not a moment container: {type(m)!r}")


def moments_from_json(payload: dict):
    """Parse the moment-file schema back into a container.

    The size cutoffs are checked from each kind's header (or its list
    length) before any array of that size is built.
    """
    if not isinstance(payload, dict):
        raise ValueError("a moments file holds one JSON object")
    kind = payload.get("kind")
    if kind == "power":
        support = payload.get("support", "half_line")
        if support == "half_line":
            sup = Support.half_line()
        elif isinstance(support, list) and len(support) == 2:
            sup = Support.interval(float(support[0]), float(support[1]))
        else:
            raise ValueError(f'support must be "half_line" or [a, b], got {support!r}')
        _check_size(1, len(payload["values"]) - 1)
        moments = PowerMoments(np.asarray(payload["values"], dtype=float), sup)
    elif kind == "trig":
        raw = payload["values"]
        _check_size(1, len(raw) - 1)
        moments = TrigMoments(np.array([complex(re, im) for re, im in raw]))
    elif kind == "multi":
        d, order = payload["dimension"], payload["order"]
        if type(d) is not int or type(order) is not int:
            raise ValueError(f"dimension and order must be integers, got {d!r}, {order!r}")
        _check_size(d, order)
        values = payload["values"]
        entries = {tuple(idx): float(v) for idx, v in values}
        if len(entries) < len(values):
            raise ValueError("a multi-index is listed more than once")
        if not all(type(i) is int for idx in entries for i in idx):
            raise ValueError("multi-index components must be integers")
        if not entries:
            raise ValueError("empty moment sequence")
        moments = MultiMoments.from_dict(d, order, entries)
    else:
        raise ValueError(f"unknown moment kind {kind!r}")
    if not np.all(np.isfinite(moments.values)):
        raise ValueError("moment values must be finite")
    return moments


def _check_size(dimension: int, order: int) -> None:
    """Refuse a moment shape over the size cutoffs: a few bytes of header can
    name any dense length, so this runs before anything of that length exists."""
    if order < 0:
        raise ValueError("empty moment sequence")
    if not 1 <= dimension <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}], got {dimension}")
    if order > MAX_ORDER:
        raise ValueError(f"moment order {order} is over the cutoff {MAX_ORDER}")
    count = math.comb(dimension + order, dimension)
    if count > MAX_COEFFICIENTS:
        raise ValueError(f"{count} moment coefficients are over the cutoff {MAX_COEFFICIENTS}")

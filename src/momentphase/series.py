"""Truncated multivariate formal power series.

Coefficients live on the set of multi-indices of total degree <= N, stored
densely in graded-lexicographic order.  The operations exported here are
powers and the logarithm, both one graded Euler-operator recurrence run
over the cached product table (Miller's for powers, Brent & Kung's for the
logarithm), and the exponential.  The nonlinear maps between a measure's
moments and its phase function's moments are truncated log/exp expansions:
every conditioning transform in this package is one `series_log` of a
normalized moment series.  `series_exp` and `accumulate_powers`, the
weighted power sum, are built from repeated products and are the
references the recurrences are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import add

import numpy as np

__all__ = [
    "FormalSeries",
    "graded_indices",
    "series_pow",
    "series_log",
    "accumulate_powers",
    "series_exp",
]


@lru_cache(maxsize=None)
def graded_indices(dimension: int, order: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices with total degree <= order, graded-lex ordered.

    Graded ordering (degree first, descending lexicographic within a degree)
    is what the graded recurrences require: every coefficient of degree m
    depends only on coefficients of degree < m.  It also lists every lower
    truncation first.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    out: list[tuple[int, ...]] = []
    for total in range(order + 1):
        # the multisets of `total` coordinates, in lexicographic order, are
        # the exponents of that degree in descending lexicographic order
        for coords in combinations_with_replacement(range(dimension), total):
            alpha = [0] * dimension
            for i in coords:
                alpha[i] += 1
            out.append(tuple(alpha))
    return tuple(out)


@lru_cache(maxsize=None)
def _positions(dimension: int, order: int) -> dict[tuple[int, ...], int]:
    return {idx: pos for pos, idx in enumerate(graded_indices(dimension, order))}


@dataclass
class FormalSeries:
    """A power series truncated at total degree `order`.

    coeff[p] is the coefficient of x^alpha where alpha is the p-th entry of
    ``graded_indices(dimension, order)``.  Coefficients are complex
    throughout; callers with real data check imaginary parts at their own
    boundaries.
    """

    dimension: int
    order: int
    coeff: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n = len(graded_indices(self.dimension, self.order))
        self.coeff = np.asarray(self.coeff, dtype=complex)
        if self.coeff.shape != (n,):
            raise ValueError(
                f"coefficient array has shape {self.coeff.shape}, expected ({n},)"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, dimension: int, order: int) -> "FormalSeries":
        n = len(graded_indices(dimension, order))
        return cls(dimension, order, np.zeros(n, dtype=complex))

    @classmethod
    def constant(cls, dimension: int, order: int, value: complex) -> "FormalSeries":
        s = cls.zeros(dimension, order)
        s.coeff[0] = value
        return s

    @classmethod
    def from_dict(
        cls,
        dimension: int,
        order: int,
        entries: dict[tuple[int, ...], complex],
    ) -> "FormalSeries":
        s = cls.zeros(dimension, order)
        pos = _positions(dimension, order)
        for idx, val in entries.items():
            key = tuple(int(i) for i in idx)
            if len(key) != dimension or any(i < 0 for i in key):
                raise ValueError(f"bad multi-index {idx}")
            if sum(key) > order:
                raise ValueError(f"index {idx} exceeds truncation order {order}")
            s.coeff[pos[key]] = val
        return s

    # -- accessors ---------------------------------------------------------

    @property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        return graded_indices(self.dimension, self.order)

    @property
    def free_term(self) -> complex:
        return complex(self.coeff[0])

    def coefficient(self, index: tuple[int, ...]) -> complex:
        key = tuple(int(i) for i in index)
        if sum(key) > self.order:
            return 0.0 + 0.0j
        return complex(self.coeff[_positions(self.dimension, self.order)[key]])

    def copy(self) -> "FormalSeries":
        return FormalSeries(self.dimension, self.order, self.coeff.copy())

    def truncate(self, order: int) -> "FormalSeries":
        """Restriction to total degree <= order (order may not grow).

        Graded order lists every lower truncation first, so this is a copied
        prefix of the coefficients.
        """
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        n = len(graded_indices(self.dimension, order))
        return FormalSeries(self.dimension, order, self.coeff[:n].copy())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        self._check_compatible(other)
        return FormalSeries(self.dimension, self.order, self.coeff + other.coeff)

    def scale(self, factor: complex) -> "FormalSeries":
        return FormalSeries(self.dimension, self.order, self.coeff * factor)

    def multiply(self, other: "FormalSeries") -> "FormalSeries":
        """Truncated Cauchy product."""
        self._check_compatible(other)
        table = _product_table(self.dimension, self.order)
        out = FormalSeries.zeros(self.dimension, self.order)
        a, b = self.coeff, other.coeff
        nz_a = np.nonzero(a)[0]
        for pa in nz_a:
            pairs = table[pa]
            if pairs.size:
                np.add.at(out.coeff, pairs[:, 1], a[pa] * b[pairs[:, 0]])
        return out

    def _check_compatible(self, other: "FormalSeries") -> None:
        if (self.dimension, self.order) != (other.dimension, other.order):
            raise ValueError("series dimension/order mismatch")


@lru_cache(maxsize=None)
def _product_table(dimension: int, order: int) -> tuple[np.ndarray, ...]:
    """For each index position pa, the (pb, pc) pairs with alpha_a+alpha_b=alpha_c.

    The partners of an index of degree m are those of degree <= order - m:
    in graded order, the first C(dimension + order - m, dimension) indices.
    """
    idx = graded_indices(dimension, order)
    pos = _positions(dimension, order)
    table: list[np.ndarray] = []
    for ia in idx:
        partners = idx[: math.comb(dimension + order - sum(ia), dimension)]
        pairs = [(pb, pos[tuple(map(add, ia, ib))]) for pb, ib in enumerate(partners)]
        table.append(np.array(pairs, dtype=np.intp).reshape(-1, 2))
    return tuple(table)


def series_pow(a: FormalSeries, k: int) -> FormalSeries:
    """k-th power of a series with nonzero free term.

    J. C. P. Miller's recurrence in Euler-operator form (Knuth, TAOCP vol. 2,
    4.7): with theta as in `series_log`, B = A^k satisfies
    A theta B = k B theta A, and comparing coefficients gives

        b_0 = a_0^k,
        a_0 |mu| b_mu = sum_{0 < beta <= mu}
                        (k |mu| - (k+1) |mu-beta|) a_beta b_{mu-beta}.

    It runs like `series_log`: in graded order, once b_gamma is final its
    terms are pushed over the product table to every alpha = gamma + beta.
    Each coefficient only consumes lower-degree output coefficients, which
    is why truncated inputs give exact truncated outputs.
    """
    if k < 0:
        raise ValueError("exponent must be a non-negative integer")
    if a.free_term == 0:
        raise ValueError("free term must be nonzero")
    table = _product_table(a.dimension, a.order)
    degree = np.array([sum(idx) for idx in a.indices])
    out = FormalSeries.zeros(a.dimension, a.order)
    out.coeff[0] = a.free_term**k
    pending = np.zeros_like(out.coeff)  # the sum over beta, filled from below
    for p in range(len(out.coeff)):
        if p:
            out.coeff[p] = pending[p] / (degree[p] * a.free_term)
        pairs = table[p][1:]  # drops beta = 0, the first index
        if out.coeff[p] != 0 and pairs.size:
            weight = k * degree[pairs[:, 1]] - (k + 1) * degree[p]
            pending[pairs[:, 1]] += weight * out.coeff[p] * a.coeff[pairs[:, 0]]
    return out


def series_log(b: FormalSeries) -> FormalSeries:
    """Truncated log B for a series with free term exactly one.

    The Euler operator theta = sum_i x_i d/dx_i multiplies the coefficient
    of x^alpha by |alpha|, and theta B = B theta(log B).  Comparing
    coefficients gives the triangular recurrence (Brent & Kung, J. ACM 25
    (1978) 581)

        |alpha| L_alpha = |alpha| B_alpha
                          - sum_{0 < beta < alpha} |beta| L_beta B_{alpha-beta},

    run here in graded order: once L_beta is final, its terms are pushed to
    every higher-degree alpha = beta + gamma.  One pass over the product
    table replaces the N-1 full products of a power sum.
    """
    if b.free_term != 1:
        raise ValueError("free term must be one")
    table = _product_table(b.dimension, b.order)
    out = FormalSeries.zeros(b.dimension, b.order)
    pending = np.zeros_like(out.coeff)  # the sum over beta, filled from below
    for p, alpha in enumerate(b.indices[1:], start=1):
        degree = sum(alpha)
        out.coeff[p] = b.coeff[p] - pending[p] / degree
        pairs = table[p][1:]  # drops gamma = 0, the first index
        if out.coeff[p] != 0 and pairs.size:
            pending[pairs[:, 1]] += degree * out.coeff[p] * b.coeff[pairs[:, 0]]
    return out


def accumulate_powers(s: FormalSeries, weights) -> FormalSeries:
    """Weighted power sum sum_{k=1}^{K} w_k S^k, truncated.

    S must have zero free term, so S^k has minimal degree k and the sum is
    finite on any truncation.  With w_k = 1/k this is -log(1-S); with
    w_k = (-1)^(k+1)/k it is log(1+S).  No program path uses it: it is the
    independent reference `series_log` is tested against, built by repeated
    truncated multiplication.
    """
    if s.free_term != 0:
        raise ValueError("free term must be zero")
    weights = np.asarray(weights, dtype=complex)
    out = FormalSeries.zeros(s.dimension, s.order)
    if weights.size == 0:
        return out
    power = s.copy()
    out = out + power.scale(weights[0])
    for k in range(2, len(weights) + 1):
        if k > s.order:
            break  # S^k vanishes beyond the truncation
        power = power.multiply(s)
        out = out + power.scale(weights[k - 1])
    return out


def series_exp(s: FormalSeries) -> FormalSeries:
    """exp(S) = sum_{k=0}^{N} S^k / k! for S with zero free term."""
    if s.free_term != 0:
        raise ValueError("free term must be zero")
    out = FormalSeries.constant(s.dimension, s.order, 1.0)
    power = FormalSeries.constant(s.dimension, s.order, 1.0)
    for k in range(1, s.order + 1):
        power = power.multiply(s).scale(1.0 / k)
        out = out + power
    return out

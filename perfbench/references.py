"""Closed-form and brute-force references, written apart from the program.

Nothing here imports momentphase.  Every function computes what a correct
reconstruction must produce (moments, phase moments, densities, slices) from
the geometry of the measure alone, so a check that compares the program's
outputs against these catches faults in the program rather than restating it.

The three Hilbert-transform relations at the end are the boundary-limit
formulas of the method itself (density from phase, slice from phase); the
checks use them to tie each written density or slice to the phase written
next to it.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# truncated logarithms
# ---------------------------------------------------------------------------


def log1p_series(b: np.ndarray) -> np.ndarray:
    """Coefficients L_0..L_N of log(1 + sum_{n>=1} b_n z^n), with b_0 ignored.

    The Euler-operator recurrence n L_n = n b_n - sum_{k=1}^{n-1} k L_k b_{n-k}
    (from z L' (1 + B) = z B').
    """
    b = np.asarray(b)
    out = np.zeros_like(b)
    for n in range(1, b.size):
        acc = n * b[n]
        for k in range(1, n):
            acc -= k * out[k] * b[n - k]
        out[n] = acc / n
    return out


def dense_log1p(a: np.ndarray, order: int) -> np.ndarray:
    """Truncated log(1 + A) of a d-variate series held as a dense array.

    `a` has shape (order+1,)*d with a[0,...,0] = 0 and entries of total degree
    above `order` ignored.  Uses E log(1+A) = (E A) (1+A)^{-1} with E the
    Euler operator (multiplies the alpha coefficient by |alpha|); the
    reciprocal is a Horner loop of FFT products truncated to total degree
    `order`.
    """
    d = a.ndim
    shape = (2 * order + 1,) * d
    degree = total_degree(d, order)
    keep = degree <= order
    a = np.where(keep, a, 0.0)

    def times(x: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
        full = np.fft.irfftn(np.fft.rfftn(x, shape) * y_hat, shape)
        out = full[tuple(slice(0, order + 1) for _ in range(d))]
        return np.where(keep, out, 0.0)

    a_hat = np.fft.rfftn(a, shape)
    one = np.zeros_like(a)
    one[(0,) * d] = 1.0
    recip = one.copy()
    for _ in range(order):
        recip = one - times(recip, a_hat)
    euler_log = times(degree * a, np.fft.rfftn(recip, shape))
    out = np.zeros_like(a)
    np.divide(euler_log, degree, out=out, where=degree > 0)
    return out


# ---------------------------------------------------------------------------
# line: point masses and beta jumps
# ---------------------------------------------------------------------------


def point_mass_moments(x0: float, mass: float, order: int) -> list[float]:
    return [mass * x0**k for k in range(order + 1)]


def indicator_moments(lo: float, hi: float, order: int) -> np.ndarray:
    """Moments of the indicator of [lo, hi]: the phase of the mass hi-lo at lo."""
    k = np.arange(order + 1)
    return (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)


def beta_jump_moments(beta: float, order: int) -> list[float]:
    """Moments of sin(pi b)/pi ((1-x)/x)^b on [0, 1]: sin(pi b)/pi B(k+1-b, 1+b)."""
    c = math.sin(math.pi * beta) / math.pi
    return [
        c * math.exp(math.lgamma(k + 1 - beta) + math.lgamma(1 + beta) - math.lgamma(k + 2))
        for k in range(order + 1)
    ]


def beta_jump_phase_moments(beta: float, order: int) -> np.ndarray:
    """The phase of the beta jump is beta on [0, 1]: moments beta/(k+1)."""
    return beta / (np.arange(order + 1) + 1.0)


def beta_jump_density(beta: float, x: np.ndarray) -> np.ndarray:
    return math.sin(math.pi * beta) / math.pi * ((1.0 - x) / x) ** beta


# ---------------------------------------------------------------------------
# circle: Poisson-smoothed atoms
# ---------------------------------------------------------------------------


def poisson_trig_moments(atoms, order: int) -> np.ndarray:
    """tau(k) = (1/2pi) sum_j w_j r_j^k exp(-i k theta_j), k = 0..order.

    `atoms` holds (w, r, theta): an atom of mass w at theta smoothed by the
    Poisson kernel of radius r.
    """
    k = np.arange(order + 1)
    return sum(w * r**k * np.exp(-1j * k * th) for w, r, th in atoms) / (2 * np.pi)


def poisson_density(atoms, theta: np.ndarray) -> np.ndarray:
    return sum(
        w * (1 - r * r) / (1 - 2 * r * np.cos(theta - th) + r * r) for w, r, th in atoms
    ) / (2 * np.pi)


def circle_phase_moments(tau: np.ndarray) -> np.ndarray:
    """tau_phi(k) = -(i/2) [log(1 + sum_{n>=1} tau(n)/tau(0) z^n)]_k, tau_phi(0) = pi/2."""
    out = -0.5j * log1p_series(np.asarray(tau, dtype=complex) / tau[0].real)
    out[0] = np.pi / 2
    return out


# ---------------------------------------------------------------------------
# plane: uniform boxes seen along a ray
# ---------------------------------------------------------------------------


def box_moments(box, order: int) -> dict[tuple[int, int], float]:
    """Moments of mass w spread uniformly on [a1, b1] x [a2, b2]."""
    a1, b1, a2, b2, w = box
    out = {}
    for i in range(order + 1):
        mi = (b1 ** (i + 1) - a1 ** (i + 1)) / ((i + 1) * (b1 - a1))
        for j in range(order + 1 - i):
            mj = (b2 ** (j + 1) - a2 ** (j + 1)) / ((j + 1) * (b2 - a2))
            out[(i, j)] = w * mi * mj
    return out


def box_pushforward_moments(box, y, order: int) -> np.ndarray:
    """m_k = integral (x . y)^k dmu, expanded binomially over the two sides."""
    a1, b1, a2, b2, w = box
    u = [(b1 ** (j + 1) - a1 ** (j + 1)) / ((j + 1) * (b1 - a1)) for j in range(order + 1)]
    v = [(b2 ** (j + 1) - a2 ** (j + 1)) / ((j + 1) * (b2 - a2)) for j in range(order + 1)]
    return np.array(
        [
            w
            * sum(
                math.comb(k, j) * y[0] ** j * y[1] ** (k - j) * u[j] * v[k - j]
                for j in range(k + 1)
            )
            for k in range(order + 1)
        ]
    )


def line_phase_moments(m: np.ndarray) -> np.ndarray:
    """Phase moments c_n of moments m_n: sum c_n u^{n+1} = -log(1 - sum m_n u^{n+1})."""
    b = np.concatenate([[0.0], -np.asarray(m, dtype=float)])
    return -log1p_series(b)[1:]


def box_slice(box, y, p: np.ndarray, nodes: int = 4001) -> np.ndarray:
    """Hyperplane integrals of the box density over {x . y = p}, per unit p.

    Brute force: the density of x . y at p is the integral over x1 of the
    box density at x2 = (p - y1 x1)/y2, with Jacobian 1/y2, by the
    trapezoid rule on `nodes` points.
    """
    a1, b1, a2, b2, w = box
    t = np.linspace(a1, b1, nodes)
    x2 = (p[:, None] - y[0] * t[None, :]) / y[1]
    inside = ((x2 >= a2) & (x2 <= b2)).astype(float)
    h = t[1] - t[0]
    integral = h * (inside.sum(axis=1) - 0.5 * (inside[:, 0] + inside[:, -1]))
    return w / ((b1 - a1) * (b2 - a2)) * integral / y[1]


# ---------------------------------------------------------------------------
# polydisk: atoms in the l1 ball
# ---------------------------------------------------------------------------


def _log_factorials(dimension: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """log(|a|!) and log(a!) = sum_i log(a_i!) on the dense (order+1)^d grid."""
    table = np.array([math.lgamma(k + 1) for k in range(dimension * order + 1)])
    idx = np.indices((order + 1,) * dimension)
    return table[idx.sum(axis=0)], table[idx].sum(axis=0)


def total_degree(dimension: int, order: int) -> np.ndarray:
    return np.indices((order + 1,) * dimension).sum(axis=0)


def atom_moments(atoms, dimension: int, order: int) -> np.ndarray:
    """gamma[a] = sum_j w_j p_j^a for atoms (w_j, p_j), dense, zero above `order`."""
    out = np.zeros((order + 1,) * dimension)
    powers = np.arange(order + 1)
    for w, p in atoms:
        term = np.array(w, dtype=float)
        for c in p:
            term = np.multiply.outer(term, float(c) ** powers)
        out += term
    out[total_degree(dimension, order) > order] = 0.0
    return out


def polydisk_atom_phase(p, order: int) -> np.ndarray:
    """Single atom at p: phase moment (|a|-1)!/a! p^a / (2i), pi/2 at a = 0."""
    d = len(p)
    log_total, log_each = _log_factorials(d, order)
    degree = total_degree(d, order)
    coef = np.exp(log_total - log_each) / np.maximum(degree, 1)
    out = coef * atom_moments([(1.0, p)], d, order) / 2j
    out[(0,) * d] = np.pi / 2
    return out


def polydisk_phase(moments: np.ndarray, order: int) -> np.ndarray:
    """Phase moments log(B)/(2i) of B = sum |a|!/a! gamma_a z^a / mass, dense log."""
    d = moments.ndim
    log_total, log_each = _log_factorials(d, order)
    a = np.exp(log_total - log_each) * moments / moments[(0,) * d]
    a[(0,) * d] = 0.0
    out = dense_log1p(a, order) / 2j
    out[(0,) * d] = np.pi / 2
    return out


# ---------------------------------------------------------------------------
# boundary-limit relations of the method
# ---------------------------------------------------------------------------


def hilbert_cells(values: np.ndarray) -> np.ndarray:
    """(1/pi) PV integral f(t)/(t - x) dt at cell centres, f piecewise constant.

    Exact for the piecewise-constant interpolant of cell-centred samples on a
    uniform grid (zero outside it): weights (1/pi) log((m + 1/2)/(m - 1/2))
    at lag m, applied as one zero-padded FFT convolution of length 2G.
    """
    g = values.size
    lag = np.arange(1, g)
    k = np.log((lag + 0.5) / (lag - 0.5)) / np.pi
    kern = np.zeros(2 * g)
    kern[1:g] = -k
    kern[g + 1 :] = k[::-1]
    out = np.fft.irfft(np.fft.rfft(values, 2 * g) * np.fft.rfft(kern), 2 * g)
    return out[:g]


def hilbert_periodic(values: np.ndarray) -> np.ndarray:
    """Circle transform by the multiplier i sign(n); mean and Nyquist removed."""
    spec = np.fft.rfft(values)
    spec[0] = 0.0
    spec[1:] *= 1j
    spec[-1] = 0.0
    return np.fft.irfft(spec, values.size)


def line_density_from_phase(phi: np.ndarray) -> np.ndarray:
    """rho = (1/pi) exp(pi H phi) sin(pi phi), negative round-off clipped."""
    rho = np.exp(np.pi * hilbert_cells(phi)) * np.sin(np.pi * np.clip(phi, 0, 1)) / np.pi
    return np.maximum(rho, 0.0)


def circle_density_from_phase(phi: np.ndarray, tau0: float) -> np.ndarray:
    """rho = tau0 (2 exp(H phi) sin phi - 1), negative values clipped."""
    rho = tau0 * (2 * np.exp(hilbert_periodic(phi)) * np.sin(np.clip(phi, 0, np.pi)) - 1)
    return np.maximum(rho, 0.0)


def slice_from_phase(xi: np.ndarray) -> np.ndarray:
    """R = -(1/pi) H f with f = exp(pi H xi) cos(pi xi) - 1, the boundary average."""
    f = np.exp(np.pi * hilbert_cells(xi)) * np.cos(np.pi * np.clip(xi, 0, 1)) - 1.0
    return -hilbert_cells(f) / np.pi

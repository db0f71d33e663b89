"""FFT Hilbert transforms and pointwise density inversion.

The line transform here is H f(x) = (1/pi) PV integral f(t)/(t - x) dt, the
circle transform H f(theta) = (1/2pi) PV integral cot((sigma-theta)/2)
f(sigma) dsigma.  Both are convolutions evaluated by zero-padded FFT; on the
circle the Fourier multiplier i sign(n) is exact on the grid, on the line the
kernel is the analytic transform of an interpolant of the samples (see
`hilbert_line`).

Boundary-limit formulas turn a phase function back into a density.  The
exponent sign in those formulas is fixed once by PLEMELJ_EXP_SIGN and pinned
by a principal-value quadrature test: with the (t - x) kernel orientation
above, the interior and exterior limits of exp of the phase transform are
exp(pi H phi +/- i pi phi), so the reconstruction carries a plus sign.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GridFunction",
    "PLEMELJ_EXP_SIGN",
    "PhaseRangeError",
    "clip_phase",
    "hilbert_line",
    "hilbert_circle",
    "invert_line",
    "invert_circle",
    "cauchy_boundary_avg",
    "write_csv",
    "read_csv",
]

# Sign s of the exponent in rho = (1/pi) exp(s pi H phi) sin(pi phi) and its
# relatives.  +1 is forced by the distributional limit of 1/(t - x -+ i eps);
# tests/test_transform.py re-derives it from dense two-sided quadrature.
PLEMELJ_EXP_SIGN = 1.0

NEGATIVE_CLIP = -1e-8  # densities this slightly negative are zeroed silently
RANGE_TOL = 1e-6  # phase samples may leave their range by this much before inversion fails

# FFT length of the line transform over the grid size.  The kernel only
# reaches lags below G, so any factor of two or more gives the same values
# up to round-off; four is kept so written outputs do not change.
LINE_FFT_FACTOR = 4


class PhaseRangeError(ValueError):
    """Phase samples fall outside their admissible range."""


def clip_phase(values: np.ndarray, hi: float) -> tuple[np.ndarray, float]:
    """Phase samples clipped to [0, hi], and how far the worst one was out.

    The smooth exponential family rings around the steps of a jumpy phase,
    so a solved profile leaves the admissible range between quadrature
    nodes; the violation is 0.0 when every sample is in range, or when
    there is none.
    """
    clipped = np.clip(values, 0.0, hi)
    return clipped, float(np.max(np.abs(values - clipped), initial=0.0))


@dataclass
class GridFunction:
    """Real samples on a uniform grid over an interval or the circle.

    Interval grids sample cell centers: x_j = a + (j + 1/2) (b - a)/G, which
    pairs with the cell-averaged Hilbert kernel and keeps indicator data
    exactly representable.  Circle grids sample theta_j = -pi + 2 pi j / G.
    The size G must be a power of two.
    """

    kind: str  # "interval" | "circle"
    a: float
    b: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in ("interval", "circle"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("grid values must be 1-D")
        g = self.values.size
        if g < 2 or g & (g - 1):
            raise ValueError("grid size must be a power of two")
        if self.kind == "circle":
            self.a, self.b = -np.pi, np.pi
        elif self.b <= self.a:
            raise ValueError("interval must have positive length")

    @classmethod
    def on_interval(cls, a: float, b: float, values: np.ndarray) -> "GridFunction":
        return cls("interval", float(a), float(b), values)

    @classmethod
    def on_circle(cls, values: np.ndarray) -> "GridFunction":
        return cls("circle", -np.pi, np.pi, values)

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def step(self) -> float:
        if self.kind == "circle":
            return 2 * np.pi / self.size
        return (self.b - self.a) / self.size

    @property
    def grid(self) -> np.ndarray:
        if self.kind == "circle":
            return -np.pi + 2 * np.pi * np.arange(self.size) / self.size
        return self.a + (np.arange(self.size) + 0.5) * self.step

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.kind, self.a, self.b, values)


def _line_kernel(max_lag: int, kernel: str) -> np.ndarray:
    """Samples k(m) with H f(x_i) = sum_j f_j k(j - i), for lags 1..max_lag.

    "cell": the exact transform of the piecewise-constant interpolant,
    k(m) = (1/pi) log((m + 1/2)/(m - 1/2)).  Grid-aligned step data transform
    exactly; smooth data is second-order accurate.

    "spectral": the transform of the band-limited interpolant,
    k(m) = (1 - (-1)^m)/(pi m), whose symbol is exactly the sign multiplier.
    Spectrally accurate on smooth, well-resolved data; rings on jumps.
    """
    m = np.arange(1, max_lag + 1, dtype=float)
    if kernel == "cell":
        return np.log((m + 0.5) / (m - 0.5)) / np.pi
    if kernel == "spectral":
        return (1.0 - (-1.0) ** np.arange(1, max_lag + 1)) / (np.pi * m)
    raise ValueError(f"unknown line kernel {kernel!r}")


@lru_cache(maxsize=8)
def _line_kernel_spectrum(g: int, kernel: str) -> np.ndarray:
    """Read-only rfft of the correlation kernel `hilbert_line` applies to a
    grid of size g, zero-padded to LINE_FFT_FACTOR * g; fixed by (g, kernel),
    so every transform on that grid reuses it."""
    n_fft = LINE_FFT_FACTOR * g
    max_lag = n_fft - g  # largest lag free of circular aliasing
    k = _line_kernel(max_lag, kernel)
    conv = np.zeros(n_fft)
    conv[1 : max_lag + 1] = -k  # H(x_i) = sum_j f_j k(j - i): correlate
    conv[n_fft - 1 : n_fft - max_lag - 1 : -1] = k
    spectrum = np.fft.rfft(conv)
    spectrum.setflags(write=False)
    return spectrum


def hilbert_line(f: GridFunction, *, kernel: str = "cell") -> GridFunction:
    """Hilbert transform of a compactly supported function on an interval.

    The samples are treated as zero outside [a, b].  The discrete transform
    is a linear convolution with the analytic kernel of a sample interpolant
    (see `_line_kernel`), evaluated through a zero-padded FFT of length
    LINE_FFT_FACTOR * G.  Because the kernel is truncated to the alias-free
    lag range, that circular product equals the exact linear convolution.
    """
    if f.kind != "interval":
        raise ValueError("hilbert_line expects an interval grid")
    g = f.size
    n_fft = LINE_FFT_FACTOR * g
    padded = np.zeros(n_fft)
    padded[:g] = f.values
    out = np.fft.irfft(np.fft.rfft(padded) * _line_kernel_spectrum(g, kernel), n=n_fft)
    return f.with_values(out[:g])


def hilbert_circle(f: GridFunction) -> GridFunction:
    """Circular Hilbert transform by the exact Fourier multiplier.

    Mode n is multiplied by i sign(n); the mean and the Nyquist mode are
    annihilated.  On band-limited data this is the exact transform of the
    cot((sigma - theta)/2)/(2 pi) kernel, so applying it twice negates any
    mean-free band-limited input on the grid.
    """
    if f.kind != "circle":
        raise ValueError("hilbert_circle expects a circle grid")
    spec = np.fft.rfft(f.values)
    spec[0] = 0.0
    spec[1:] *= 1j
    spec[-1] = 0.0  # Nyquist: sign is ambiguous, and realness requires zero
    return f.with_values(np.fft.irfft(spec, n=f.size))


def _check_range(values: np.ndarray, lo: float, hi: float) -> None:
    if values.min() < lo - RANGE_TOL or values.max() > hi + RANGE_TOL:
        raise PhaseRangeError(
            f"phase values in [{values.min():.3g}, {values.max():.3g}] "
            f"exceed [{lo}, {hi}] beyond tolerance {RANGE_TOL}"
        )


def _clip_density(rho: np.ndarray) -> np.ndarray:
    low = rho.min()
    if low < NEGATIVE_CLIP:
        warnings.warn(
            f"density dipped to {low:.3g}; clipping to zero", RuntimeWarning
        )
    return np.maximum(rho, 0.0)


def _line_boundary(phase: GridFunction, caller: str) -> tuple[np.ndarray, np.ndarray]:
    """Modulus exp[s pi H phase] and argument pi phase of the line's boundary
    value of exp(C phase), for a phase in [0, 1] on an interval grid."""
    if phase.kind != "interval":
        raise ValueError(f"{caller} expects an interval grid")
    _check_range(phase.values, 0.0, 1.0)
    h = hilbert_line(phase)
    return np.exp(PLEMELJ_EXP_SIGN * np.pi * h.values), np.pi * np.clip(phase.values, 0.0, 1.0)


def invert_line(phi_star: GridFunction) -> GridFunction:
    """Density on the line from its phase function, phi in [0, 1].

    rho(x) = (1/pi) exp[s pi H phi(x)] sin(pi phi(x)), s = PLEMELJ_EXP_SIGN.
    The difference of the two boundary limits of exp of the phase transform
    collapses to this closed form; where the phase hits 1 the sine vanishes
    and a unit point mass leaves no absolutely continuous trace.
    """
    modulus, arg = _line_boundary(phi_star, "invert_line")
    return phi_star.with_values(_clip_density(modulus * np.sin(arg) / np.pi))


def invert_circle(phi_star: GridFunction, tau0: float) -> GridFunction:
    """Density on the circle from its phase, phi in [0, pi].

    rho(theta) = tau0 (2 exp[H phi(theta)] sin phi(theta) - 1).

    This is the interior-limit form: matching imaginary parts of the interior
    boundary limit of the exponential representation against the boundary
    limit of the density's own circular transform produces the -tau0 offset.
    Dropping the offset fails the uniform measure (phi = pi/2, H phi = 0 must
    return rho = tau0, not 2 tau0), so the doubled bare product cannot be
    right even though it is the naive two-sided-jump answer.
    """
    if phi_star.kind != "circle":
        raise ValueError("invert_circle expects a circle grid")
    if tau0 <= 0:
        raise ValueError("tau0 must be positive")
    _check_range(phi_star.values, 0.0, np.pi)
    h = hilbert_circle(phi_star)
    rho = tau0 * (
        2.0 * np.exp(h.values) * np.sin(np.clip(phi_star.values, 0.0, np.pi)) - 1.0
    )
    return phi_star.with_values(_clip_density(rho))


def cauchy_boundary_avg(xi: GridFunction) -> GridFunction:
    """Average of the two boundary limits of exp(C xi) - 1, xi in [0, 1].

    f(t) = exp[s pi H xi(t)] cos(pi xi(t)) - 1 with the same sign s as
    `invert_line`.  This is the principal-value boundary trace of the
    measure's transform on the support axis; feeding it through one more
    Hilbert transform yields hyperplane-integral slices (see raybeam).
    """
    modulus, arg = _line_boundary(xi, "cauchy_boundary_avg")
    return xi.with_values(modulus * np.cos(arg) - 1.0)


# ----------------------------------------------------------------------------
# CSV emission (bit-exact round trip)
# ----------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _row_template(kind: str, a: float, b: float, g: int) -> str:
    """Every data row of a CSV on one grid: the x text, written once with
    repr, then a `%r` slot for the value.  Fixed by the grid alone, so the
    next file on the same grid (a ray's phase and slice, a pipeline's phase
    and density) reuses it.  Float reprs hold no '%', so none needs escaping;
    the keys a = 0.0 and a = -0.0 compare equal and give the same centres."""
    x = GridFunction(kind, a, b, np.zeros(g)).grid
    return "".join(f"{t!r},%r\n" for t in x.tolist())


def write_csv(f: GridFunction, path) -> None:
    """Emit header (domain, a, b, G) then (x, value) rows.

    Values are written with repr, the shortest decimal string that parses
    back to the identical double, so a round trip is bit-exact.  `%r` of a
    float is its repr, so one `%` on the grid's row template writes them all.
    """
    rows = _row_template(f.kind, f.a, f.b, f.size) % tuple(f.values.tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{f.kind},{f.a!r},{f.b!r},{f.size}\nx,value\n{rows}")


def read_csv(path) -> GridFunction:
    """Read `write_csv` output; the grid comes from the header, the values
    from the second field of each (x, value) row."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        kind, a, b, g = header[0], float(header[1]), float(header[2]), int(header[3])
        fh.readline()  # column names
        values = []
        for lineno, line in enumerate(fh, start=3):
            if not line.strip():
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise ValueError(
                    f"line {lineno}: expected 2 fields (x,value), found {len(fields)}"
                )
            values.append(float(fields[1]))
    if len(values) != g:
        raise ValueError(f"expected {g} rows, found {len(values)}")
    return GridFunction(kind, a, b, np.array(values))

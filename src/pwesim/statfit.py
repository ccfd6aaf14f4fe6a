"""Gamma/Rayleigh densities, maximum-likelihood fits and KL divergence.

The Gamma shape estimate solves ln(k) - psi(k) = ln(mean) - mean(ln x) by
bracketing and bisection. (A sometimes-seen variant wraps the digamma in an
extra logarithm; that form is undefined for k below ~1.4616 and is not the
Gamma MLE condition, so the standard form is used here.)
"""

from dataclasses import dataclass
from math import lgamma

import numpy as np

LOG_CLAMP = 1e-9       # zero samples are clamped to this before taking logs
SHAPE_LO = 1e-4
SHAPE_HI = 1e4
ROOT_TOL = 1e-10
KLD_SMOOTHING = 1e-12


class DegenerateDataError(Exception):
    """All samples identical (or otherwise unfittable) for the requested model."""


@dataclass(frozen=True)
class DeviationDataset:
    """Non-negative deviation samples (degrees) for one (d_r, M) configuration."""

    samples: np.ndarray
    d_r: float
    m: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if (samples < 0).any():
            raise ValueError("samples must be non-negative")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def n(self):
        return len(self.samples)


@dataclass(frozen=True)
class GammaFit:
    k_hat: float
    theta_hat: float
    log_likelihood: float


@dataclass(frozen=True)
class RayleighFit:
    sigma_hat: float
    log_likelihood: float


@dataclass(frozen=True)
class Histogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    densities: np.ndarray

    @property
    def widths(self):
        return np.diff(self.bin_edges)


@dataclass(frozen=True)
class Fit:
    """Both MLE fits of one dataset, its histogram and each fit's KLD against it."""

    gamma: GammaFit
    rayleigh: RayleighFit
    histogram: Histogram
    kld_gamma: float
    kld_rayleigh: float


def gamma_pdf(x, k, theta):
    """Gamma density x^(k-1) e^(-x/theta) / (Gamma(k) theta^k)."""
    if k <= 0 or theta <= 0:
        raise ValueError("k and theta must be positive")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if (x < 0).any():
        raise ValueError("x must be non-negative")
    if k < 1 and (x == 0).any():
        raise ValueError("gamma density diverges at x=0 for k < 1")
    out = np.zeros_like(x)
    zero = x == 0
    if zero.any():
        out[zero] = 1.0 / theta if k == 1 else 0.0
    pos = ~zero
    xp = x[pos]
    out[pos] = np.exp((k - 1.0) * np.log(xp) - xp / theta - lgamma(k) - k * np.log(theta))
    return float(out[0]) if scalar else out


def rayleigh_pdf(x, sigma):
    """Rayleigh density (x / sigma^2) e^(-x^2 / (2 sigma^2))."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise ValueError("x must be non-negative")
    out = (x / sigma**2) * np.exp(-x**2 / (2.0 * sigma**2))
    return float(out) if out.ndim == 0 else out


# psi(x) ~ ln x - 1/(2x) - sum B_2n / (2n x^2n); coefficients of x^(-2n)
_PSI_ASYMPTOTIC = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)


def digamma(x):
    """Digamma psi(x) for x > 0, accurate to ~1e-12 absolute.

    Upward recurrence psi(x) = psi(x+1) - 1/x shifts the argument to >= 6,
    where the asymptotic series converges well.
    """
    if x <= 0:
        raise ValueError("digamma requires x > 0")
    acc = 0.0
    while x < 6.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    for c in reversed(_PSI_ASYMPTOTIC):
        series = series * inv2 + c
    return acc + np.log(x) - 0.5 / x + series * inv2


def _check_magnitude(x):
    """Raise DegenerateDataError when a sum of squared samples, as both fits
    take, would run past the float range."""
    if float(np.max(x)) > np.sqrt(np.finfo(float).max / len(x)):
        raise DegenerateDataError("samples too large to fit; their squares overflow")


def _gamma_loglik(x, k, theta):
    return float(np.sum((k - 1.0) * np.log(x) - x / theta) - len(x) * (lgamma(k) + k * np.log(theta)))


def fit_gamma_mle(data):
    """Maximum-likelihood Gamma fit of a deviation dataset.

    Zero samples are clamped to LOG_CLAMP before logs (exact zero deviations
    occur with positive probability in discrete scenes). Raises
    DegenerateDataError when the samples carry no spread.
    """
    if data.n < 2:
        raise ValueError("gamma fit needs at least two samples")
    _check_magnitude(data.samples)
    x = np.maximum(data.samples, LOG_CLAMP)
    mean = float(np.mean(x))
    s = np.log(mean) - float(np.mean(np.log(x)))
    if not np.isfinite(s) or s <= 0.0:
        raise DegenerateDataError("samples have no spread; gamma shape diverges")

    def g(k):
        return np.log(k) - digamma(k) - s

    # moment-matching start, then geometric bracket expansion;
    # g is strictly decreasing in k
    var = float(np.var(x))
    k0 = mean * mean / var if var > 0 else 1.0
    k0 = min(max(k0, SHAPE_LO), SHAPE_HI)
    lo = hi = k0
    while g(lo) < 0.0:
        lo /= 2.0
        if lo < SHAPE_LO:
            raise DegenerateDataError("gamma shape root below bracket floor")
    while g(hi) > 0.0:
        hi *= 2.0
        if hi > SHAPE_HI:
            raise DegenerateDataError("gamma shape root above bracket ceiling")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * mid:
            break
    k_hat = 0.5 * (lo + hi)
    if abs(g(k_hat)) > ROOT_TOL:
        raise DegenerateDataError("gamma shape root did not converge")
    theta_hat = mean / k_hat
    return GammaFit(k_hat=k_hat, theta_hat=theta_hat,
                    log_likelihood=_gamma_loglik(x, k_hat, theta_hat))


def fit_rayleigh_mle(data):
    """Closed-form Rayleigh scale estimate sqrt(sum(x^2) / (2N))."""
    if data.n < 1:
        raise ValueError("rayleigh fit needs at least one sample")
    _check_magnitude(data.samples)
    sq = float(np.sum(data.samples**2))
    if sq == 0.0:
        raise DegenerateDataError("all samples zero; rayleigh scale undefined")
    sigma = np.sqrt(sq / (2.0 * data.n))
    x = np.maximum(data.samples, LOG_CLAMP)
    loglik = float(np.sum(np.log(x / sigma**2) - x**2 / (2.0 * sigma**2)))
    return RayleighFit(sigma_hat=float(sigma), log_likelihood=loglik)


def make_histogram(data, n_bins=10):
    """Equal-width density histogram over [0, max(samples)]."""
    if n_bins < 2:
        raise ValueError("need at least two bins")
    if data.n == 0:
        raise ValueError("empty dataset")
    top = float(np.max(data.samples))
    if top <= 0.0:
        raise ValueError("histogram span is empty (all samples zero)")
    counts, edges = np.histogram(data.samples, bins=n_bins, range=(0.0, top))
    widths = np.diff(edges)
    densities = counts / (data.n * widths)
    return Histogram(bin_edges=edges, counts=counts, densities=densities)


def kld_empirical(hist, model_pdf):
    """Discretized KL divergence between a sample histogram and a model pdf.

    The histogram's bin masses are compared against the model's midpoint
    rule mass per bin, the pdf taking all bin midpoints in one call; both
    sides get additive smoothing and renormalization, which keeps the
    estimate finite and non-negative.
    """
    p = hist.counts / hist.counts.sum()
    mids = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
    q = np.asarray(model_pdf(mids), dtype=float) * hist.widths
    if (q < 0).any():
        raise ValueError("model pdf must be non-negative")
    p = p + KLD_SMOOTHING
    q = q + KLD_SMOOTHING
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sum(p * np.log(p / q)))

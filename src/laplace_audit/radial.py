"""Direction/radius decomposition of a Gaussian reference measure.

A standard Gaussian vector eta factors into a uniform direction e = eta/|eta|
on the unit sphere and an independent radius r = |eta| following a chi law
with d degrees of freedom. Remapping the radius as z = sqrt(r) compresses the
tail enough that the negative log-density of z is strongly convex, which is
what the conditional KL machinery exploits. This module provides the sphere
sampler, chi moments, the z-law density and its curvature floor, and the
coordinate maps between theta-space and (z, e)-space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammainccinv, gammaincinv, gammaln

LOG_2 = float(np.log(2.0))


def sample_direction(d: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a uniform unit vector on the (d-1)-sphere; for d=1 this is +-1."""
    if d < 1:
        raise ValueError("d must be >= 1")
    while True:
        eta = rng.standard_normal(d)
        norm = float(np.linalg.norm(eta))
        if norm > 0.0:
            return eta / norm


def sample_direction_pairs(d: int, n_pairs: int, rng: np.random.Generator) -> np.ndarray:
    """Stack n_pairs antithetic direction pairs (e, -e) into a (2*n_pairs, d) array."""
    out = np.empty((2 * n_pairs, d))
    for i in range(n_pairs):
        e = sample_direction(d, rng)
        out[2 * i] = e
        out[2 * i + 1] = -e
    return out


def chi_moment(d: int, k: int) -> float:
    """E[r^k] for r chi-distributed with d degrees of freedom.

    Uses the gamma-ratio form 2^(k/2) Gamma((d+k)/2) / Gamma(d/2) evaluated
    through log-gamma, so it stays finite where the raw gamma values overflow.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    return float(np.exp(0.5 * k * LOG_2 + gammaln(0.5 * (d + k)) - gammaln(0.5 * d)))


def chi_quantile(d: int, p: float) -> float:
    """Quantile of the chi law with d degrees of freedom.

    r^2 / 2 is Gamma(d/2)-distributed, so the quantile is
    sqrt(2 P^-1(d/2, p)) with the inverse regularized incomplete gamma
    function, the form ``scipy.stats.chi.ppf`` evaluates.
    """
    return float(np.sqrt(2.0 * gammaincinv(0.5 * d, p)))


@dataclass(frozen=True)
class RadialLaw:
    """Law of z = sqrt(|eta|) for a d-dimensional standard Gaussian eta.

    Density: z^(2d-1) exp(-z^4/2) / (2^(d/2-2) Gamma(d/2)) on z > 0.
    """

    d: int

    @property
    def log_normalizer(self) -> float:
        return (0.5 * self.d - 2.0) * LOG_2 + float(gammaln(0.5 * self.d))

    @property
    def mode(self) -> float:
        return (0.5 * (2.0 * self.d - 1.0)) ** 0.25

    def log_density(self, z):
        z = np.asarray(z, dtype=float)
        if np.any(z <= 0.0):
            raise ValueError("the square-root-radius law is supported on z > 0")
        val = (2.0 * self.d - 1.0) * np.log(z) - 0.5 * z**4 - self.log_normalizer
        return float(val) if val.ndim == 0 else val


def z_log_density(law: RadialLaw, z):
    """Log-density of the square-root-radius law (functional form of RadialLaw)."""
    return law.log_density(z)


def radial_min_curvature(d: int) -> float:
    """Curvature floor 2 sqrt(6) sqrt(2d-1) of the z-law negative log-density.

    The negative log-density -(2d-1) log z + z^4/2 has second derivative
    (2d-1)/z^2 + 6 z^2, minimized at z = ((2d-1)/6)^(1/4).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return 2.0 * np.sqrt(6.0) * np.sqrt(2.0 * d - 1.0)


@lru_cache(maxsize=64)
def _chi_quadrature_cached(d: int, nodes: int):
    x, w = leggauss(nodes)
    # upper 1e-14 chi quantile, from the complemented inverse so that the
    # tail probability keeps its precision
    r_hi = float(np.sqrt(2.0 * gammainccinv(0.5 * d, 1e-14)))
    rs = 0.5 * r_hi * (x + 1.0)
    gl_w = 0.5 * r_hi * w
    log_norm = (0.5 * d - 1.0) * LOG_2 + gammaln(0.5 * d)
    log_pdf = (d - 1.0) * np.log(rs) - 0.5 * rs * rs - log_norm
    weights = gl_w * np.exp(log_pdf)
    rs.setflags(write=False)
    weights.setflags(write=False)
    return rs, weights

def chi_quadrature(d: int, nodes: int):
    """Fixed nodes/weights so that sum(w * h(r)) approximates E_chi_d[h(r)].

    Gauss-Legendre points on [0, r_hi] against the chi density, with r_hi at
    the 1 - 1e-14 chi quantile; smooth integrands converge spectrally in the
    node count.
    """
    if nodes < 2:
        raise ValueError("nodes must be >= 2")
    return _chi_quadrature_cached(int(d), int(nodes))


def to_theta(fit, z: float, e: np.ndarray) -> np.ndarray:
    """Map (z, e) coordinates back to theta = theta* + z^2 * S e."""
    if z < 0:
        raise ValueError("z must be >= 0")
    e = np.asarray(e, dtype=float)
    return fit.theta_star + (z * z) * (fit.sqrt_covariance @ e)


def from_theta(fit, theta):
    """Invert ``to_theta``: return (z, e) with e = None at the degenerate center."""
    theta = np.asarray(theta, dtype=float)
    u = fit.sqrt_precision @ (theta - fit.theta_star)
    r = float(np.linalg.norm(u))
    if r == 0.0:
        return 0.0, None
    return float(np.sqrt(r)), u / r
